(** Checkpoint snapshots: one {!State} image, atomically replaced.

    Layout mirrors the WAL: an ["IVMCKP" <u16le version>] header
    followed by a single [<u32le len> <u32le crc32> <payload>] frame
    holding the encoded state.  {!write} goes through a temp file +
    fsync + rename + directory fsync, so the checkpoint on disk is
    always whole and the rename is durable before the caller truncates
    the WAL: a crash mid-checkpoint leaves the previous one in place and
    the WAL tail still covers the difference. *)

val magic : string
val version : int

(** Atomically (tmp + fsync + rename) replace the checkpoint at [path],
    then fsync its directory.  The payload is encoded once and written
    behind the header without another copy.  Raises [Unix.Unix_error]
    on I/O failure, after removing the temp file. *)
val write : string -> State.t -> unit

(** [read path] is [None] when no checkpoint exists.
    @raise Wal.Incompatible_wal on a foreign or wrong-version file.
    @raise Codec.Corrupt when the frame fails its checksum or does not
    decode (a checkpoint is atomic; a bad one is corruption, not a torn
    tail). *)
val read : string -> State.t option
