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
    then fsync its directory.  The payload streams into the temp file
    through a buffer of about {!Codec.chunk} bytes, checksummed as it
    goes; the header, which needs the payload's length and CRC, is
    sealed at offset 0 after it, behind the [wal-checkpoint-seal] kill
    point.  No buffer the size of the payload is built.

    Each call observes [ivm_wal_checkpoint_ns{stage}] for [encode]
    (building the bytes), [write] (checksum and writes, summed over the
    flushes and the seal), [fsync] (the temp file) and [publish]
    (rename plus directory fsync).

    Raises [Unix.Unix_error] on I/O failure and
    {!Codec.Frame_too_large} for a payload over 4 GiB, in both cases
    before the rename and after removing the temp file, so the previous
    checkpoint stays in place. *)
val write : string -> State.t -> unit

(** [observe_stage stage ns] records one sample of
    [ivm_wal_checkpoint_ns{stage}]; the manager adds [truncate], the
    WAL truncation that follows a checkpoint. *)
val observe_stage : string -> int -> unit

(** [read path] is [None] when no checkpoint exists.
    @raise Wal.Incompatible_wal on a foreign or wrong-version file.
    @raise Codec.Corrupt when the frame fails its checksum or does not
    decode (a checkpoint is atomic; a bad one is corruption, not a torn
    tail). *)
val read : string -> State.t option
