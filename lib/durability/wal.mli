(** The write-ahead log file.

    On-disk layout (see [docs/recovery.md]):
    {v
    "IVMWAL" <u16le version>                      -- 8-byte header
    repeat: <u32le len> <u32le crc32> <payload>   -- one frame per record
    v}
    where [payload] is the record LSN (64-bit LE) followed by the
    {!Record} encoding, and [crc32] covers the payload bytes.

    LSNs increase monotonically across the lifetime of the log,
    surviving checkpoint truncation (the counter resumes past the
    checkpoint's covered LSN), so an LSN names one engine state
    unambiguously — the key the crash-recovery oracle uses.

    Opening scans the whole log: a frame that is cut short, fails its
    checksum, or does not decode marks the {e torn tail}, which is
    physically truncated away (a crash mid-append must not poison later
    appends).  A file that does not start with the magic/version header
    raises {!Incompatible_wal} and is left untouched. *)

exception Incompatible_wal of string
(** The file exists but is not a WAL this build can read: wrong magic
    (foreign file) or wrong format version.  The payload is a
    diagnostic naming the path and what was found. *)

type t

val magic : string
val version : int

(** {2 File framing shared with {!Checkpoint}} *)

(** [header ~magic ~version] is the header a WAL or checkpoint file
    starts with: the magic, then the format version as u16le. *)
val header : magic:string -> version:int -> Bytes.t

(** [check_header ~magic ~version ~min_size ~path content] accepts
    [content], the bytes of the file at [path], when it is at least
    [min_size] bytes long (no less than the header) and starts with
    [header ~magic ~version].
    @raise Incompatible_wal otherwise, naming [path] and what it
    found. *)
val check_header :
  magic:string -> version:int -> min_size:int -> path:string -> string -> unit

(** [write_all fd b pos len] writes [len] bytes of [b] from [pos],
    looping over short writes. *)
val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit

(** {2 The log} *)

(** [open_ ~fsync path] opens (creating if missing) the log, validates
    the header, truncates any torn tail, and returns the writer plus
    every surviving record with its LSN, in append order.
    @raise Incompatible_wal as above. *)
val open_ : fsync:Config.fsync -> string -> t * (int * Record.t) list

(** [append t record] frames, checksums and writes the record and
    returns its LSN.  It does {e not} sync — call {!maybe_sync} (policy)
    or {!sync} (unconditional) after; the split lets the manager place a
    crash-injection point between the write and the sync.  Raises
    [Unix.Unix_error] on I/O failure — the caller should treat that as
    fatal for durability (the in-memory commit has already happened).
    @raise Codec.Frame_too_large when the payload exceeds the frame's
    u32 length field, before anything is written.  Every frame it
    writes reads back: the scan bounds a frame only by the bytes left
    in the file. *)
val append : t -> Record.t -> int

(** Apply the configured fsync policy to buffered appends: [Always]
    syncs now, [Every n] syncs once [n] appends are buffered (group
    commit), [Never] leaves syncing to the OS. *)
val maybe_sync : t -> unit

(** Unconditional fsync of buffered appends (no-op when clean). *)
val sync : t -> unit

(** LSN of the last appended (or scanned, or [ensure_lsn]-advanced)
    record; 0 for a fresh log. *)
val last_lsn : t -> int

(** Advance the LSN counter to at least [lsn] (a checkpoint may cover
    records the truncated log no longer holds). *)
val ensure_lsn : t -> int -> unit

(** Bytes of torn tail discarded when the log was opened. *)
val torn_bytes : t -> int

(** Logical size in bytes (header included). *)
val size : t -> int

(** Drop every record (after a checkpoint made them redundant); the
    LSN counter is preserved. *)
val truncate_to_header : t -> unit

(** Read-only scan of a log file: every whole record with its LSN, in
    order, and the torn-tail byte count.  Unlike {!open_} it truncates
    nothing and creates nothing; a missing or empty file reads as
    [([], 0)].
    @raise Incompatible_wal on a foreign header. *)
val read : string -> (int * Record.t) list * int

(** Read-only scan of a log file: [(lsn, offset, frame_length)] for
    every whole record, in order.  Torn tails are ignored, not
    truncated.  Used by tests to compute byte extents.
    @raise Incompatible_wal on a foreign header. *)
val entries : string -> (int * int * int) list
