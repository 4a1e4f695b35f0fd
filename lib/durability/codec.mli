(** Binary codec for the durability layer.

    Fixed-width little-endian integers, length-prefixed strings, and
    encoders for the {!Relalg} values the WAL and checkpoint files
    carry.  Counted relations serialize in tuple order
    ({!Relalg.Relation.iter_sorted}), so encoding is deterministic: the
    same state always produces the same bytes, whatever the hash
    tables' insert, delete and resize history.  The tests pin this: the
    order equals [List.sort Tuple.compare], equal relations with
    different histories encode identically, and one seeded checkpoint
    has a golden CRC.  (The crash-recovery oracle does not rely on it:
    it compares decoded images with {!State.diff}.)

    Decoders never read past the input; any malformed input raises
    {!Corrupt} with a diagnostic instead of an [Invalid_argument] or an
    out-of-bounds crash. *)

exception Corrupt of string

exception Frame_too_large of int
(** A payload longer than a frame's u32 length field can state; the
    argument is its length.  Raised before anything is written. *)

(** {2 CRC-32} *)

(** IEEE 802.3 (reflected) CRC-32 of [len] bytes of [s] at [pos];
    [crc] chains a running checksum.  Eight bytes a step
    (slicing-by-8) in native ints, without allocating.
    @raise Invalid_argument when [pos] and [len] do not name a range
    of [s]. *)
val crc32 : ?crc:int32 -> string -> pos:int -> len:int -> int32

(** {2 Frames}

    WAL records and the checkpoint payload travel in the same frame:
    [<u32le len> <u32le crc32> <payload>]. *)

(** The longest payload a frame can carry, [2^32 - 1] bytes. *)
val max_frame : int

(** [set_frame_header b pos ~len ~crc] writes a frame's 8-byte header
    at [pos].
    @raise Frame_too_large when [len] exceeds {!max_frame}, so a length
    never wraps silently. *)
val set_frame_header : Bytes.t -> int -> len:int -> crc:int32 -> unit

(** {2 Primitive writers (into a [Buffer.t])} *)

val w_int : Buffer.t -> int -> unit
(** 64-bit little-endian two's complement. *)

val w_byte : Buffer.t -> int -> unit
(** Low byte of the argument; used for small variant tags. *)

val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

(** {2 Primitive readers} *)

(** A cursor over an immutable byte string. *)
type reader

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val r_int : reader -> int
val r_byte : reader -> int
val r_bool : reader -> bool
val r_string : reader -> string
val r_list : (reader -> 'a) -> reader -> 'a list
val r_option : (reader -> 'a) -> reader -> 'a option

(** [expect_end r] raises {!Corrupt} unless the cursor consumed the
    whole input. *)
val expect_end : reader -> unit

(** {2 Relalg values} *)

val w_value : Buffer.t -> Relalg.Value.t -> unit
val r_value : reader -> Relalg.Value.t
val w_tuple : Buffer.t -> Relalg.Tuple.t -> unit
val r_tuple : reader -> Relalg.Tuple.t
val w_schema : Buffer.t -> Relalg.Schema.t -> unit
val r_schema : reader -> Relalg.Schema.t

(** Bytes a streaming writer lets collect before it hands them on: 64 KiB. *)
val chunk : int

(** Schema + counted elements in tuple order.  With [flush], the
    writer streams: whenever the buffer holds {!chunk} bytes or more
    after a tuple, it is passed to [flush] and then cleared, so a
    relation of any size goes out through a buffer bounded by {!chunk}
    plus one tuple.  Without it, the whole relation is appended.

    Decoding reads straight into a relation presized by the length
    prefix, after checking that the prefix fits the remaining bytes,
    every counter is positive and every tuple fits the schema. *)
val w_relation :
  ?flush:(Buffer.t -> unit) -> Buffer.t -> Relalg.Relation.t -> unit

val r_relation : reader -> Relalg.Relation.t

(** A transaction net effect: per-relation insert and delete tuple
    lists ({!Relalg.Transaction.net}). *)
val w_net : Buffer.t -> Relalg.Transaction.net -> unit

val r_net : reader -> Relalg.Transaction.net
