(** Durable commit pipeline: write-ahead log, checkpoints and crash
    recovery for the view maintenance engine.

    The layer is deliberately below [lib/core]: it speaks only
    {!Relalg} types (relations, tuples, net effects) plus its own
    {!State} and {!Record} vocabulary, and {!Ivm.Manager} does the
    translation at the boundary.  See [docs/recovery.md] for the
    on-disk format and the fsync policy discussion. *)

module Codec = Codec
module Config = Config
module State = State
module Record = Record
module Wal = Wal
module Checkpoint = Checkpoint

exception Incompatible_wal = Wal.Incompatible_wal
exception Corrupt = Codec.Corrupt
exception Frame_too_large = Codec.Frame_too_large
