(** Crash-recovery lockstep gate.

    Extends the oracle harness to the durability contract: a fuzz
    stream runs against a write-ahead-logged manager with fault
    injection armed over the WAL kill points ([wal-apply],
    [wal-append], [wal-fsync], [wal-checkpoint], [wal-checkpoint-seal],
    [wal-truncate]) as well as the usual maintenance points.  An
    injected fault escaping from a kill point is a simulated process
    death; the harness then

    - optionally tears the last WAL record at a seed-chosen byte
      offset (a crash mid-append),
    - recovers into a fresh manager and requires
      {!Durability.State.diff} to find {e no} difference against the
      snapshot taken when that WAL position was the durable frontier —
      quarantined and banked views come back in the same health state,
    - recovers again, in place and from a byte-for-byte copy of the
      pre-recovery directory, to check idempotence,
    - and continues the stream on the recovered manager against a
      rebuilt reference, finishing with the usual end-of-stream
      heal-and-compare.

    Streams that never crash still recover at end of stream, so every
    run exercises the checkpoint/replay path. *)

type report = {
  crashed : bool;
  crash_point : string option;
  crash_index : int;  (** transaction index of the kill, -1 if none *)
  torn_bytes : int;  (** bytes cut off the last record, 0 if whole *)
  records_replayed : int;
  commits_before_crash : int;
}

(** [run ~dir stream] runs the whole protocol in [dir] (created,
    cleaned up on success; a [.copy] sibling holds the frozen image).
    The fsync policy, checkpoint cadence and failure policy are derived
    from the stream's seed.
    @raise Harness.Diverged on the first violated check. *)
val run : ?fault_rate:float -> dir:string -> Stream.t -> report

type outcome = {
  streams_run : int;
  crashes : int;  (** streams that died at a kill point *)
  torn : int;  (** crashes with a torn-tail injection *)
  replayed : int;  (** WAL records replayed across all recoveries *)
  failure : (Stream.t * Harness.divergence) option;
}

(** [fuzz ~dir ~seed ~streams ~transactions ~domains ()] runs
    [streams] independent streams (stream [k] from seed [seed + k], in
    directory [dir-k]) through {!run}, stopping at the first
    divergence. *)
val fuzz :
  ?progress:(int -> unit) ->
  ?fault_rate:float ->
  ?aggregates:bool ->
  dir:string ->
  seed:int ->
  streams:int ->
  transactions:int ->
  domains:int ->
  unit ->
  outcome
