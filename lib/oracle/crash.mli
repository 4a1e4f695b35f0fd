(** Crash-recovery lockstep gate.

    Extends the oracle harness to the durability contract: a fuzz
    stream runs against a write-ahead-logged manager with fault
    injection armed over the usual maintenance points, and dies once at
    one of the WAL kill points ({!wal_points}), chosen by
    {!kill_point}.  An injected fault escaping from a kill point, in a
    commit or a deferred view's refresh, is a simulated process death;
    the harness then

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

    A stream that never reaches its kill still recovers at end of
    stream, so every run exercises the checkpoint/replay path. *)

(** The kill points, in the order the engine passes them. *)
val wal_points : string list

(** [kill_point seed] is the one WAL point the stream of [seed] may die
    at.  Every [2 * List.length wal_points] consecutive seeds name each
    point at least once. *)
val kill_point : int -> string

type report = {
  crashed : bool;
  crash_point : string option;
  crash_index : int;  (** transaction index of the kill, -1 if none *)
  torn_bytes : int;  (** bytes cut off the last record, 0 if whole *)
  records_replayed : int;
  commits_before_crash : int;
  refreshes : int;  (** refreshes of deferred views, both phases *)
}

(** [run ~dir stream] runs the whole protocol in [dir] (created,
    cleaned up on success; a [.copy] sibling holds the frozen image).
    The fsync policy, checkpoint cadence and failure policy are derived
    from the stream's seed.  Maintenance fault points fire at
    [fault_rate] (default 0.05); of the WAL points only
    [kill_point seed] fires, once, at a pass the stream is sure to make,
    drawn from the seed — so every stream dies once.  Deferred views
    refresh on {!Harness.refresh_due}'s cadence, and a kill inside a
    refresh is a death like one inside a commit.
    @raise Harness.Diverged on the first violated check. *)
val run : ?fault_rate:float -> dir:string -> Stream.t -> report

type outcome = {
  streams_run : int;
  crashes : int;  (** streams that died at a kill point *)
  torn : int;  (** crashes with a torn-tail injection *)
  replayed : int;  (** WAL records replayed across all recoveries *)
  refreshes : int;  (** refreshes of deferred views across all streams *)
  kills : (string * int) list;  (** kills per point of {!wal_points} *)
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

(** The points of {!wal_points} a run never killed at, when it ran
    enough streams ([2 * List.length wal_points]) for {!kill_point} to
    name every point; [[]] for a shorter run. *)
val unkilled : outcome -> string list
