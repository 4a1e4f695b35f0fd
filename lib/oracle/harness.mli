(** Model-based comparison of the maintenance engine against the naive
    reference.

    {!run} replays a stream twice in lockstep — once through the full
    stack ({!Ivm.Manager} with the stream's domain count and per-view
    options) and once through {!Reference} — and checks after {e every}
    commit that:

    - the base relations agree (transactions installed identically);
    - every materialization agrees tuple for tuple {e and counter for
      counter} with a from-scratch recompute;
    - every screening decision is sound: an update tuple the engine's
      Theorem 4.1 screens drop for all aliases of a view must leave that
      view's from-scratch evaluation unchanged when toggled in the
      pre-transaction state.

    The first violated check stops the run and is reported as a
    {!divergence}; [None] means the whole stream replayed cleanly. *)

type kind =
  | Base_relations  (** engine and reference base states differ *)
  | Materialization  (** visible tuple sets differ *)
  | Counters  (** same tuple set, different multiplicities *)
  | Screening  (** a screened-out tuple changes the view *)
  | Health  (** a quarantined view failed to heal by end of stream *)

type divergence = {
  transaction_index : int;  (** 0-based index into the stream *)
  view : string;
  kind : kind;
  detail : string;
}

val kind_name : kind -> string
val pp_divergence : Format.formatter -> divergence -> unit

(** Commit outcomes observed during one {!run}. *)
type run_stats = {
  mutable committed : int;
  mutable aborted : int;  (** clean [Commit_failed] aborts (faults only) *)
  mutable quarantined : int;  (** views newly quarantined by a commit *)
  mutable healed : int;  (** quarantined views that later healed *)
  mutable faults : int;  (** faults injected across the replay *)
  mutable refreshed : int;  (** refreshes of deferred views *)
  mutable refresh_faults : int;  (** faults that escaped a refresh *)
}

val fresh_stats : unit -> run_stats

(** Names of views currently quarantined or disabled. *)
val unhealthy : Ivm.Manager.t -> string list

(** Raised by {!compare_states} (and internally by {!run}) on the first
    violated check. *)
exception Diverged of divergence

(** [install mgr stream] defines the stream's views on [mgr], in their
    refresh modes, then builds its indexes. *)
val install : Ivm.Manager.t -> Stream.t -> unit

(** Names of the stream's deferred views, in definition order. *)
val deferred : Stream.t -> string list

(** What each deferred view must hold, by name: the reference's
    contents at the view's last refresh. *)
type held = (string, Relalg.Relation.t) Hashtbl.t

(** [hold reference held stream] records the reference's current
    contents for every deferred view of [stream]. *)
val hold : Reference.t -> held -> Stream.t -> unit

(** [refresh_due stream index]: deferred views refresh after
    transaction [index].  The cadence, every 2 to 5 transactions, is
    hashed from the stream's seed alone. *)
val refresh_due : Stream.t -> int -> bool

(** [refresh_deferred ~stats ~index reference mgr held stream] refreshes
    every deferred view of [stream] in definition order.  A refreshed
    view must have an empty bank, and [held] then maps it to the
    reference's contents.  An exception that escapes a refresh
    propagates unless [tolerate] accepts it; an accepted one (an
    injected fault) must leave the view's bank as it was, and [held]
    keeps its entry, so the next comparison checks that the contents
    did not move either.  [on_refresh] runs after each successful
    refresh.
    @raise Diverged on a violated check. *)
val refresh_deferred :
  ?tolerate:(exn -> bool) ->
  ?on_refresh:(unit -> unit) ->
  stats:run_stats ->
  index:int ->
  Reference.t ->
  Ivm.Manager.t ->
  held ->
  Stream.t ->
  unit

(** One lockstep comparison: base relations, then every materialization
    (tuples {e and} counters) not in [skip], against the reference, or
    against [held] for the deferred views it names.
    @raise Diverged on the first mismatch.  Exposed for the
    crash-recovery harness ({!Crash}), which interleaves comparisons
    with kills and recoveries. *)
val compare_states :
  ?skip:string list ->
  ?held:held ->
  Reference.t ->
  Ivm.Manager.t ->
  Relalg.Database.t ->
  Stream.t ->
  int ->
  unit

(** [run ?corrupt ?fault_rate ?policy ?stats stream] replays [stream];
    [corrupt], used by the test suite to simulate maintenance bugs, runs
    after each commit with the manager and the 0-based transaction index
    and may tamper with the engine's state.

    With [fault_rate] > 0, {!Resilience.Fault} is armed (deterministically
    from the stream's seed) for the duration of the replay and the checks
    widen to the fault-tolerance contract: every commit must either
    succeed (healthy views agree with the oracle), abort cleanly
    ([Commit_failed] with the engine bit-identical to the oracle's
    pre-commit state — the reference does not step), or quarantine views
    that must self-heal; at end of stream every quarantined view gets
    heal rounds while it stays quarantined, up to the self-heal ladder's
    [Retry.default_schedule.rounds], then the full state is compared
    and {!Ivm.Manager.all_consistent} must hold.

    Deferred views refresh on {!refresh_due}'s cadence
    ({!refresh_deferred}) and between refreshes must hold exactly what
    the reference held at their last one.  At end of stream, with
    faults off, every deferred view refreshes before the full
    comparison.  Without faults, any
    commit exception is an engine bug and reported as a divergence.
    [policy] (default [Abort]) is the manager's failure policy; [stats]
    accumulates commit outcomes. *)
val run :
  ?corrupt:(Ivm.Manager.t -> int -> unit) ->
  ?fault_rate:float ->
  ?policy:Resilience.Policy.t ->
  ?stats:run_stats ->
  Stream.t ->
  divergence option
