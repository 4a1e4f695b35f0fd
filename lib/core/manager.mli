(** View manager: registers views over a database and keeps them
    maintained across transactions.

    Two refresh modes, following the paper's Section 6 discussion:
    - [Immediate]: the view is updated as the last operation of every
      committing transaction (the paper's main setting);
    - [Deferred]: each commit's net effect on the view's relations is
      banked, netted per relation in place, and the bank is applied on
      demand ({!refresh}) — the "snapshot refresh" environment of Adiba
      and Lindsay [AL80] that the conclusion extends the approach to.
      Only a view over base relations that no view reads may be
      deferred. *)

open Relalg

type mode =
  | Immediate
  | Deferred

type t

(** [create ?domains ?policy ?durability db] makes a manager
    whose commits run view maintenance on a domain pool of the given
    size (clamped to ≥ 1).  Resolution order: explicit [domains], then
    the [IVM_DOMAINS] environment variable, then 1 (fully sequential).
    Pools are shared process-wide per size, so managers are cheap to
    create and never own worker domains.  Parallel commits are
    deterministic: every view's materialization, report (timings aside)
    and counters are identical to the same commit at [domains = 1].

    [policy] (default {!Resilience.Policy.Abort}) selects the failure
    semantics of {!commit}.  {!Resilience.Retry.default} bounds each
    rung of the quarantine self-heal (see {!heal}), and its backoff
    ladder is {!Resilience.Retry.default_schedule}.  The flight recorder's
    directory is process-wide: see {!Resilience.Flight.set_dir} and the
    [IVM_FLIGHT_DIR] environment variable.

    [durability] arms the write-ahead log: every commit appends one
    record to [dir/wal.bin] (group-committed per the config's fsync
    policy) and checkpoints snapshot the full engine state.  A manager
    opened over a directory holding earlier state must call {!recover}
    before committing.  Views must all be defined before the first
    logged commit. *)
val create :
  ?domains:int ->
  ?policy:Resilience.Policy.t ->
  ?durability:Durability.Config.t ->
  Database.t ->
  t

(** Sequence number of the last commit attempt (aborted ones included);
    0 before the first. *)
val commit_seq : t -> int

val database : t -> Database.t

(** Registration was refused by the static analyzer: the definition
    carries [Error]-level diagnostics (see {!Analysis.Analyzer}). *)
exception Rejected of Analysis.Diagnostic.t list

(** [define_view mgr ~name ?mode ?options expr] runs the static analyzer
    over the definition and, when it is clean, registers the view and
    materializes it immediately.  [keys] declares candidate keys of base
    relations, feeding both the analyzer's Section 5.2 key-retention check
    and {!View.duplicate_free}.  [force] registers the view even when the
    analyzer reports [Error]-level diagnostics (it never skips the
    analysis itself — warnings and hints remain available via
    {!View.lint}).
    @raise Rejected when the analyzer reports errors and [force] is unset.
    @raise Invalid_argument if the name is taken. *)
val define_view :
  t ->
  name:string ->
  ?mode:mode ->
  ?options:Maintenance.options ->
  ?force:bool ->
  ?keys:Query.Keys.t ->
  Query.Expr.t ->
  View.t

(** The registered view.
    @raise Not_found for unknown names. *)
val view : t -> string -> View.t

val view_names : t -> string list

(** The view's bank: for each relation, the net of every input the
    view has not yet seen — banked by a deferred view until its
    {!refresh} and by a quarantined view until its heal — most recently
    banked relation first; empty for a healthy immediate view.  Each
    delta is a copy, which later commits leave alone. *)
val pending : t -> string -> (string * Delta.t) list

(** [create_index mgr ~relation ~attrs] builds (and keeps maintained) a
    secondary index on a base relation; differential maintenance probes it
    instead of scanning the relation when joining small update sets
    against it.
    @raise Not_found on unknown relations or attributes. *)
val create_index : t -> relation:string -> attrs:Attr.t list -> unit

(** {2 Fault tolerance} *)

type quarantine = {
  error : string;  (** [Printexc.to_string] of the captured exception *)
  backtrace : string;
  since : int;  (** sequence number of the failing commit *)
  heal_failures : int;  (** exhausted self-heal rounds so far *)
  next_eligible : int;
      (** first commit sequence number at which the automatic
          commit-start heal may try again — the backoff ladder of
          {!Resilience.Retry.schedule}.  Explicit {!heal} and
          {!consistent} calls are not gated. *)
}

type view_health =
  | Healthy
  | Quarantined of quarantine
      (** Maintenance failed under the [Quarantine] policy: the
          materialization was rolled back to its last consistent state
          and is now stale; net effects are banked ({!pending}) until
          the view self-heals on its next access or commit. *)
  | Disabled of quarantine
      (** Self-heal exhausted its rounds; only {!repair} revives the
          view. *)

type view_outcome =
  | Rolled_back  (** maintained successfully, then undone by the abort *)
  | Faulted of { error : string; backtrace : string }
  | Unreached  (** a phase before this view's work failed *)

(** A commit failed under the [Abort] policy (or in a base-apply phase
    under [Quarantine]): the database and every materialization were
    rolled back to the exact pre-commit state.  [outcomes] lists every
    base view that was resolved for maintenance, then the failing
    dependent view when the [dependents] phase failed. *)
exception
  Commit_failed of {
    phase : string;
        (** [apply-deletes], [maintain], [apply-inserts], [recompute] or
            [dependents] *)
    error : string;
    backtrace : string;
    outcomes : (string * view_outcome) list;
  }

(** Per-view health, in definition order. *)
val health : t -> (string * view_health) list

(** @raise Not_found for unknown names. *)
val view_health : t -> string -> view_health

(** [heal mgr name] runs one self-heal round on a quarantined view: a
    retry budget ({!Resilience.Retry.default}) of differential drains of
    its banked deltas, then a retry budget of full recomputes — the paper's
    always-correct fallback.  Returns [true] when the view is healthy
    afterwards.  Healthy views return [true] immediately; disabled
    views return [false] without work.  Runs implicitly at the start of
    every {!commit} and inside {!consistent}. *)
val heal : t -> string -> bool

(** [repair mgr name] force-recomputes a quarantined or disabled view
    outside the instrumented (fault-injectable) maintenance path and
    marks it healthy; returns [false] if the view was already healthy. *)
val repair : t -> string -> bool

(** [commit mgr txn] nets the transaction, updates the base relations,
    maintains the immediate views the transaction touches and banks the
    net for deferred and quarantined views.  Views the net effect does
    not touch skip maintenance entirely (no report, no stats).

    Failure semantics by policy: under [Abort] any maintenance failure
    rolls everything back and raises {!Commit_failed}; under
    [Quarantine] a failing view is rolled back and quarantined while
    siblings and base updates commit (base-apply failures still abort);
    under [Unprotected] the first exception escapes mid-pipeline and
    may leave the database torn.
    @raise Transaction.Invalid on invalid transactions (nothing
    applied).
    @raise Commit_failed as above. *)
val commit : t -> Transaction.t -> Maintenance.report list

(** [refresh mgr name] brings a deferred view up to date differentially
    from its bank ({!pending}) and empties the bank; [None] for
    immediate views.  A failure leaves the bank as it was and, unless
    the policy is [Unprotected], the view too.
    @raise Failure when the manager must {!recover} first, empty bank
    or not. *)
val refresh : t -> string -> Maintenance.report option

val refresh_all : t -> Maintenance.report list

(** Cumulative per-view maintenance statistics since definition.

    The advisor fields accumulate on every commit that touches the view's
    relations — also when the strategy is forced to [Differential] or
    [Recompute] — so the cost model gathers calibration data regardless of
    policy (see {!Advisor.calibrate} for the fitted scales). *)
type stats = {
  commits : int;  (** transactions that touched the view's relations *)
  rows_evaluated : int;
  screened_out : int;
  screened_kept : int;
  tuples_inserted : int;  (** counted, into the view *)
  tuples_deleted : int;
  recomputations : int;  (** commits resolved to the recompute strategy *)
  self_maintained : int;
      (** commits resolved to the zero-base-read self-maintenance path *)
  maintenance_ns : int;  (** wall time spent maintaining this view *)
  advisor_decisions : int;  (** cost-model predictions recorded *)
  advisor_agreements : int;
      (** predictions matching the strategy actually used *)
  predicted_differential_cost : float;  (** cumulative, model units *)
  predicted_recompute_cost : float;
}

(** Statistics for one view.
    @raise Not_found for unknown names. *)
val stats : t -> string -> stats

val pp_stats : Format.formatter -> stats -> unit

(** Recompute-from-scratch comparison, counters included.  A
    quarantined view gets a self-heal round first; it (or a disabled
    view) reports [false] if still unhealthy afterwards.  A deferred
    view is refreshed first.
    @raise Failure as {!refresh} does, for a deferred view. *)
val consistent : t -> string -> bool

val all_consistent : t -> bool

(** {2 Durability}

    With {!create}'s [durability] armed, the manager maintains a
    write-ahead log and checkpoint in the configured directory (see
    {!Durability} for the on-disk format and [docs/recovery.md] for the
    full protocol).  One [Commit] record lands per commit attempt —
    the netted base deltas, the commit-start heal transitions, and
    per-view outcomes — and standalone records cover explicit
    {!heal}/{!repair}/{!refresh} calls.  Recovery restores the latest
    checkpoint and replays the log tail through the live maintenance
    machinery. *)

(** [true] when the manager was created with a durability config. *)
val durable : t -> bool

(** LSN of the last record appended to (or recovered from) the WAL;
    0 when not durable or nothing has been logged. *)
val wal_lsn : t -> int

(** Deep serializable image of the engine state (base relations,
    materializations, pending deltas, health, sequence numbers): a copy
    of what a checkpoint encodes (straight from the live relations),
    and the unit the crash-recovery oracle compares with
    {!Durability.State.diff}.  Per-view {!stats} are observability, not
    state, and are not captured. *)
val capture_state : t -> Durability.State.t

(** Snapshot the full state to the checkpoint file (atomically:
    tmp + fsync + rename) and truncate the WAL — the records it held
    are covered by the new checkpoint.
    @raise Invalid_argument when the manager is not durable.
    @raise Failure when recovery is still pending. *)
val checkpoint : t -> unit

(** What {!recover} did. *)
type recovery = {
  checkpoint_seq : int;  (** commit seq the restored checkpoint held *)
  checkpoint_lsn : int;  (** last WAL record the checkpoint covered *)
  records_replayed : int;  (** log-tail records re-run *)
  last_seq : int;  (** manager commit seq after replay *)
  last_lsn : int;  (** WAL LSN after replay *)
  torn_bytes : int;  (** torn-tail bytes truncated at open *)
}

(** [recover mgr] restores the checkpoint (if any) and replays the WAL
    tail through the live maintenance machinery — [Faulted] views are
    forced back into quarantine with their recorded error, cascades and
    banking re-emerge organically.  It then writes a closing checkpoint
    when the restored state differs from the checkpoint it read: a
    record was replayed, a view or base relation is not in the
    checkpoint, or there was none.  Otherwise it writes nothing, and
    only truncates a WAL still holding records the checkpoint covers
    (what a crash between checkpoint and truncation leaves).  Either
    way the directory ends as checkpoint plus empty log, so recovering
    twice (or recovering, crashing and recovering again) is idempotent.
    The [recover] provenance record carries the load, install, replay
    and rewrite times and whether the checkpoint was written.  Fault
    injection is disabled for the duration.  Every
    view must be defined (in the original order) before calling, and
    the manager should be configured like the one that wrote the log
    (replay of a [Faulted] outcome forces [Quarantine] semantics for
    that record regardless of the configured policy, so a policy
    mismatch cannot silently drop a committed record's deltas).
    Requires a durable manager that has not yet logged a commit of its
    own.
    @raise Invalid_argument when the manager is not durable or the
    checkpoint names unknown relations or views.
    @raise Durability.Incompatible_wal on a foreign or future-format
    file. *)
val recover : t -> recovery
