(** Maintenance of one view, Algorithm 5.1's per-view step: screen and
    evaluate ({!view_delta}), bring the view up to date under one
    strategy ([maintain_*]), and install either half of a net effect in
    the base relations ({!apply_deletes}, {!apply_inserts}).  The commit
    order (net effect, base deletions, per-view steps, base insertions,
    recomputes) lives in [Manager.commit]. *)

open Relalg

type strategy =
  | Differential
  | Recompute  (** the paper's baseline: re-evaluate from scratch *)
  | Adaptive
      (** choose per transaction with {!Advisor}: differential for small
          update sets, recomputation past the crossover of E9,
          self-maintenance when the certificate covers the transaction *)
  | Self_maintain
      (** compute the delta from the update sets plus the current
          materialization with zero base-relation reads (probe-enforced),
          whenever the view's {!Self_maintain} certificate covers the
          transaction; falls back to [Differential] when it does not *)

type options = {
  strategy : strategy;
  screen : bool;  (** filter irrelevant updates first (Algorithm 4.1) *)
  reuse : bool;  (** share partial joins across truth-table rows *)
  order : Query.Planner.join_order;
  join_impl : Query.Planner.join_impl;
  shard_min : int;
      (** hash-shard a truth-table row's largest operand across the
          pool when it has at least this many distinct tuples (see
          {!Delta_eval.eval}); only takes effect when maintenance runs
          with a pool of size > 1 *)
}

(** Differential, with screening, greedy join order, hash joins, no row
    reuse, sharding past {!Delta_eval.default_shard_min} tuples. *)
val default_options : options

(** [resolve_with_decision options view ~db ~net] resolves [Adaptive]
    and [Self_maintain] into a concrete strategy for this transaction
    ([Self_maintain] survives only when the certificate applies).  It
    always evaluates {!Advisor.decide} and returns the decision, so
    callers can record the prediction against the measured cost even
    when the strategy is forced. *)
val resolve_with_decision :
  options ->
  View.t ->
  db:Database.t ->
  net:Transaction.net ->
  strategy * Advisor.decision

val strategy_name : strategy -> string

(** The calibration arm a concrete strategy executes ([Adaptive] has
    already been resolved by the time a sample is taken). *)
val arm_of_strategy : strategy -> Advisor.arm

(** Why a requested [Self_maintain] cannot run on this transaction —
    either the view has no certificate or the certificate does not cover
    the update sets; [None] when self-maintenance applies.  Feeds the
    provenance [fallback] field. *)
val self_maintain_fallback : View.t -> net:Transaction.net -> string option

type report = {
  view_name : string;
  strategy_used : strategy;
      (** always [Differential], [Recompute] or [Self_maintain] *)
  screened_out : int;  (** update tuples proven irrelevant *)
  screened_kept : int;
  screen_rules : (string * int) list;
      (** dropped-tuple counts per screening rule that fired
          ({!Irrelevance.rule_id} strings, plus ["IVM051:keyed-drain"] for
          self-maintained deletions); empty when nothing was screened *)
  rows_evaluated : int;
  delta_inserts : int;  (** counted tuples inserted into the view *)
  delta_deletes : int;
  groups_touched : int;
      (** aggregate views: distinct groups whose accumulators moved *)
  rescans : int;
      (** aggregate views: groups rescanned because a MIN/MAX extremum's
          support drained to zero *)
  screen_ns : int;  (** wall time in Theorem 4.1 screening *)
  eval_ns : int;  (** wall time evaluating truth-table rows *)
  apply_ns : int;  (** wall time installing the view delta *)
  total_ns : int;  (** whole maintenance of this view, including apply *)
  advisor : Advisor.decision option;
      (** the cost-model prediction for this transaction, when it ran *)
  fallback : string option;
      (** set when a requested [Self_maintain] degraded to the strategy
          actually used ({!self_maintain_fallback}) *)
  delta : Delta.t option;
      (** the view delta actually applied to the materialization (outer
          delta for aggregate views; present for recomputes only when
          requested with [want_delta]).  The manager feeds it to
          dependent views as their input transaction. *)
}

(** A zeroed report (timing fields included). *)
val empty_report : view_name:string -> strategy_used:strategy -> report

val pp_report : Format.formatter -> report -> unit

(** [maintain_differential ~options ~decision view ~db ~net] runs
    {!view_delta} and applies the result to the view, returning the report
    with [apply_ns]/[total_ns] filled, metrics recorded, and — when
    [decision] is given — an {!Advisor.record} calibration sample taken.
    [db] must be in the deletions-applied intermediate state.  With
    [journal], every counter update on the view's materialization is
    recorded for rollback. *)
val maintain_differential :
  options:options ->
  ?pool:Exec.Pool.t ->
  ?journal:Resilience.Journal.t ->
  ?fallback:string ->
  decision:Advisor.decision option ->
  View.t ->
  db:Database.t ->
  net:Transaction.net ->
  report

(** Self-maintenance counterpart of {!maintain_differential}: computes the
    view delta from [net] plus the current materialization under the
    {!Database.probe_reads} probe and applies it.  No [db] argument — the
    whole point.  Precondition: the view's certificate covers [net]
    (callers resolve with {!resolve_with_decision} first).
    @raise Self_maintain.Base_read_detected when the evaluation touched the
    base-relation catalog after all (a certificate bug; fails the commit
    loudly instead of corrupting the view). *)
val maintain_self_maintain :
  ?journal:Resilience.Journal.t ->
  decision:Advisor.decision option ->
  View.t ->
  net:Transaction.net ->
  report

(** Recompute counterpart of {!maintain_differential}; [db] must be in the
    final (insertions-applied) state.  With [journal], a checkpoint of
    the materialization is recorded for rollback.  With [want_delta],
    the pre-state is copied and the report carries the
    {!Delta.between} of the recompute, for dependent views. *)
val maintain_recompute :
  ?journal:Resilience.Journal.t ->
  ?want_delta:bool ->
  decision:Advisor.decision option ->
  View.t ->
  db:Database.t ->
  report

(** [view_delta ?options ?pool view ~db ~net] computes the view delta.
    [db] must be in the deletions-applied intermediate state and [net] is
    the transaction's net effect.  Does not modify anything.  [pool]
    parallelizes the screening of large update sets
    ({!Irrelevance.screen_delta}). *)
val view_delta :
  ?options:options ->
  ?pool:Exec.Pool.t ->
  View.t ->
  db:Database.t ->
  net:Transaction.net ->
  Delta.t * report

(** [apply_deletes db net] / [apply_inserts db net] install one half of the
    net effect.  With [journal], every counter update is recorded for
    rollback. *)
val apply_deletes :
  ?journal:Resilience.Journal.t -> Database.t -> Transaction.net -> unit

val apply_inserts :
  ?journal:Resilience.Journal.t -> Database.t -> Transaction.net -> unit
