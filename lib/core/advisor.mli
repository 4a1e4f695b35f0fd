(** Adaptive choice among differential, complete re-evaluation, and
    certified self-maintenance.

    The paper's conclusion leaves open "under what circumstances
    differential re-evaluation is more efficient than complete
    re-evaluation".  Experiment E9 locates the crossover empirically; this
    module turns it into a runtime policy: a cheap cost model compares the
    expected work of the strategies per transaction, so churn-heavy
    transactions fall back to recomputation automatically and certified
    transactions take the zero-base-read path.

    The model is deliberately simple (costs are linear in the sizes a
    hash-join engine touches):

    - differential: every truth-table row evaluation scans the update sets
      and probes the old parts it joins with; bounded by
      [rows * (delta_total + sum of old parts actually joined)], which we
      approximate with [2^k * (delta_total + (p-1) * avg_source)] damped by
      the observation that most rows short-circuit on empty operands;
    - recompute: scans every source and rebuilds the view:
      [sum sources + |view|];
    - self-maintain (only when the view's {!Self_maintain} certificate
      covers the transaction): each update tuple is touched twice — the
      substituted condition or the key probe, then the drain/apply —
      [2 * delta_total + 1].

    The constants were calibrated against E9/E21 on this engine; see
    EXPERIMENTS.md.  The decision is exposed so callers can log it. *)

(** A maintenance arm the advisor can pick.  Mirrors the concrete
    {!Maintenance.strategy} values (that type also carries [Adaptive],
    which is what invokes this module, so it cannot be reused here). *)
type arm =
  | Differential
  | Recompute
  | Self_maintain

val arm_name : arm -> string

type decision = {
  differential_cost : float;  (** model estimate, abstract units *)
  recompute_cost : float;
  self_maintain_cost : float option;
      (** [None] when the view has no certificate or it does not cover
          this transaction's update sets *)
  choose : arm;  (** cheapest applicable arm *)
}

(** [decide view ~db ~net] evaluates the cost model for one transaction.
    [db] may be in pre- or deletions-applied state (only cardinalities are
    read). *)
val decide : View.t -> db:Relalg.Database.t -> net:Relalg.Transaction.net -> decision

val pp_decision : Format.formatter -> decision -> unit

(** {2 Calibration}

    The model predicts abstract cost units; the pipeline measures wall
    time.  Recording every (prediction, measured ns) pair — on {e every}
    commit, not only when the strategy is [Adaptive] — accumulates the
    data needed to validate and recalibrate the model: a least-squares
    scale (ns per cost unit) per strategy, and the mean relative error of
    the scaled prediction.  The store is a bounded in-memory ring
    ({!sample_capacity} newest samples, in unboxed columns allocated
    whole by the first {!record}, so its footprint does not grow with
    the number of commits); {!record} also feeds the
    [ivm_advisor_*] metrics in {!Obs.Metrics} when telemetry is on. *)

type sample = {
  view : string;
  decision : decision;
  used : arm;  (** strategy actually executed *)
  actual_ns : int;  (** measured wall time of the maintenance *)
}

val sample_capacity : int

(** [record ~view ~used ~actual_ns decision] appends one calibration
    sample (oldest dropped past capacity). *)
val record : view:string -> used:arm -> actual_ns:int -> decision -> unit

(** Newest-last; at most {!sample_capacity}. *)
val samples : unit -> sample list

val reset_samples : unit -> unit

type calibration = {
  n_samples : int;
  agreements : int;
      (** samples where the model's choice matches the strategy used *)
  scale_differential : float option;
      (** ns per differential cost unit: [sum actual / sum predicted] over
          samples that ran differentially; [None] without such samples *)
  scale_recompute : float option;
  scale_self_maintain : float option;
  mean_abs_rel_error : float option;
      (** mean of [|scaled prediction - actual| / actual] over all samples
          whose strategy has a scale *)
}

val calibrate : unit -> calibration
val pp_calibration : Format.formatter -> calibration -> unit

(** {2 JSON export} — used by [ivm_cli stats --json] and the bench
    snapshot ([BENCH_IVM.json]). *)

(** The newest [limit] samples (all, by default) as a JSON array of
    [{view, predicted_differential, predicted_recompute,
    predicted_self_maintain, chose, used, actual_ns}]
    objects. *)
val samples_json : ?limit:int -> unit -> Obs.Json.t

(** A fixed-size ([k], default 64) uniform cross-section of the recorded
    samples via reservoir sampling (Algorithm R) with a private
    deterministic generator ([seed], default 1986): the same workload
    always exports the same pairs, and the snapshot stays bounded no
    matter how long the run. *)
val reservoir_json : ?k:int -> ?seed:int -> unit -> Obs.Json.t

val calibration_json : unit -> Obs.Json.t
