(** Bounded retry with seed-deterministic jittered backoff.

    Used by the quarantine self-heal path: a quarantined view gets
    [attempts] differential maintenance tries (transient faults — the
    kind {!Fault} injects — usually clear on retry), then falls back
    to full recompute, the paper's always-correct strategy. *)

type policy = {
  attempts : int;  (** total tries per operation, clamped to >= 1 *)
  backoff_ns : int;
      (** sleep before retry k is [backoff_ns * 2^(k-1)], +/- jitter *)
  jitter : float;  (** jitter fraction in [0, 1] of the computed sleep *)
  seed : int;  (** jitter determinism, same role as {!Fault}'s seed *)
}

val default : policy
(** 3 attempts, 100 us base backoff, 0.5 jitter, seed 1986. *)

(** Self-heal ladder schedule: how many failed heal rounds a
    quarantined view gets before it is disabled, and how long (in
    commits) it waits between rounds.  Replaces the old fixed
    3-rounds-heal-every-commit cliff: round [k]'s wait is
    [base * multiplier^(k-1)] commits, jittered by [backoff_jitter]
    deterministically in [(schedule_seed, k)].  The manager surfaces
    the resulting eligibility point in each quarantine's
    [next_eligible] field (see {!Ivm.Manager.view_health}). *)
type schedule = {
  rounds : int;  (** failed heal rounds before the view is disabled *)
  base : int;  (** commits to wait after the first failed round, >= 1 *)
  multiplier : float;  (** wait growth per further round *)
  backoff_jitter : float;  (** jitter fraction in [0, 1] of the wait *)
  schedule_seed : int;  (** jitter determinism *)
}

val default_schedule : schedule
(** 3 rounds, base 1, multiplier 2.0, no jitter, seed 1986 — after the
    first failure the view retries on the next commit (the historical
    behaviour), then waits 2 commits, then 4. *)

val heal_delay : schedule -> failures:int -> int
(** Commits to wait after the [failures]-th failed round, >= 1. *)

val run :
  ?label:string ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  policy ->
  (unit -> 'a) ->
  ('a, exn * Printexc.raw_backtrace) result
(** [run policy f] calls [f] up to [policy.attempts] times, sleeping
    between tries, and returns the first success or the {e last}
    failure.  Each retry increments [ivm_resilience_retries_total]
    (labelled with [label]) and calls [on_retry].  When the whole ladder
    exhausts, a flight-recorder dump ([retry-exhausted-<label>]) is
    written via {!Flight.dump} before the error is returned. *)
