(** The [BENCH_IVM.json] contract, written once: one table of rows that
    {!validate} checks a snapshot against ([validate_snapshot bench]),
    {!compare_snapshots} compares two snapshots by ([bench_diff]) and
    {!degrade} breaks.

    A row's dotted [path] steps into each element of a [list[]],
    labelled by its ["name"], else by its index.  Its [need] is what the
    value must be ({!validate} only warns on an [Advisory] one).  Its
    [gate]: an overhead budget (percent, at most), a must-beat (strictly
    above), a scaling floor (positive and at least [floor] wherever
    [parallel.cores_available] covers [domains]), equality with a
    sibling field, or a minimum.  Its [compare] class against the
    baseline: relative drift beyond [tolerance]; any drop; a drop beyond
    [tolerance] in its share of itself plus the sibling; or worse than
    [timing_tolerance] when higher / lower (at most 0 counts as lower).
    [why] ends the message of a failed gate or compare class. *)

(** The layout version the emitter writes and the table describes. *)
val schema_version : int

type need =
  | Present
  | Text
  | Positive_int
  | Non_negative_int
  | Number
  | Positive
  | Non_empty_array
  | Advisory of need

type gate =
  | Budget of float
  | Must_beat of float
  | Scaling of { domains : int; floor : float }
  | Equal_to of string
  | At_least of int

type compare =
  | Drift
  | Never_lower
  | Share_of of string
  | Timing_higher
  | Timing_lower

type row = {
  path : string;
  need : need;
  gate : gate option;
  compare : compare option;
  why : string;
}

val rows : row list

type report = {
  errors : string list;
  warnings : string list;  (** failed advisory needs, skipped floors *)
  summary : string list;  (** gated values and array lengths *)
}

(** Every row against one snapshot; every failure is reported. *)
val validate : Json.t -> report

type options = {
  tolerance : float;  (** relative slack on deterministic fields *)
  timing_tolerance : float;
      (** allowed degradation factor on timing fields (e.g. 3.0 = 3x) *)
  check_timing : bool;
      (** count timing findings, budgets and floors as regressions *)
}

(** [{tolerance = 0.30; timing_tolerance = 3.0; check_timing = false}]:
    CI compares against a baseline from unknown hardware. *)
val default : options

type outcome = {
  regressions : string list;  (** violations that should fail the gate *)
  notes : string list;  (** informational drift (timing while unchecked) *)
  compared : int;  (** fields actually compared *)
}

(** Where the baseline meets a row's need: a current value that does not
    regresses; a gate regresses only where the baseline passes it; then
    the compare class applies. *)
val compare_snapshots : options -> baseline:Json.t -> current:Json.t -> outcome

(** Every gated or compared row pushed past its check, types kept, and
    every list whose elements nothing checks emptied. *)
val degrade : Json.t -> Json.t
