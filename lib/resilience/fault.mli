(** Seed-deterministic probabilistic fault injection.

    A fault point is a named call site at an instrumented phase
    boundary of the maintenance pipeline ([screen], [eval], [row],
    [apply], [recompute], [task]).  When injection is active, the k-th
    execution of point [p] under seed [s] raises {!Injected} with
    probability [rate], decided by hashing [(s, p, k)] — so a given
    seed and rate produce the same fault sequence on every run, which
    is what lets the oracle fuzzer replay and shrink failing streams.

    Injection is off by default; {!point} then costs one atomic load
    and a branch.  Programs activate it explicitly with {!configure}.
    Per-point occurrence counters are process-wide and reset by
    {!configure}, so replays must reconfigure before each run. *)

exception Injected of string
(** Raised by {!point}; the payload is the point name. *)

val configure :
  ?seed:int ->
  ?only:string list ->
  ?at:(string * int list) list ->
  rate:float ->
  unit ->
  unit
(** Activate injection (resetting all occurrence counters).  [rate] is
    clamped to [0, 1]; a rate of 0 deactivates unless [at] is given.
    [only] restricts injection to the named points (default: all
    points).  [at] takes points out of the random draw: a point [p]
    with [(p, ks)] in [at] raises at exactly its executions numbered in
    [ks], counting from 0, and at no other.  Default seed 1986. *)

val disable : unit -> unit
(** Deactivate injection.  Counters are left as-is; {!configure}
    resets them. *)

val active : unit -> bool
val rate : unit -> float

val point : string -> unit
(** Possibly raise {!Injected} at this fault point.  No-op when
    injection is inactive. *)

val injected : unit -> int
(** Number of faults raised since the last {!configure}. *)

val hash_unit : seed:int -> string -> int -> float
(** The deterministic hash used by {!point}, in [0, 1); exposed for
    {!Retry} jitter and for tests. *)
