(** Greedy stream minimization.

    Given a failing stream (one some predicate — normally "{!Harness.run}
    reports a divergence" — holds for), {!minimize} searches for a smaller
    stream that still fails, in decreasing order of payoff:

    + drop whole transactions (binary chunks first, then one by one);
    + drop individual operations inside the remaining transactions;
    + drop whole views (a counterexample rarely needs more than one);
    + drop indexes;
    + drop initial tuples from the base relations;
    + shrink integer values toward zero.

    Passes repeat until a full round makes no progress.  Every candidate
    is replayable because {!Stream.filter_valid} makes streams closed
    under element removal, so the predicate is always well-defined. *)

(** [minimize fails stream] returns a (weakly) smaller stream on which
    [fails] still holds; [fails stream] must be [true] on entry.
    [max_rounds] (default 10) bounds the pass iterations. *)
val minimize : ?max_rounds:int -> (Stream.t -> bool) -> Stream.t -> Stream.t
