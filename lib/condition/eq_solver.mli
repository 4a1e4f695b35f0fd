(** Satisfiability of equality/disequality conjunctions over strings.

    The Rosenkrantz–Hunt graph handles the integer fragment; conjunctions of
    [=] and [<>] atoms over string-typed attributes are decided here with a
    union-find.  This is complete for infinite string domains: merge all
    equalities, fail if a class acquires two distinct constants or a
    disequality connects a class to itself, otherwise assign fresh distinct
    values to unconstrained classes. *)

type verdict =
  | Sat
  | Unsat
  | Unknown  (** an ordering comparator on strings was present *)

(** Decide a conjunction of string-typed atoms.

    Equalities and disequalities are decided exactly.  Ordering atoms are
    handled with an order graph over the equivalence classes: a cycle
    containing a strict edge proves [Unsat], and so does a [<>] between
    two nodes that a cycle of [<=] edges forces equal (this uses only the
    axioms of total orders, so it is exact); otherwise the verdict is
    [Sat] when no ordering atom touches a constant, and [Unknown] when one
    does (the lexicographic order on strings has gaps — e.g. nothing lies
    strictly between ["a"] and ["a\x00"] — so constant-adjacent orderings
    cannot be proven satisfiable without a realizability argument). *)
val solve : Formula.atom list -> verdict
