(** SPJ evaluation with predicate pushdown and join ordering.

    Evaluates pi_X(sigma_C(S1 x ... x Sp)) given already-qualified source
    relations.  Used both for complete re-evaluation and for every row of
    the differential truth table, where some sources are tiny delta
    relations — the [`Greedy] order then starts from the deltas, which is
    the join-order optimization the paper alludes to at the end of
    Section 5.3.

    {!run} and {!run_many} are one pipeline.  Each operand is first
    filtered by its local atoms ({!filter_local}); an operand that
    filters to empty ends the evaluation with the typed empty result,
    before any join.  One join step then adds the operands one at a time:
    the atoms every disjunct shares are applied as soon as their
    variables are bound, and their equality atoms between the joined
    prefix and the next operand are the join keys.  The last step
    applies what is left of the condition ({!filter}) and projects
    ({!project_to}). *)

open Relalg

type join_order =
  [ `Greedy  (** smallest (filtered) source first, preferring connected *)
  | `Declaration  (** join in declaration order (ablation baseline) *) ]

type join_impl =
  [ `Hash
  | `Nested_loop  (** ablation baseline *) ]

(** [run ~sources ~condition_dnf ~projection ()] evaluates the SPJ.

    [sources] are [(alias, relation)] pairs whose schemas are pairwise
    disjoint (alias-qualified).  [projection] maps output names to
    qualified attributes.

    Single-disjunct conditions get full pushdown: source-local atoms filter
    before joining, equality atoms become hash-join keys, and every atom is
    applied as soon as its variables are bound.  Multi-disjunct conditions
    push source-local {e implied} disjunctions down, join on the atoms
    common to all disjuncts in the same way, and apply the full DNF at the
    end.
    @raise Invalid_argument if [sources] is empty. *)
val run :
  ?order:join_order ->
  ?join_impl:join_impl ->
  sources:(string * Relation.t) list ->
  condition_dnf:Condition.Formula.dnf ->
  projection:(Attr.t * Attr.t) list ->
  unit ->
  Relation.t

(** [run_many ~variants ~condition_dnf ~projection ()] evaluates several
    SPJ instances that differ only in which relation instance each source
    denotes — the rows of the differential truth table.  Variants must list
    sources in the same order, which is also the join order; variants
    sharing a prefix of physically identical relations share the partial
    join of that prefix (the "re-using partial subexpressions"
    optimization of Section 5.3), whatever the number of disjuncts.
    Returns one result per variant, in order; variants that share every
    operand may share one result relation. *)
val run_many :
  ?join_impl:join_impl ->
  variants:(string * Relation.t) list list ->
  condition_dnf:Condition.Formula.dnf ->
  projection:(Attr.t * Attr.t) list ->
  unit ->
  Relation.t list

(** [filter dnf r] keeps the tuples satisfying the whole condition; every
    variable must be in [r]'s schema.  The pipeline's one filter; when
    some disjunct has no atom the condition is true, and [r] itself is
    returned. *)
val filter : Condition.Formula.dnf -> Relation.t -> Relation.t

(** [filter_local dnf r] applies the strongest filter implied by [dnf] that
    only mentions attributes of [r]'s schema — full local atoms for a
    single disjunct, the local implied disjunction otherwise (identity when
    some disjunct has no local atom).  The pipeline's push-down. *)
val filter_local : Condition.Formula.dnf -> Relation.t -> Relation.t

(** [project_to ~projection r] projects [(output name, source attr)] pairs
    with counter summation.  The pipeline's projection. *)
val project_to : projection:(Attr.t * Attr.t) list -> Relation.t -> Relation.t

(** [output_schema ~projection schemas] is the schema of a result: each
    output column takes the type of its source attribute in the first of
    [schemas] that has it.
    @raise Invalid_argument on an attribute that none of them has. *)
val output_schema :
  projection:(Attr.t * Attr.t) list -> Schema.t list -> Schema.t
