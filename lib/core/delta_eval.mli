(** Differential re-evaluation of SPJ views (Section 5, Algorithm 5.1).

    Given the pre-transaction state of every source (with deletions already
    removed: r° = r - d_r) and the per-source update sets, the new view
    state is the union over the truth-table rows of Section 5.3.  Because
    mixed insert/delete tag combinations are ignored (Tag.join), each row
    contributes exactly two evaluations: one with every delta operand bound
    to its insert part (producing view insertions) and one with every delta
    operand bound to its delete part (producing view deletions).  A QCheck
    property asserts this pair form agrees with the literal tagged
    evaluator {!Tagged_eval}.

    Rows whose operands include an empty relation are skipped without
    evaluation; with [~reuse:true] the surviving rows share partial join
    prefixes through {!Query.Planner.run_many}. *)

open Relalg

type source_input = {
  alias : string;
  old_part : Relation.t;
      (** qualified schema; pre-state minus deletions for modified sources *)
  delta : Delta.t option;  (** qualified; [None] for unmodified sources *)
}

type result = {
  delta : Delta.t;  (** view delta over the output schema *)
  rows_evaluated : int;  (** truth-table rows actually evaluated *)
}

(** [eval ~spj ~inputs ()] computes the view delta.  [inputs] must cover
    every source alias of [spj].

    - [order] (default [`Greedy]) picks the join order per row; greedy
      starts from the smallest operand, typically a delta.
    - [reuse] (default [false]) shares partial joins across rows.
    - [pool] enables intra-view parallelism: each row whose largest
      operand has at least [shard_min] distinct tuples (default
      {!default_shard_min}) has that operand hash-partitioned into one
      shard per pool domain via {!Relalg.Relation.shard}; the shard
      evaluations run on the pool and their results are unioned into
      the row's delta.  SPJ evaluation is linear in any one operand
      over multiset union, so the merged delta — materialization,
      counters and [rows_evaluated] alike — is bit-identical to the
      inline result.  Rows below the threshold run inline on the
      caller.  Ignored with [~reuse:true] (shared-prefix batches are
      evaluated as one unit).

    Without [reuse], every row goes through one dispatch: each row's
    ["row"] fault point fires, in row order, before any row is evaluated
    or fanned out; then the sharded rows are submitted and the others
    run inline.  A size-1 pool, or none, is its inline case: it shards
    nothing.
    @raise Invalid_argument if an alias is missing. *)
val eval :
  ?order:Query.Planner.join_order ->
  ?join_impl:Query.Planner.join_impl ->
  ?reuse:bool ->
  ?pool:Exec.Pool.t ->
  ?shard_min:int ->
  spj:Query.Spj.t ->
  inputs:source_input list ->
  unit ->
  result

val default_shard_min : int
(** Minimum distinct-tuple count of a row's largest operand before the
    row is sharded across the pool (2048: below this, submission and
    shard-construction overhead outweigh the parallel win). *)
