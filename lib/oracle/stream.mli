(** Concrete, replayable transaction streams for the oracle harness.

    A stream is pure data: the initial base relations (schema, generator
    recipe and exact tuples), the view definitions with their maintenance
    options, and the transaction list.  Everything the fuzzer does —
    generation, replay, shrinking, counterexample printing — goes through
    this one representation, so a failure reproduces from what is printed.

    Streams are closed under shrinking: {!filter_valid} drops operations
    that are invalid against the current state (duplicate inserts,
    deletions of absent tuples), so removing a transaction, an operation
    or an initial tuple always leaves a replayable stream. *)

open Relalg

type view_spec = {
  view_name : string;
  expr : Query.Expr.t;
  options : Ivm.Maintenance.options;
  keys : Query.Keys.t;
      (** declared candidate keys — generated streams declare each
          relation's full attribute list, which set semantics makes sound,
          so the [Self_maintain] arm gets real certificates to exercise *)
  mode : Ivm.Manager.mode;
      (** [Deferred] only for a view over base relations that no view
          reads, the views the manager may defer *)
}

type t = {
  seed : int;
  domains : int;  (** maintenance parallelism for the engine under test *)
  relations : (string * Schema.t * Workload.Generate.column list * Tuple.t list) list;
      (** name, schema, generator recipe, initial contents *)
  views : view_spec list;
  indexes : (string * Attr.t) list;
      (** join-key indexes (relation, attribute) built after the views *)
  transactions : Transaction.t list;
}

(** Counted size of the stream, for shrinker progress: transactions +
    operations + initial tuples + views + indexes. *)
val size : t -> int

(** [generate ~seed ~transactions ~domains ()] derives a full random
    scenario from the seed: the joinable R(A,B) / S(B,C) / T(C,D) family
    with random sizes, 2–4 views (a self-join of R among the templates)
    mixing forced and advisor-chosen strategies with screening on and
    off, and a transaction stream mixing plain insert/delete batches,
    overlapping multi-relation updates, correlated deletes,
    update-as-delete+insert pairs, no-op transactions and inserts
    provably irrelevant by Theorem 4.1.  Then it draws a subset of the
    join-key indexes R.B, S.B, S.C and T.C.  Last, each view over base
    relations that no view reads is [Deferred] with probability 1/4;
    drawing the indexes and modes last leaves the rest of the stream as
    it would be without them.

    With [~aggregates:true] the scenario additionally draws 1–2 GROUP BY
    views (COUNT/SUM/AVG/MIN/MAX over the same family, grouped and
    keyless) and a 1–2 view tower of dependents stacked on randomly
    chosen parents — selects, projects and aggregates over view names —
    so the lockstep check covers ring-valued payloads and views over
    views. *)
val generate :
  ?domains:int -> ?aggregates:bool -> seed:int -> transactions:int -> unit -> t

(** Views reference only base relations or earlier views, each name
    defined once, and a deferred view neither reads a view nor is read
    by one.  Generated streams always satisfy this; the shrinker uses it
    to reject candidates that would orphan a tower child. *)
val well_formed : t -> bool

(** Fresh database holding the initial contents. *)
val build_db : t -> Database.t

(** [filter_valid db txn] keeps the longest valid subsequence of [txn]
    against the current state of [db] (simulated, not applied): inserts of
    present tuples and deletes of absent tuples are dropped. *)
val filter_valid : Database.t -> Transaction.t -> Transaction.t

(** Pretty-print the whole stream as a replayable counterexample. *)
val pp : Format.formatter -> t -> unit

(** Break-free one-line tuple rendering, shared by the divergence
    reports. *)
val tuple_to_string : Tuple.t -> string
