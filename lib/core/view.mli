(** Materialized views: a compiled SPJ definition plus counted contents.

    The materialization carries the multiplicity counter of Section 5.2
    (alternative 1), so project views survive deletions.  A view is bound
    to the database it was defined over. *)

open Relalg

type t

(** [define ~name ~db expr] compiles [expr], optionally minimizes its join
    count ([minimize] defaults to [true]; see {!Query.Tableau}), and
    materializes the initial contents from [db].

    [keys] declares candidate keys of base relations; when the projection
    preserves a key of every source (Section 5.2, alternative 2) the view
    is flagged {!duplicate_free}.
    @raise Query.Spj.Compile_error on malformed definitions. *)
val define :
  ?minimize:bool ->
  ?keys:Query.Keys.t ->
  name:string ->
  db:Database.t ->
  Query.Expr.t ->
  t

val name : t -> string

(** The original definition, aggregation included. *)
val expr : t -> Query.Expr.t

(** The compiled SPJ form — of the {e inner} expression for aggregate
    views (what the delta machinery maintains). *)
val spj : t -> Query.Spj.t

(** Output schema: the grouped schema for aggregate views. *)
val schema : t -> Schema.t

(** Live contents — treat as read-only. *)
val contents : t -> Relation.t

(** The grouped runtime state when the definition is a {!Query.Expr.Group_by}. *)
val grouped : t -> Grouped.t option

(** The aggregate spec when the definition is grouped. *)
val aggregate : t -> Query.Aggregate.t option

(** [true] when the key-preservation analysis proved every multiplicity
    counter is 1 (Section 5.2, alternative 2): key-based maintenance
    without counters would suffice for this view. *)
val duplicate_free : t -> bool

(** Schema lookup for the base relations of the defining database. *)
val lookup : t -> string -> Schema.t

(** The compiled self-maintainability certificate (see {!Self_maintain}),
    when the definition plus the declared keys admit one. *)
val self_maintain : t -> Self_maintain.t option

(** Qualified schema of the source with the given alias. *)
val qualified_schema : t -> alias:string -> Schema.t

(** Irrelevance screen for a source, built on first use and cached. *)
val screen_for : t -> alias:string -> Irrelevance.screen

(** [lint v] runs the static analyzer (see {!Analysis.Analyzer}) over the
    compiled definition.  [keys] defaults to the candidate keys supplied at
    definition time. *)
val lint : ?keys:Query.Keys.t -> t -> Analysis.Diagnostic.t list

(** Apply a view delta to the contents.
    @raise Relation.Negative_count on an inconsistent delta. *)
val apply_delta : t -> Delta.t -> unit

(** Overwrite the contents by complete re-evaluation against [db] — in
    place, so aliases of the contents relation (e.g. a manager catalog
    feeding dependent views) stay valid.  Aggregate views re-evaluate
    the inner SPJ form and rebuild their group state. *)
val recompute : t -> Database.t -> unit

(** [checkpoint v] captures the full materialization state (contents
    plus, for aggregate views, the inner materialization) and returns
    the closure that restores it.  Record it in an undo journal before a
    destructive operation such as {!recompute}. *)
val checkpoint : t -> unit -> unit

(** [consistent v db] re-evaluates from scratch and compares with the
    maintained contents, counters included. *)
val consistent : t -> Database.t -> bool

val pp : Format.formatter -> t -> unit
