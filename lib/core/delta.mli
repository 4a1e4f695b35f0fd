(** Update sets: the net effect of a transaction on one relation.

    A delta pairs the set of inserted tuples with the set of deleted tuples
    (Section 3: [T(r) = r U i_r - d_r] with [r], [i_r], [d_r] mutually
    disjoint).  Deltas of derived relations are counted, matching the
    redefined operators of Section 5.2; so are deltas of base relations,
    whose counts are one unless the relation holds a tuple more than once
    (a delete then takes one copy). *)

open Relalg

type t = {
  inserts : Relation.t;
  deletes : Relation.t;
}

val empty : Schema.t -> t
val is_empty : t -> bool

(** Total counted size (inserts + deletes). *)
val size : t -> int

(** [of_lists schema (inserts, deletes)] builds a unit-count delta. *)
val of_lists : Schema.t -> Tuple.t list * Tuple.t list -> t

val copy : t -> t

(** [reschema d s] renames both parts in O(1) (see {!Relation.reschema}). *)
val reschema : t -> Schema.t -> t

(** [between ~before ~after] is the counted delta that takes [before] to
    [after]: applying it to [before] yields [after].  Used to extract
    the view delta out of a recomputation so dependent views can be
    maintained differentially from it. *)
val between : before:Relation.t -> after:Relation.t -> t

(** [apply d r] applies the delta to a counted relation: insert counts are
    added, delete counts subtracted.
    @raise Relation.Negative_count when deleting more than present — an
    inconsistency for view maintenance. *)
val apply : t -> Relation.t -> unit

(** [bank ~into d] adds [d] to [into] in place, in O(|d|): each of
    [d]'s insert counts first cancels against [into]'s delete count of
    the same tuple and lands in [into]'s inserts only beyond it, and
    deletes likewise.  Applying [into] afterwards has the effect of
    applying the old [into] and then [d], and a tuple that [into] held in
    at most one part stays in at most one.  This is how a view banks the
    net effects of a run of transactions it has not yet seen ([d] and
    [into] must not share storage). *)
val bank : into:t -> t -> unit

(** [compose ~first ~second] is a fresh [first] with [second] banked into
    it ({!bank}): the net effect of running [first] then [second].
    Neither argument changes. *)
val compose : first:t -> second:t -> t

val pp : Format.formatter -> t -> unit
