(** Runtime side of the self-maintainability certificate.

    {!Analysis.Check_self_maintain} proves, per (relation, insert/delete)
    pair, that a view's delta is computable from the update set plus the
    current materialization.  This module compiles the proof into an
    executable plan and evaluates it with {e zero base-relation reads}:

    - single-source views apply [pi_X(sigma_C({t}))] to each update tuple
      (the condition is evaluated by substitution, the projection by
      position);
    - multi-source deletions recover the deleted relation's candidate key
      off each view tuple (projected outputs and pinned constants) and
      drain every matching view tuple at its full multiplicity — all
      derivations of a view tuple share the single base tuple carrying
      that key, so they die together.

    The keyed drain probes an index on the view's contents keyed by the
    signature's output positions ({!Relalg.Relation.index}).  The index
    belongs to the contents' store, so every write to the view keeps it
    in step — recompute, restore and rollback included, since they all
    write in place.

    The zero-reads claim is enforced, not assumed: {!Maintenance} runs
    {!delta} under {!Relalg.Database.probe_reads} and raises
    {!Base_read_detected} on any catalog access, so a wrong proof fails
    loudly instead of silently corrupting the view. *)

open Relalg

type t

exception Base_read_detected of { view : string; reads : int }

(** [of_spj ~name ~keys ~lookup spj] compiles the certificate, or [None]
    when no update class is provably self-maintainable.  Declared [keys]
    are trusted (as in {!Query.Keys}). *)
val of_spj :
  name:string ->
  keys:Query.Keys.t ->
  lookup:(string -> Schema.t) ->
  Query.Spj.t ->
  t option

(** Relations whose insertions / deletions the certificate covers. *)
val insertable : t -> string list

val deletable : t -> string list

(** [applies t ~net] holds when the certificate covers every update set of
    [net] touching the view's sources — and at least one does, so there is
    actual maintenance work the strategy can claim. *)
val applies : t -> net:Transaction.net -> bool

(** [delta t ~contents ~net] computes the view delta from the update sets
    and the current materialization alone.  Precondition: [applies]; update
    sets of uncovered relations are ignored. *)
val delta : t -> contents:Relation.t -> net:Transaction.net -> Delta.t
