(** Counted relations.

    A relation maps each tuple to a strictly positive multiplicity counter.
    This implements alternative (1) of Section 5.2 of the paper: view
    materializations carry a counter recording how many operand tuples
    contribute to each visible tuple, which restores the distributivity of
    projection over difference.  Base relations are plain sets, i.e. counted
    relations in which every counter equals one (enforced by
    {!module:Transaction}). *)

type t

exception Negative_count of Tuple.t

val create : ?size_hint:int -> Schema.t -> t
val schema : t -> Schema.t

(** Number of distinct tuples. *)
val cardinal : t -> int

(** Sum of all counters. *)
val total : t -> int

val is_empty : t -> bool
val mem : t -> Tuple.t -> bool

(** [count r t] is the multiplicity of [t] (0 when absent). *)
val count : t -> Tuple.t -> int

(** [update r t delta] adds [delta] to the counter of [t], removing the
    tuple when the counter reaches zero.
    @raise Negative_count if the counter would become negative. *)
val update : t -> Tuple.t -> int -> unit

(** [add r t] is [update r t 1]; [add ~count r t] uses a larger increment.
    @raise Invalid_argument if [count <= 0]. *)
val add : ?count:int -> t -> Tuple.t -> unit

(** [remove r t] is [update r t (-1)].
    @raise Negative_count if [t] is absent. *)
val remove : t -> Tuple.t -> unit

val iter : (Tuple.t -> int -> unit) -> t -> unit
val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** Distinct tuples with their counts, in unspecified order. *)
val elements : t -> (Tuple.t * int) list

(** [iter_sorted f r] calls [f tuple count] for every distinct tuple of
    [r] in {!Tuple.compare} order, whatever the hash table's history.
    The order is computed once per call: when every tuple has the
    schema's nonzero arity and an [Int] first column, by a radix sort
    of that column with {!Tuple.compare} only inside runs of equal keys
    (linear time on near-unique keys); otherwise by a comparison
    sort. *)
val iter_sorted : (Tuple.t -> int -> unit) -> t -> unit

(** Distinct tuples with their counts, in {!iter_sorted} order (stable
    for printing and comparison in tests). *)
val sorted_elements : t -> (Tuple.t * int) list

(** [of_tuples schema tuples] builds a relation with counter increments of
    one per listed tuple (duplicates accumulate). Type-checks every tuple. *)
val of_tuples : Schema.t -> Tuple.t list -> t

val of_counted : Schema.t -> (Tuple.t * int) list -> t
val copy : t -> t

(** [reschema r s] is [r] viewed under schema [s] (same arity, same value
    types positionally — checked on attribute types only when both schemas
    are non-empty).  O(1): storage is shared, so the result must be treated
    as read-only while [r] is live.
    @raise Invalid_argument on arity mismatch. *)
val reschema : t -> Schema.t -> t

(** [shard ~n r] partitions [r] by tuple hash into [n] fresh relations
    ([n] clamped to at least 1): every counted tuple lands in exactly
    one shard, counters preserved, so {!union_into}-ing all shards into
    an empty relation rebuilds [r].  The placement depends only on the
    tuple's hash, never on iteration order or shard history, which is
    what makes shard-wise evaluation deterministic.  SPJ operators are
    linear over multiset union, so evaluating a query once per shard of
    one operand and unioning the results equals evaluating it against
    the whole operand — the identity behind intra-view parallelism in
    [Delta_eval]. *)
val shard : n:int -> t -> t array

(** [union_into ~into r] adds every counted tuple of [r] into [into]. *)
val union_into : into:t -> t -> unit

(** [assign ~into src] overwrites [into]'s contents with those of [src],
    in place, expressed as counter updates so [into]'s indexes stay in
    sync and aliases of [into]'s store remain valid.  Schemas must agree in
    arity.  Used by in-place view recompute/restore, where the
    materialization object is registered in a catalog and must not be
    replaced wholesale. *)
val assign : into:t -> src:t -> unit

(** [diff_into ~into r] subtracts every counted tuple of [r] from [into].
    @raise Negative_count if some counter would go negative. *)
val diff_into : into:t -> t -> unit

val union : t -> t -> t

(** Multiset difference.
    @raise Negative_count when the second operand is not contained in the
    first — for view maintenance this signals an inconsistent delta. *)
val diff : t -> t -> t

(** Counter-wise equality (schemas must match too). *)
val equal : t -> t -> bool

(** [set_equal a b] ignores counters and compares tuple sets only. *)
val set_equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Render as an ASCII table with a header row; counters are shown in a
    [#] column when some counter exceeds one or [counts] is [true]. *)
val to_ascii : ?counts:bool -> t -> string

(** {1 Secondary indexes}

    A store can carry hash indexes, each keyed by the tuple columns at a
    list of positions.  An index belongs to its store: {!update} (and so
    every operation that writes through it) keeps it in step, the
    {!reschema} aliases of the store find it, and it becomes garbage
    with the store.  {!create}, {!copy} and {!shard} start without
    indexes.  [Ops.hash_join] probes an index on a side's join columns
    instead of hashing that side; that turns the repeated
    delta-against-base joins of differential maintenance from full scans
    of the base relation into per-delta-tuple probes (ablation E15). *)

type index

(** [index r ~positions] is [r]'s index on the columns at [positions]
    (order-sensitive), built from [r]'s tuples if it has none yet.
    @raise Invalid_argument if a position is outside the schema. *)
val index : t -> positions:int array -> index

(** [find_index r ~positions] is [r]'s index on [positions], if built. *)
val find_index : t -> positions:int array -> index option

(** [drop_index r ~positions] removes that index from the store (a no-op
    without one); updates stop maintaining it. *)
val drop_index : t -> positions:int array -> unit

(** [iter_matches index key f] calls [f tuple count] for every stored
    tuple whose key columns equal [key]. *)
val iter_matches : index -> Tuple.t -> (Tuple.t -> int -> unit) -> unit

(** Number of distinct keys in the index. *)
val key_count : index -> int
