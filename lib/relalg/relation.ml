module Tuple_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* The multiplicity counter is the COUNT instance of the payload-ring
   family ([Ring.Count]); routing the arithmetic through it keeps the
   counted relation a special case of the ring-valued map rather than a
   parallel code path.  The only operation outside the ring signature is
   the positivity check in [update]: counted relations additionally
   maintain the paper's invariant that stored multiplicities are
   strictly positive. *)
module R = Ring.Count

(* A secondary index: key (the tuple's columns at [positions]) -> the
   tuples carrying it, with their counters. *)
type index = {
  positions : int array;
  buckets : int Tuple_table.t Tuple_table.t;
}

type t = {
  schema : Schema.t;
  table : int Tuple_table.t;
  indexes : index list ref;  (* shared by [reschema] aliases *)
  mutable total : int;
}

exception Negative_count of Tuple.t

let create ?(size_hint = 64) schema =
  { schema; table = Tuple_table.create size_hint; indexes = ref []; total = 0 }

let schema r = r.schema
let cardinal r = Tuple_table.length r.table
let total r = r.total
let is_empty r = cardinal r = 0
let count r t = Option.value ~default:R.zero (Tuple_table.find_opt r.table t)
let mem r t = Tuple_table.mem r.table t

(* Set [t]'s counter in [index] to [c], the store's new counter. *)
let index_set index t c =
  let key = Tuple.project index.positions t in
  match Tuple_table.find_opt index.buckets key with
  | Some bucket ->
    if R.is_zero c then begin
      Tuple_table.remove bucket t;
      if Tuple_table.length bucket = 0 then Tuple_table.remove index.buckets key
    end
    else Tuple_table.replace bucket t c
  | None ->
    if not (R.is_zero c) then begin
      let bucket = Tuple_table.create 4 in
      Tuple_table.replace bucket t c;
      Tuple_table.replace index.buckets key bucket
    end

let update r t delta =
  if not (R.is_zero delta) then begin
    let current = count r t in
    let updated = R.add current delta in
    if updated < 0 then raise (Negative_count t)
    else if R.is_zero updated then Tuple_table.remove r.table t
    else Tuple_table.replace r.table t updated;
    r.total <- R.add r.total delta;
    match !(r.indexes) with
    | [] -> ()
    | indexes -> List.iter (fun index -> index_set index t updated) indexes
  end

let add ?(count = 1) r t =
  if count <= 0 then invalid_arg "Relation.add: count must be positive";
  update r t count

let remove r t = update r t (-1)
let iter f r = Tuple_table.iter f r.table
let fold f r init = Tuple_table.fold f r.table init
let elements r = fold (fun t c acc -> (t, c) :: acc) r []

(* Relations this small take the comparison sort: each radix pass
   costs a 257-slot count table besides its two sweeps. *)
let radix_cutoff = 64

(* Stable LSD radix sort of [order] (indexes into [keys]) by
   [keys.(i) - lo], which lies in [0, range]: 8 bits a pass, only as
   many passes as [range] needs. *)
let radix_sort keys ~lo ~range order =
  let n = Array.length order in
  let src = ref order and dst = ref (Array.make n 0) in
  let starts = Array.make 257 0 in
  let shift = ref 0 in
  while !shift < Sys.int_size && range lsr !shift > 0 do
    let from = !src and into = !dst and shift' = !shift in
    Array.fill starts 0 257 0;
    for j = 0 to n - 1 do
      let d = (((keys.(from.(j)) - lo) lsr shift') land 0xff) + 1 in
      starts.(d) <- starts.(d) + 1
    done;
    for d = 1 to 256 do
      starts.(d) <- starts.(d) + starts.(d - 1)
    done;
    for j = 0 to n - 1 do
      let i = from.(j) in
      let d = ((keys.(i) - lo) lsr shift') land 0xff in
      into.(starts.(d)) <- i;
      starts.(d) <- starts.(d) + 1
    done;
    src := into;
    dst := from;
    shift := shift' + 8
  done;
  if !src != order then Array.blit !src 0 order 0 n

(* The one ordering routine behind every sorted view of a relation:
   its tuples and counters in parallel arrays, and the permutation that
   lists them in [Tuple.compare] order.  When every tuple has the
   schema's (nonzero) arity and an [Int] first column -- every relation
   over an Int-keyed schema -- that column is radix-sorted and
   [Tuple.compare] only orders runs of equal keys, which is linear on
   the usual near-unique keys.  Anything else (a string or mixed first
   column, arity 0, a tuple of another arity, a key range wider than
   [max_int], a small relation) takes the comparison sort.  Distinct
   tuples never compare equal, so both paths give the same order. *)
let sorted_order r =
  let n = cardinal r in
  let tuples = Array.make n [||] and counts = Array.make n 0 in
  let next = ref 0 in
  iter
    (fun t c ->
      tuples.(!next) <- t;
      counts.(!next) <- c;
      incr next)
    r;
  (* The keys are read in a loop of their own: its loads do not depend
     on each other, so their cache misses overlap, which they do not
     while the hash table is walked. *)
  let keys = Array.make n 0 in
  let arity = Schema.arity r.schema in
  let int_keys = ref (n > radix_cutoff && arity > 0) in
  let lo = ref max_int and hi = ref min_int in
  let i = ref 0 in
  while !int_keys && !i < n do
    let t = tuples.(!i) in
    (if Array.length t <> arity then int_keys := false
     else
       match t.(0) with
       | Value.Int k ->
         keys.(!i) <- k;
         if k < !lo then lo := k;
         if k > !hi then hi := k
       | Value.Str _ -> int_keys := false);
    incr i
  done;
  let order = Array.init n Fun.id in
  let by_tuple a b = Tuple.compare tuples.(a) tuples.(b) in
  let sort_range pos len =
    let run = Array.sub order pos len in
    Array.stable_sort by_tuple run;
    Array.blit run 0 order pos len
  in
  let range = !hi - !lo in
  if !int_keys && range >= 0 then begin
    radix_sort keys ~lo:!lo ~range order;
    let start = ref 0 in
    for i = 1 to n do
      if i = n || keys.(order.(i)) <> keys.(order.(!start)) then begin
        if i - !start > 1 then sort_range !start (i - !start);
        start := i
      end
    done
  end
  else sort_range 0 n;
  (tuples, counts, order)

let iter_sorted f r =
  let tuples, counts, order = sorted_order r in
  Array.iter (fun i -> f tuples.(i) counts.(i)) order

let sorted_elements r =
  let tuples, counts, order = sorted_order r in
  Array.fold_right (fun i acc -> (tuples.(i), counts.(i)) :: acc) order []

let of_tuples schema tuples =
  let r = create ~size_hint:(List.length tuples) schema in
  List.iter
    (fun t ->
      Tuple.check schema t;
      add r t)
    tuples;
  r

let of_counted schema counted =
  let r = create ~size_hint:(List.length counted) schema in
  List.iter
    (fun (t, c) ->
      Tuple.check schema t;
      add ~count:c r t)
    counted;
  r

let copy r =
  (* A copy is a distinct store: it starts without indexes. *)
  {
    schema = r.schema;
    table = Tuple_table.copy r.table;
    indexes = ref [];
    total = r.total;
  }

let reschema r s =
  if Schema.arity s <> Schema.arity r.schema then
    invalid_arg "Relation.reschema: arity mismatch";
  { r with schema = s }

let shard ~n r =
  let n = max 1 n in
  let shards =
    Array.init n (fun _ -> create ~size_hint:((cardinal r / n) + 1) r.schema)
  in
  iter
    (fun t c ->
      let slot = (Tuple.hash t land max_int) mod n in
      add ~count:c shards.(slot) t)
    r;
  shards

let union_into ~into r = iter (fun t c -> update into t c) r
let diff_into ~into r = iter (fun t c -> update into t (-c)) r

(* In-place overwrite via counter updates, so the store's indexes follow
   and anything aliasing the store (a manager catalog entry, a
   [reschema] alias) keeps seeing it, rather than a swapped object. *)
let assign ~into ~src =
  if Schema.arity into.schema <> Schema.arity src.schema then
    invalid_arg "Relation.assign: arity mismatch";
  (* Only the tuples whose counter changes are listed: [into] cannot be
     updated while it is being iterated. *)
  let changed =
    fold
      (fun t c acc ->
        let target = count src t in
        if R.equal target c then acc else (t, R.add target (-c)) :: acc)
      into []
  in
  List.iter (fun (t, delta) -> update into t delta) changed;
  iter (fun t c -> if not (mem into t) then update into t c) src

(* Not [List.find_opt]: [Ops.hash_join] looks both sides up on every
   join, and a closure over [positions] would allocate each time. *)
let rec find_positions positions = function
  | [] -> None
  | index :: rest ->
    if index.positions = positions then Some index
    else find_positions positions rest

let find_index r ~positions = find_positions positions !(r.indexes)

let index r ~positions =
  match find_index r ~positions with
  | Some index -> index
  | None ->
    let arity = Schema.arity r.schema in
    if Array.exists (fun p -> p < 0 || p >= arity) positions then
      invalid_arg "Relation.index: position out of range";
    let index =
      {
        positions = Array.copy positions;
        buckets = Tuple_table.create (max 16 (cardinal r));
      }
    in
    iter (index_set index) r;
    r.indexes := index :: !(r.indexes);
    index

let drop_index r ~positions =
  r.indexes :=
    List.filter (fun index -> index.positions <> positions) !(r.indexes)

let iter_matches index key f =
  match Tuple_table.find_opt index.buckets key with
  | None -> ()
  | Some bucket -> Tuple_table.iter f bucket

let key_count index = Tuple_table.length index.buckets

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

let equal a b =
  Schema.equal a.schema b.schema
  && cardinal a = cardinal b
  && (try
        iter (fun t c -> if not (R.equal (count b t) c) then raise Exit) a;
        true
      with Exit -> false)

let set_equal a b =
  Schema.equal a.schema b.schema
  && cardinal a = cardinal b
  && (try
        iter (fun t _ -> if not (mem b t) then raise Exit) a;
        true
      with Exit -> false)

let pp ppf r =
  Format.fprintf ppf "@[<v>%a |- %d tuples@,%a@]" Schema.pp r.schema
    (cardinal r)
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (t, c) ->
         if c = 1 then Tuple.pp ppf t
         else Format.fprintf ppf "%a x%d" Tuple.pp t c))
    (sorted_elements r)

(* ASCII rendering used by the examples and the CLI. *)
let to_ascii ?(counts = false) r =
  let headers = Schema.names r.schema in
  let show_counts = counts || fold (fun _ c acc -> acc || c > 1) r false in
  let headers = if show_counts then headers @ [ "#" ] else headers in
  let rows =
    List.map
      (fun (t, c) ->
        let cells = List.map Value.to_string (Array.to_list t) in
        if show_counts then cells @ [ string_of_int c ] else cells)
      (sorted_elements r)
  in
  let widths =
    List.map
      (fun i ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length (List.nth headers i))
          rows)
      (List.init (List.length headers) Fun.id)
  in
  let render_row cells =
    let padded =
      List.map2
        (fun cell width -> cell ^ String.make (width - String.length cell) ' ')
        cells widths
    in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  String.concat "\n"
    ([ rule; render_row headers; rule ] @ List.map render_row rows @ [ rule ])
