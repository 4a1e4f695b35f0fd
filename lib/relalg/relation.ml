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

type t = {
  schema : Schema.t;
  table : int Tuple_table.t;
  storage_id : int;
  observers : (Tuple.t -> int -> unit) list ref;
  mutable total : int;
}

(* Atomic: relations are created from pool worker domains during
   parallel maintenance, and duplicate storage ids would alias entries
   in the index registry. *)
let next_storage_id = Atomic.make 0

let fresh_storage_id () = 1 + Atomic.fetch_and_add next_storage_id 1

exception Negative_count of Tuple.t

let create ?(size_hint = 64) schema =
  {
    schema;
    table = Tuple_table.create size_hint;
    storage_id = fresh_storage_id ();
    observers = ref [];
    total = 0;
  }

let storage_id r = r.storage_id
let subscribe r observer = r.observers := observer :: !(r.observers)

let schema r = r.schema
let cardinal r = Tuple_table.length r.table
let total r = r.total
let is_empty r = cardinal r = 0
let count r t = Option.value ~default:R.zero (Tuple_table.find_opt r.table t)
let mem r t = Tuple_table.mem r.table t

let update r t delta =
  if not (R.is_zero delta) then begin
    let current = count r t in
    let updated = R.add current delta in
    if updated < 0 then raise (Negative_count t)
    else if R.is_zero updated then Tuple_table.remove r.table t
    else Tuple_table.replace r.table t updated;
    r.total <- R.add r.total delta;
    match !(r.observers) with
    | [] -> ()
    | observers -> List.iter (fun observe -> observe t delta) observers
  end

let add ?(count = 1) r t =
  if count <= 0 then invalid_arg "Relation.add: count must be positive";
  update r t count

let remove r t = update r t (-1)
let iter f r = Tuple_table.iter f r.table
let fold f r init = Tuple_table.fold f r.table init
let elements r = fold (fun t c acc -> (t, c) :: acc) r []

let sorted_array r =
  let a = Array.make (cardinal r) ([||], 0) in
  let i = ref 0 in
  iter
    (fun t c ->
      a.(!i) <- (t, c);
      incr i)
    r;
  Array.stable_sort (fun (a, _) (b, _) -> Tuple.compare a b) a;
  a

let sorted_elements r = Array.to_list (sorted_array r)

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
  (* A copy is a distinct store: fresh identity, no observers. *)
  {
    schema = r.schema;
    table = Tuple_table.copy r.table;
    storage_id = fresh_storage_id ();
    observers = ref [];
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

(* In-place overwrite via counter updates, so subscribed observers (and
   anything else aliasing the store, e.g. a manager catalog entry) see a
   coherent sequence of deltas rather than a swapped object. *)
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
