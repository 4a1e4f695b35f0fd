let select predicate r =
  let out = Relation.create ~size_hint:(Relation.cardinal r) (Relation.schema r) in
  Relation.iter
    (fun t c -> if predicate t then Relation.update out t c)
    r;
  out

let project r attr_names =
  let sub, positions = Schema.project (Relation.schema r) attr_names in
  let out = Relation.create ~size_hint:(Relation.cardinal r) sub in
  Relation.iter
    (fun t c -> Relation.update out (Tuple.project positions t) c)
    r;
  out

let rename f r =
  let out = Relation.create ~size_hint:(Relation.cardinal r)
      (Schema.rename f (Relation.schema r))
  in
  Relation.iter (fun t c -> Relation.update out t c) r;
  out

let product a b =
  let schema = Schema.concat (Relation.schema a) (Relation.schema b) in
  let out =
    Relation.create ~size_hint:(Relation.cardinal a * max 1 (Relation.cardinal b))
      schema
  in
  Relation.iter
    (fun ta ca ->
      Relation.iter
        (fun tb cb -> Relation.update out (Tuple.concat ta tb) (ca * cb))
        b)
    a;
  out

module Key_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* Hash join: build on the smaller side, probe with the larger.  [emit] maps
   a matching pair to the output tuple, so natural join and equijoin share
   the machinery. *)
let hash_join a b ~key_positions_a ~key_positions_b ~out_schema ~emit =
  let out = Relation.create out_schema in
  (* When one side already carries an incrementally-maintained secondary
     index on exactly the join columns, probe it instead of building a
     throwaway key table — on the base-relation side of the repeated
     delta-against-base joins of differential maintenance that skips the
     full scan entirely.  [a_indexed] says whether the probed matches
     come from [a], fixing the emit orientation. *)
  let probe_index index ~probe ~probe_keys ~a_indexed =
    Relation.iter
      (fun t c ->
        let key = Tuple.project probe_keys t in
        Relation.iter_matches index key (fun t' c' ->
            if a_indexed then Relation.update out (emit t' t) (c' * c)
            else Relation.update out (emit t t') (c * c')))
      probe
  in
  let index_a = Relation.find_index a ~positions:key_positions_a in
  let index_b = Relation.find_index b ~positions:key_positions_b in
  match index_a, index_b with
  | Some ia, Some ib ->
    (* Both indexed: probe from the smaller side, as below. *)
    if Relation.cardinal a <= Relation.cardinal b then
      probe_index ib ~probe:a ~probe_keys:key_positions_a ~a_indexed:false
    else probe_index ia ~probe:b ~probe_keys:key_positions_b ~a_indexed:true;
    out
  | Some ia, None ->
    probe_index ia ~probe:b ~probe_keys:key_positions_b ~a_indexed:true;
    out
  | None, Some ib ->
    probe_index ib ~probe:a ~probe_keys:key_positions_a ~a_indexed:false;
    out
  | None, None ->
    let build_side, probe_side, build_keys, probe_keys, swapped =
      if Relation.cardinal a <= Relation.cardinal b then
        (a, b, key_positions_a, key_positions_b, false)
      else (b, a, key_positions_b, key_positions_a, true)
    in
    let index = Key_table.create (max 16 (Relation.cardinal build_side)) in
    Relation.iter
      (fun t c ->
        let key = Tuple.project build_keys t in
        let existing =
          Option.value ~default:[] (Key_table.find_opt index key)
        in
        Key_table.replace index key ((t, c) :: existing))
      build_side;
    Relation.iter
      (fun t c ->
        let key = Tuple.project probe_keys t in
        match Key_table.find_opt index key with
        | None -> ()
        | Some matches ->
          List.iter
            (fun (t', c') ->
              let ta, ca, tb, cb =
                if swapped then (t, c, t', c') else (t', c', t, c)
              in
              Relation.update out (emit ta tb) (ca * cb))
            matches)
      probe_side;
    out

let natural_join a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared = Schema.common sa sb in
  if shared = [] then product a b
  else begin
    let key_positions_a =
      Array.of_list (List.map (Schema.position sa) shared)
    in
    let key_positions_b =
      Array.of_list (List.map (Schema.position sb) shared)
    in
    let b_keep =
      List.filter (fun n -> not (Schema.mem sa n)) (Schema.names sb)
    in
    let b_keep_positions =
      Array.of_list (List.map (Schema.position sb) b_keep)
    in
    let out_schema =
      Schema.make
        (Schema.attrs sa
        @ List.map (fun n -> (n, Schema.ty sb n)) b_keep)
    in
    hash_join a b ~key_positions_a ~key_positions_b ~out_schema
      ~emit:(fun ta tb -> Tuple.concat ta (Tuple.project b_keep_positions tb))
  end

let equijoin a b ~keys =
  let sa = Relation.schema a and sb = Relation.schema b in
  let out_schema = Schema.concat sa sb in
  if keys = [] then product a b
  else
    let key_positions_a =
      Array.of_list (List.map (fun (ka, _) -> Schema.position sa ka) keys)
    in
    let key_positions_b =
      Array.of_list (List.map (fun (_, kb) -> Schema.position sb kb) keys)
    in
    hash_join a b ~key_positions_a ~key_positions_b ~out_schema
      ~emit:Tuple.concat

let semijoin a b ~keys =
  let sa = Relation.schema a and sb = Relation.schema b in
  if keys = [] then begin
    if Relation.is_empty b then Relation.create sa else Relation.copy a
  end
  else begin
    let positions_a =
      Array.of_list (List.map (fun (ka, _) -> Schema.position sa ka) keys)
    in
    let positions_b =
      Array.of_list (List.map (fun (_, kb) -> Schema.position sb kb) keys)
    in
    let index = Key_table.create (max 16 (Relation.cardinal b)) in
    Relation.iter
      (fun t _ -> Key_table.replace index (Tuple.project positions_b t) ())
      b;
    let out = Relation.create ~size_hint:(Relation.cardinal a) sa in
    Relation.iter
      (fun t c ->
        if Key_table.mem index (Tuple.project positions_a t) then
          Relation.update out t c)
      a;
    out
  end

let nested_loop_join a b ~keys =
  let sa = Relation.schema a and sb = Relation.schema b in
  let out = Relation.create (Schema.concat sa sb) in
  let positions =
    List.map
      (fun (ka, kb) -> (Schema.position sa ka, Schema.position sb kb))
      keys
  in
  Relation.iter
    (fun ta ca ->
      Relation.iter
        (fun tb cb ->
          let matches =
            List.for_all
              (fun (ia, ib) -> Value.equal (Tuple.get ta ia) (Tuple.get tb ib))
              positions
          in
          if matches then Relation.update out (Tuple.concat ta tb) (ca * cb))
        b)
    a;
  out
