open Relalg

type verdict =
  | Sat
  | Unsat
  | Unknown

type key =
  | K_var of Attr.t
  | K_const of string

(* Union-find over variables and string constants, with path compression.
   Each class optionally carries the constant it is pinned to. *)
type state = {
  parent : (key, key) Hashtbl.t;
  pinned : (key, string) Hashtbl.t; (* root -> constant *)
}

let create () = { parent = Hashtbl.create 16; pinned = Hashtbl.create 16 }

let rec find state k =
  match Hashtbl.find_opt state.parent k with
  | None -> k
  | Some p ->
    let root = find state p in
    if root <> p then Hashtbl.replace state.parent k root;
    root

let pin_of state root = Hashtbl.find_opt state.pinned root

(* Returns [false] when the union pins a class to two distinct constants. *)
let union state a b =
  let ra = find state a and rb = find state b in
  if ra = rb then true
  else begin
    let pa = pin_of state ra and pb = pin_of state rb in
    Hashtbl.replace state.parent ra rb;
    match pa, pb with
    | Some ca, Some cb -> String.equal ca cb
    | Some ca, None ->
      Hashtbl.replace state.pinned rb ca;
      true
    | None, (Some _ | None) -> true
  end

let key_of_operand = function
  | Formula.O_var a -> K_var a
  | Formula.O_const (Value.Str s) -> K_const s
  | Formula.O_const (Value.Int _) ->
    invalid_arg "Eq_solver.solve: integer operand in a string atom"

(* Ordering fragment: an order graph over equivalence classes.  Edge
   u -> v with weight 0 encodes "u <= v", weight -1 encodes "u < v"; a
   negative cycle contradicts the total-order axioms, and a zero-weight
   cycle forces its nodes equal, which contradicts a [<>] between two of
   them. *)
let ordering_verdict state atoms =
  let ordering_atoms =
    List.filter
      (fun (a : Formula.atom) ->
        match a.Formula.cmp with
        | Formula.Lt | Formula.Leq | Formula.Gt | Formula.Geq -> true
        | Formula.Eq | Formula.Neq -> false)
      atoms
  in
  if ordering_atoms = [] then `Sat
  else begin
    (* Node of a key: its class, rendered as the pinned constant when the
       class has one (so constant order facts apply to it). *)
    let node_name key =
      let root = find state key in
      match pin_of state root with
      | Some c -> "c:" ^ c
      | None -> (
        match root with
        | K_var a -> "v:" ^ a
        | K_const c -> "c:" ^ c)
    in
    let involved_constants = Hashtbl.create 8 in
    let touch key =
      let root = find state key in
      match pin_of state root, root with
      | Some c, _ | None, K_const c ->
        Hashtbl.replace involved_constants c ()
      | None, K_var _ -> ()
    in
    let edges = ref [] in
    List.iter
      (fun (a : Formula.atom) ->
        let l = key_of_operand a.Formula.left in
        let r = key_of_operand a.Formula.right in
        touch l;
        touch r;
        let nl = node_name l and nr = node_name r in
        match a.Formula.cmp with
        | Formula.Lt -> edges := (nl, nr, -1) :: !edges
        | Formula.Leq -> edges := (nl, nr, 0) :: !edges
        | Formula.Gt -> edges := (nr, nl, -1) :: !edges
        | Formula.Geq -> edges := (nr, nl, 0) :: !edges
        | Formula.Eq | Formula.Neq -> ())
      ordering_atoms;
    (* Ground facts about the constants that participate. *)
    let constants =
      Hashtbl.fold (fun c () acc -> c :: acc) involved_constants []
    in
    List.iteri
      (fun idx c1 ->
        List.iteri
          (fun jdx c2 ->
            if jdx > idx then begin
              if String.compare c1 c2 < 0 then
                edges := ("c:" ^ c1, "c:" ^ c2, -1) :: !edges
              else edges := ("c:" ^ c2, "c:" ^ c1, -1) :: !edges
            end)
          constants)
      constants;
    let nodes =
      List.sort_uniq String.compare
        (List.concat_map (fun (a, b, _) -> [ a; b ]) !edges)
    in
    let graph = Constraint_graph.create nodes in
    List.iter
      (fun (a, b, w) ->
        Constraint_graph.add_edge graph
          ~from_index:(Constraint_graph.node_index graph a)
          ~to_index:(Constraint_graph.node_index graph b)
          w)
      !edges;
    let apsp = Constraint_graph.floyd_warshall graph in
    let forced_equal (a : Formula.atom) =
      let node o = node_name (key_of_operand o) in
      match
        ( Constraint_graph.node_index graph (node a.Formula.left),
          Constraint_graph.node_index graph (node a.Formula.right) )
      with
      | u, v ->
        apsp.Constraint_graph.dist.(u).(v) <= 0
        && apsp.Constraint_graph.dist.(v).(u) <= 0
      | exception Not_found -> false
    in
    if
      apsp.Constraint_graph.negative
      || List.exists
           (fun (a : Formula.atom) -> a.Formula.cmp = Formula.Neq && forced_equal a)
           atoms
    then `Unsat
    else if constants = [] then `Sat
    else `Unknown
  end

let solve atoms =
  let state = create () in
  List.iter
    (fun (c : key) ->
      match c with
      | K_const s -> Hashtbl.replace state.pinned (find state c) s
      | K_var _ -> ())
    (List.concat_map
       (fun (a : Formula.atom) ->
         [ key_of_operand a.left; key_of_operand a.right ])
       atoms);
  let unsat = ref false in
  (* Phase 1: merge equalities. *)
  List.iter
    (fun (a : Formula.atom) ->
      match a.cmp with
      | Formula.Eq ->
        if not (union state (key_of_operand a.left) (key_of_operand a.right))
        then unsat := true
      | Formula.Neq | Formula.Lt | Formula.Leq | Formula.Gt | Formula.Geq ->
        ())
    atoms;
  (* Phase 2: check disequalities against the classes. *)
  List.iter
    (fun (a : Formula.atom) ->
      match a.cmp with
      | Formula.Neq ->
        let ra = find state (key_of_operand a.left) in
        let rb = find state (key_of_operand a.right) in
        if ra = rb then unsat := true
        else begin
          match pin_of state ra, pin_of state rb with
          | Some ca, Some cb -> if String.equal ca cb then unsat := true
          | (Some _ | None), (Some _ | None) -> ()
        end
      | Formula.Eq | Formula.Lt | Formula.Leq | Formula.Gt | Formula.Geq ->
        ())
    atoms;
  if !unsat then Unsat
  else
    (* Phase 3: ordering atoms over the merged classes. *)
    match ordering_verdict state atoms with
    | `Unsat -> Unsat
    | `Unknown -> Unknown
    | `Sat -> Sat
