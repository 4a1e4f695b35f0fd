open Relalg
module Formula = Condition.Formula

type join_order =
  [ `Greedy
  | `Declaration ]

type join_impl =
  [ `Hash
  | `Nested_loop ]

(* The one filter: keep the tuples of [rel] that satisfy [dnf], with
   variable positions resolved once.  A disjunct without atoms is true,
   so it keeps [rel] itself; the empty DNF is false. *)
let filter dnf rel =
  if dnf = [] then Relation.create (Relation.schema rel)
  else if List.mem [] dnf then rel
  else begin
    let schema = Relation.schema rel in
    let positions = Hashtbl.create 8 in
    List.iter
      (fun v ->
        if not (Hashtbl.mem positions v) then
          Hashtbl.replace positions v (Schema.position schema v))
      (List.concat_map (List.concat_map Formula.atom_vars) dnf);
    let current = ref [||] in
    let lookup v = Tuple.get !current (Hashtbl.find positions v) in
    let rec all = function
      | [] -> true
      | a :: rest -> Formula.eval_atom lookup a && all rest
    in
    let rec any = function
      | [] -> false
      | c :: rest -> all c || any rest
    in
    Ops.select
      (fun t ->
        current := t;
        any dnf)
      rel
  end

let atom_is_local schema a =
  List.for_all (Schema.mem schema) (Formula.atom_vars a)

let filter_local dnf rel =
  let local = atom_is_local (Relation.schema rel) in
  filter (List.map (List.filter local) dnf) rel

let project_to ~projection rel =
  let schema = Relation.schema rel in
  let out_schema =
    Schema.make
      (List.map (fun (out, q) -> (out, Schema.ty schema q)) projection)
  in
  let positions =
    Array.of_list (List.map (fun (_, q) -> Schema.position schema q) projection)
  in
  let out = Relation.create ~size_hint:(Relation.cardinal rel) out_schema in
  Relation.iter (fun t c -> Relation.update out (Tuple.project positions t) c) rel;
  out

let output_schema ~projection schemas =
  let rec ty_of q = function
    | [] -> invalid_arg (Printf.sprintf "Planner.output_schema: unknown attribute %S" q)
    | s :: rest -> (
      match Schema.position_opt s q with
      | Some i -> Schema.ty_at s i
      | None -> ty_of q rest)
  in
  Schema.make (List.map (fun (out, q) -> (out, ty_of q schemas)) projection)

let empty_result ~sources ~projection =
  Relation.create
    (output_schema ~projection (List.map (fun (_, r) -> Relation.schema r) sources))

(* Equality atoms between two variables, usable as join keys. *)
let equality_var_pair (a : Formula.atom) =
  match a.Formula.left, a.Formula.cmp, a.Formula.right, a.Formula.shift with
  | Formula.O_var x, Formula.Eq, Formula.O_var y, 0 -> Some (x, y)
  | _ -> None

(* Atoms present in every disjunct are implied by the whole condition. *)
let common_atoms = function
  | [] -> []
  | [ conj ] -> conj
  | first :: rest ->
    List.filter (fun a -> List.for_all (List.mem a) rest) first

(* The atoms the joins must apply: implied by every disjunct and local to
   no single operand (push-down applied those). *)
let pending_atoms common sources =
  List.filter
    (fun a ->
      not (List.exists (fun (_, r) -> atom_is_local (Relation.schema r) a) sources))
    common

(* The one join step: join [next] onto the prefix [acc].  Pending
   equality atoms that link the two are the join keys ([Ops.equijoin]
   probes a maintained index on either side's key columns when one
   exists); every other pending atom whose variables the result binds
   filters it, and the rest stay pending. *)
let join_step ~join_impl (acc, pending) next =
  let sa = Relation.schema acc and sb = Relation.schema next in
  let keys, rest =
    List.partition_map
      (fun atom ->
        match equality_var_pair atom with
        | Some (x, y) when Schema.mem sa x && Schema.mem sb y -> Either.Left (x, y)
        | Some (x, y) when Schema.mem sa y && Schema.mem sb x -> Either.Left (y, x)
        | _ -> Either.Right atom)
      pending
  in
  let joined =
    match join_impl with
    | `Nested_loop -> Ops.nested_loop_join acc next ~keys
    | `Hash -> Ops.equijoin acc next ~keys
  in
  match List.partition (atom_is_local (Relation.schema joined)) rest with
  | [], later -> (joined, later)
  | now, later -> (filter [ now ] joined, later)

(* The last filter and the projection.  The joins applied a conjunction's
   atoms as soon as they were bound, but only the shared atoms of a
   disjunction, so the whole DNF filters here. *)
let finish ~projection dnf (joined, pending) =
  project_to ~projection
    (match dnf, pending with
    | [ _ ], [] -> joined
    | [ _ ], _ -> filter [ pending ] joined
    | _ -> filter dnf joined)

(* Alias pairs that an equality atom links. *)
let links sources atoms =
  let alias_of x =
    List.find_map
      (fun (alias, r) -> if Schema.mem (Relation.schema r) x then Some alias else None)
      sources
  in
  List.filter_map
    (fun atom ->
      match equality_var_pair atom with
      | Some (x, y) -> (
        match alias_of x, alias_of y with
        | Some a, Some b when not (String.equal a b) -> Some (a, b)
        | _ -> None)
      | None -> None)
    atoms

let smallest = function
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun ((_, b) as best) ((_, r) as s) ->
        if Relation.cardinal r < Relation.cardinal b then s else best)
      first rest

(* Smallest operand first, then repeatedly the smallest operand that one
   of [links] ties to what is already joined (any operand when none is
   tied). *)
let rec greedy_order links bound = function
  | ([] | [ _ ]) as last -> last
  | remaining ->
    let linked (alias, _) =
      List.exists
        (fun (a, b) ->
          (String.equal a alias && List.mem b bound)
          || (String.equal b alias && List.mem a bound))
        links
    in
    let candidates =
      match List.filter linked remaining with
      | [] -> remaining
      | linked -> linked
    in
    let ((alias, _) as next) = smallest candidates in
    next
    :: greedy_order links (alias :: bound)
         (List.filter (fun (a, _) -> not (String.equal a alias)) remaining)

exception Empty_operand

let run ?(order = `Greedy) ?(join_impl = `Hash) ~sources ~condition_dnf
    ~projection () =
  let push (alias, rel) =
    let rel = filter_local condition_dnf rel in
    if Relation.is_empty rel then raise_notrace Empty_operand else (alias, rel)
  in
  match List.map push sources with
  | exception Empty_operand -> empty_result ~sources ~projection
  | [] -> invalid_arg "Planner.run: no sources"
  | pushed -> (
    let common = common_atoms condition_dnf in
    let ordered =
      match order with
      | `Declaration -> pushed
      | `Greedy -> greedy_order (links pushed common) [] pushed
    in
    match ordered with
    | [] -> assert false
    | (_, first) :: rest ->
      finish ~projection condition_dnf
        (List.fold_left
           (fun state (_, rel) -> join_step ~join_impl state rel)
           (first, pending_atoms common pushed)
           rest))

(* Members grouped by the physical relation they pick at [position], in
   order of first appearance. *)
let rec group position = function
  | [] -> []
  | (_, sources) :: _ as members ->
    let rel = snd sources.(position) in
    let same, others =
      List.partition (fun (_, s) -> snd s.(position) == rel) members
    in
    (rel, same) :: group position others

let run_many ?(join_impl = `Hash) ~variants ~condition_dnf ~projection () =
  match variants with
  | [] -> []
  | first :: _ ->
    let width = List.length first in
    if width = 0 then invalid_arg "Planner.run_many: no sources";
    let members =
      List.mapi
        (fun i sources ->
          let sources = Array.of_list sources in
          if Array.length sources <> width then
            invalid_arg "Planner.run_many: variants of different lengths";
          (i, sources))
        variants
    in
    let results = Array.make (List.length variants) None in
    let settle members r = List.iter (fun (i, _) -> results.(i) <- Some r) members in
    (* Push-down, once per physical relation. *)
    let pushed = ref [] in
    let push rel =
      match List.assq_opt rel !pushed with
      | Some r -> r
      | None ->
        let r = filter_local condition_dnf rel in
        pushed := (rel, r) :: !pushed;
        r
    in
    (* [state] joins the first [position] operands that [members]
       share; an empty operand or prefix settles them all empty. *)
    let rec go position ((joined, _) as state) members =
      if Relation.is_empty joined then
        settle members (empty_result ~sources:first ~projection)
      else if position = width then
        settle members (finish ~projection condition_dnf state)
      else
        List.iter
          (fun (rel, members) ->
            let r = push rel in
            go (position + 1)
              (if Relation.is_empty r then (r, []) else join_step ~join_impl state r)
              members)
          (group position members)
    in
    let pending = pending_atoms (common_atoms condition_dnf) first in
    List.iter
      (fun (rel, members) -> go 1 (push rel, pending) members)
      (group 0 members);
    Array.to_list (Array.map Option.get results)
