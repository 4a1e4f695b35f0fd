open Relalg
module Formula = Condition.Formula

type join_order =
  [ `Greedy
  | `Declaration ]

type join_impl =
  [ `Hash
  | `Nested_loop ]

(* Filter a relation by a conjunction of atoms, resolving variable
   positions once. *)
let filter_conjunction schema atoms rel =
  if atoms = [] then rel
  else begin
    let positions = Hashtbl.create 8 in
    List.iter
      (fun v ->
        if not (Hashtbl.mem positions v) then
          Hashtbl.replace positions v (Schema.position schema v))
      (List.concat_map Formula.atom_vars atoms);
    let current = ref [||] in
    let lookup v = Tuple.get !current (Hashtbl.find positions v) in
    Ops.select
      (fun t ->
        current := t;
        Formula.eval_conjunction lookup atoms)
      rel
  end

let filter_dnf schema dnf rel =
  let positions = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if not (Hashtbl.mem positions v) then
        Hashtbl.replace positions v (Schema.position schema v))
    (List.concat_map (List.concat_map Formula.atom_vars) dnf);
  let current = ref [||] in
  let lookup v = Tuple.get !current (Hashtbl.find positions v) in
  Ops.select
    (fun t ->
      current := t;
      Formula.eval_dnf lookup dnf)
    rel

let atom_is_local schema a =
  List.for_all (Schema.mem schema) (Formula.atom_vars a)

(* Equality atoms between two variables, usable as hash-join keys. *)
let equality_var_pair (a : Formula.atom) =
  match a.Formula.left, a.Formula.cmp, a.Formula.right, a.Formula.shift with
  | Formula.O_var x, Formula.Eq, Formula.O_var y, 0 -> Some (x, y)
  | _ -> None

let atom_equal (a : Formula.atom) (b : Formula.atom) = a = b

(* Atoms present in every disjunct are implied by the whole condition. *)
let common_atoms = function
  | [] -> []
  | first :: rest ->
    List.filter
      (fun a -> List.for_all (fun c -> List.exists (atom_equal a) c) rest)
      first

(* Join two operands.  [Ops.equijoin] probes a maintained index on
   either side's join columns when one exists. *)
let join_operands ~join_impl acc next ~oriented_keys =
  match join_impl with
  | `Nested_loop -> Ops.nested_loop_join acc next ~keys:oriented_keys
  | `Hash -> Ops.equijoin acc next ~keys:oriented_keys

type bound_source = {
  alias : string;
  rel : Relation.t;
}

let greedy_order sources key_pairs =
  (* [key_pairs] are (alias, alias) connections derived from equality
     atoms; prefer sources connected to what is already joined. *)
  let connected alias bound =
    List.exists
      (fun (a, b) ->
        (String.equal a alias && List.mem b bound)
        || (String.equal b alias && List.mem a bound))
      key_pairs
  in
  let smallest candidates =
    List.fold_left
      (fun best s ->
        match best with
        | None -> Some s
        | Some b ->
          if Relation.cardinal s.rel < Relation.cardinal b.rel then Some s
          else best)
      None candidates
  in
  let rec loop ordered bound remaining =
    match remaining with
    | [] -> List.rev ordered
    | _ ->
      let candidates =
        match List.filter (fun s -> connected s.alias bound) remaining with
        | [] -> remaining
        | linked -> linked
      in
      let next =
        match smallest candidates with
        | Some s -> s
        | None -> assert false
      in
      let remaining =
        List.filter (fun s -> not (String.equal s.alias next.alias)) remaining
      in
      loop (next :: ordered) (next.alias :: bound) remaining
  in
  match sources with
  | [] -> []
  | _ ->
    (* Seed with the globally smallest source. *)
    (match smallest sources with
    | Some seed ->
      let rest =
        List.filter (fun s -> not (String.equal s.alias seed.alias)) sources
      in
      loop [ seed ] [ seed.alias ] rest
    | None -> assert false)

let project_result ~projection joined =
  let schema = Relation.schema joined in
  let out_schema =
    Schema.make
      (List.map (fun (out, q) -> (out, Schema.ty schema q)) projection)
  in
  let positions =
    Array.of_list (List.map (fun (_, q) -> Schema.position schema q) projection)
  in
  let out = Relation.create ~size_hint:(Relation.cardinal joined) out_schema in
  Relation.iter
    (fun t c -> Relation.update out (Tuple.project positions t) c)
    joined;
  out

let empty_result ~sources ~projection =
  let ty_of q =
    let rec search = function
      | [] -> invalid_arg (Printf.sprintf "Planner.run: unknown attribute %S" q)
      | (_, rel) :: rest -> (
        let s = Relation.schema rel in
        match Schema.position_opt s q with
        | Some i -> Schema.ty_at s i
        | None -> search rest)
    in
    search sources
  in
  Relation.create (Schema.make (List.map (fun (out, q) -> (out, ty_of q)) projection))

let run ?(order = `Greedy) ?(join_impl = `Hash) ~sources ~condition_dnf
    ~projection () =
  if sources = [] then invalid_arg "Planner.run: no sources";
  (* Unsatisfiable condition (empty DNF, e.g. literal False). *)
  if condition_dnf = [] then empty_result ~sources ~projection
  else begin
    let single =
      match condition_dnf with
      | [ c ] -> Some c
      | _ -> None
    in
    (* Push source-local predicates below the joins. *)
    let filtered_sources =
      List.map
        (fun (alias, rel) ->
          let schema = Relation.schema rel in
          let rel =
            match single with
            | Some conj ->
              filter_conjunction schema (List.filter (atom_is_local schema) conj)
                rel
            | None ->
              (* Implied disjunction of the source-local parts: sound as
                 long as every disjunct contributes at least one local
                 atom. *)
              let local_dnf =
                List.map (List.filter (atom_is_local schema)) condition_dnf
              in
              if List.exists (fun c -> c = []) local_dnf then rel
              else filter_dnf schema local_dnf rel
          in
          { alias; rel })
        sources
    in
    if List.exists (fun s -> Relation.is_empty s.rel) filtered_sources then
      empty_result ~sources ~projection
    else begin
      let key_candidates =
        match single with
        | Some conj -> conj
        | None -> common_atoms condition_dnf
      in
      let alias_of_attr a =
        List.find_map
          (fun s ->
            if Schema.mem (Relation.schema s.rel) a then Some s.alias else None)
          filtered_sources
      in
      let key_pairs =
        List.filter_map
          (fun atom ->
            match equality_var_pair atom with
            | None -> None
            | Some (x, y) -> (
              match alias_of_attr x, alias_of_attr y with
              | Some ax, Some ay when not (String.equal ax ay) -> Some (ax, ay)
              | _ -> None))
          key_candidates
      in
      let ordered =
        match order with
        | `Declaration -> filtered_sources
        | `Greedy -> greedy_order filtered_sources key_pairs
      in
      (* Pending atoms still to be applied (single-disjunct mode): the
         source-local ones were already pushed down above. *)
      let pending =
        ref
          (match single with
          | Some conj ->
            List.filter
              (fun a ->
                not
                  (List.exists
                     (fun s -> atom_is_local (Relation.schema s.rel) a)
                     filtered_sources))
              conj
          | None -> [])
      in
      let join_step acc next =
        let sa = Relation.schema acc and sb = Relation.schema next.rel in
        let keys, rest =
          List.partition
            (fun atom ->
              match equality_var_pair atom with
              | Some (x, y) ->
                (Schema.mem sa x && Schema.mem sb y)
                || (Schema.mem sa y && Schema.mem sb x)
              | None -> false)
            (match single with
            | Some _ -> !pending
            | None -> common_atoms condition_dnf)
        in
        let oriented_keys =
          List.filter_map
            (fun atom ->
              match equality_var_pair atom with
              | Some (x, y) when Schema.mem sa x && Schema.mem sb y ->
                Some (x, y)
              | Some (x, y) when Schema.mem sa y && Schema.mem sb x ->
                Some (y, x)
              | _ -> None)
            keys
        in
        let joined = join_operands ~join_impl acc next.rel ~oriented_keys in
        match single with
        | None -> joined
        | Some _ ->
          let schema = Relation.schema joined in
          let now, later =
            List.partition (atom_is_local schema) rest
          in
          pending := later;
          (* Key atoms are satisfied by construction; drop them. *)
          filter_conjunction schema now joined
      in
      let joined =
        match ordered with
        | [] -> assert false
        | first :: rest ->
          (* Apply atoms local to the first source that were not already
             pushed (none in single mode — kept for safety). *)
          List.fold_left join_step first.rel rest
      in
      let joined =
        match single with
        | Some _ ->
          (* Any pending atoms must be local to the full product by now. *)
          filter_conjunction (Relation.schema joined) !pending joined
        | None -> filter_dnf (Relation.schema joined) condition_dnf joined
      in
      project_result ~projection joined
    end
  end

let filter dnf r = filter_dnf (Relation.schema r) dnf r

let filter_local dnf r =
  let schema = Relation.schema r in
  match dnf with
  | [ conj ] ->
    filter_conjunction schema (List.filter (atom_is_local schema) conj) r
  | _ ->
    let local_dnf = List.map (List.filter (atom_is_local schema)) dnf in
    if List.exists (fun c -> c = []) local_dnf then r
    else filter_dnf schema local_dnf r

let project_to ~projection r = project_result ~projection r

(* Shared-prefix evaluation of truth-table rows.  Variants are grouped by
   the physical identity of the relation they pick at each position, so a
   partial join is computed once per distinct prefix. *)
let run_many ?(join_impl = `Hash) ~variants ~condition_dnf ~projection () =
  match variants with
  | [] -> []
  | first_variant :: _ -> (
    let single =
      match condition_dnf with
      | [ c ] -> Some c
      | _ -> None
    in
    match single with
    | None ->
      List.map
        (fun sources ->
          run ~order:`Declaration ~join_impl ~sources ~condition_dnf
            ~projection ())
        variants
    | Some conj ->
      let position_count = List.length first_variant in
      let arrays = List.map Array.of_list variants in
      List.iter
        (fun a ->
          if Array.length a <> position_count then
            invalid_arg "Planner.run_many: variants of different lengths")
        arrays;
      let results = Array.make (List.length arrays) None in
      (* Source-local pushdown, cached per physical relation. *)
      let pushed_cache : (Relation.t * Relation.t) list ref = ref [] in
      let push_local rel =
        match
          List.find_opt (fun (original, _) -> original == rel) !pushed_cache
        with
        | Some (_, filtered) -> filtered
        | None ->
          let schema = Relation.schema rel in
          let filtered =
            filter_conjunction schema
              (List.filter (atom_is_local schema) conj)
              rel
          in
          pushed_cache := (rel, filtered) :: !pushed_cache;
          filtered
      in
      (* Atoms not local to any single source, to be applied while
         joining; schemas are identical across variants. *)
      let source_schemas =
        List.map (fun (_, rel) -> Relation.schema rel) first_variant
      in
      let initial_pending =
        List.filter
          (fun a ->
            not (List.exists (fun s -> atom_is_local s a) source_schemas))
          conj
      in
      let assign_empty members =
        List.iter
          (fun (i, sources) ->
            results.(i) <-
              Some (empty_result ~sources:(Array.to_list sources) ~projection))
          members
      in
      (* Join [filtered] onto the accumulated prefix, consuming pending
         atoms exactly as [run] does. *)
      let extend current pending filtered =
        match current with
        | None -> (filtered, pending)
        | Some acc ->
          let sa = Relation.schema acc and sb = Relation.schema filtered in
          let keys, rest =
            List.partition
              (fun atom ->
                match equality_var_pair atom with
                | Some (x, y) ->
                  (Schema.mem sa x && Schema.mem sb y)
                  || (Schema.mem sa y && Schema.mem sb x)
                | None -> false)
              pending
          in
          let oriented_keys =
            List.filter_map
              (fun atom ->
                match equality_var_pair atom with
                | Some (x, y) when Schema.mem sa x && Schema.mem sb y ->
                  Some (x, y)
                | Some (x, y) when Schema.mem sa y && Schema.mem sb x ->
                  Some (y, x)
                | _ -> None)
              keys
          in
          let joined = join_operands ~join_impl acc filtered ~oriented_keys in
          let schema = Relation.schema joined in
          let now, later = List.partition (atom_is_local schema) rest in
          (filter_conjunction schema now joined, later)
      in
      let rec go position current pending members =
        if position = position_count then begin
          let joined =
            match current with
            | Some r -> filter_conjunction (Relation.schema r) pending r
            | None -> assert false (* position_count >= 1 *)
          in
          let result = project_result ~projection joined in
          List.iter (fun (i, _) -> results.(i) <- Some result) members
        end
        else begin
          (* Group members by the physical relation chosen here. *)
          let buckets : (Relation.t * (int * (string * Relation.t) array) list ref) list ref
              =
            ref []
          in
          List.iter
            (fun ((_, sources) as member) ->
              let _, rel = sources.(position) in
              match List.find_opt (fun (r, _) -> r == rel) !buckets with
              | Some (_, bucket) -> bucket := member :: !bucket
              | None -> buckets := (rel, ref [ member ]) :: !buckets)
            members;
          List.iter
            (fun (rel, bucket) ->
              let bucket = List.rev !bucket in
              let filtered = push_local rel in
              if Relation.is_empty filtered then assign_empty bucket
              else begin
                let current', pending' = extend current pending filtered in
                if Relation.is_empty current' then assign_empty bucket
                else go (position + 1) (Some current') pending' bucket
              end)
            (List.rev !buckets)
        end
      in
      if position_count = 0 then invalid_arg "Planner.run_many: no sources";
      go 0 None initial_pending (List.mapi (fun i a -> (i, a)) arrays);
      Array.to_list
        (Array.map
           (fun r ->
             match r with
             | Some r -> r
             | None -> assert false)
           results))
