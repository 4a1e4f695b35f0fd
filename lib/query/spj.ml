open Relalg
module Formula = Condition.Formula

type source = {
  relation : string;
  alias : string;
}

type t = {
  sources : source list;
  condition : Formula.t;
  condition_dnf : Formula.dnf;
  projection : (Attr.t * Attr.t) list;
}

exception Compile_error of string

let compile_error fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

(* Intermediate result while flattening: the visible output attributes and
   the qualified attribute each one denotes. *)
type partial = {
  srcs : source list; (* reversed *)
  conds : Formula.t list;
  binding : (Attr.t * Attr.t) list; (* output name -> qualified attr *)
}

let fresh_alias used name =
  let rec pick i =
    let candidate = if i = 1 then name else Printf.sprintf "%s%d" name i in
    if Hashtbl.mem used candidate then pick (i + 1)
    else begin
      Hashtbl.replace used candidate ();
      candidate
    end
  in
  pick 1

let rewrite_formula binding f =
  let subst v =
    match List.assoc_opt v binding with
    | Some q -> q
    | None -> compile_error "condition refers to unknown attribute %S" v
  in
  let rewrite_operand = function
    | Formula.O_var v -> Formula.O_var (subst v)
    | Formula.O_const _ as c -> c
  in
  let rec go = function
    | Formula.True -> Formula.True
    | Formula.False -> Formula.False
    | Formula.Atom a ->
      Formula.Atom
        {
          a with
          Formula.left = rewrite_operand a.Formula.left;
          right = rewrite_operand a.Formula.right;
        }
    | Formula.And (f, g) -> Formula.And (go f, go g)
    | Formula.Or (f, g) -> Formula.Or (go f, go g)
    | Formula.Not f -> Formula.Not (go f)
  in
  go f

let rec flatten lookup used = function
  | Expr.Base name ->
    let schema =
      match lookup name with
      | schema -> schema
      | exception (Not_found | Failure _ | Relalg.Database.Unknown_relation _) ->
        compile_error "unknown base relation %S" name
    in
    let alias = fresh_alias used name in
    {
      srcs = [ { relation = name; alias } ];
      conds = [];
      binding =
        List.map (fun n -> (n, Attr.qualify ~alias n)) (Schema.names schema);
    }
  | Expr.Select (f, e) ->
    let p = flatten lookup used e in
    { p with conds = rewrite_formula p.binding f :: p.conds }
  | Expr.Project (attrs, e) ->
    let p = flatten lookup used e in
    let binding =
      List.map
        (fun a ->
          match List.assoc_opt a p.binding with
          | Some q -> (a, q)
          | None -> compile_error "projection on unknown attribute %S" a)
        attrs
    in
    { p with binding }
  | Expr.Rename (mapping, e) ->
    let p = flatten lookup used e in
    let renamed out =
      match List.assoc_opt out mapping with
      | Some fresh -> fresh
      | None -> out
    in
    let binding = List.map (fun (out, q) -> (renamed out, q)) p.binding in
    (* Renaming must not merge two visible attributes. *)
    List.iter
      (fun (out, _) ->
        if List.length (List.filter (fun (o, _) -> Attr.equal o out) binding) > 1
        then compile_error "rename collides on attribute %S" out)
      binding;
    { p with binding }
  | Expr.Natural_join (e1, e2) ->
    let p1 = flatten lookup used e1 in
    let p2 = flatten lookup used e2 in
    let shared =
      List.filter (fun (n, _) -> List.mem_assoc n p2.binding) p1.binding
    in
    let join_conds =
      List.map
        (fun (n, q1) ->
          let q2 = List.assoc n p2.binding in
          Formula.Atom (Formula.atom (Formula.O_var q1) Formula.Eq (Formula.O_var q2)))
        shared
    in
    let binding2 =
      List.filter (fun (n, _) -> not (List.mem_assoc n p1.binding)) p2.binding
    in
    {
      srcs = p2.srcs @ p1.srcs;
      conds = join_conds @ p1.conds @ p2.conds;
      binding = p1.binding @ binding2;
    }
  | Expr.Product (e1, e2) ->
    let p1 = flatten lookup used e1 in
    let p2 = flatten lookup used e2 in
    List.iter
      (fun (n, _) ->
        if List.mem_assoc n p2.binding then
          compile_error "product operands share attribute %S" n)
      p1.binding;
    {
      srcs = p2.srcs @ p1.srcs;
      conds = p1.conds @ p2.conds;
      binding = p1.binding @ p2.binding;
    }
  | Expr.Group_by _ ->
    (* The canonical form pi(sigma(x)) has no aggregation; callers that
       support GROUP BY split it off with [Expr.aggregate] and compile
       the inner expression. *)
    compile_error "GROUP BY must be the outermost operator"

let compile lookup e =
  let used = Hashtbl.create 8 in
  let p = flatten lookup used e in
  let condition = Formula.conj (List.rev p.conds) in
  let condition_dnf =
    try Formula.to_dnf condition
    with Formula.Dnf_too_large ->
      compile_error "view condition is too large to normalize"
  in
  {
    sources = List.rev p.srcs;
    condition;
    condition_dnf;
    projection = p.binding;
  }

let qualified_schema lookup source =
  Schema.qualify ~alias:source.alias (lookup source.relation)

let qualified_ty lookup spj attr =
  match Attr.alias_of attr with
  | None -> Value.Int_ty
  | Some alias -> (
    match List.find_opt (fun s -> String.equal s.alias alias) spj.sources with
    | None -> Value.Int_ty
    | Some source -> (
      let schema = lookup source.relation in
      match Schema.position_opt schema (Attr.base attr) with
      | Some i -> Schema.ty_at schema i
      | None -> Value.Int_ty))

let output_schema lookup spj =
  Schema.make
    (List.map
       (fun (out, q) -> (out, qualified_ty lookup spj q))
       spj.projection)

let typing lookup spj : Condition.Satisfiability.typing =
 fun attr -> qualified_ty lookup spj attr

let source_with_alias spj alias =
  match List.find_opt (fun s -> String.equal s.alias alias) spj.sources with
  | Some s -> s
  | None -> raise Not_found

let sources_of_relation spj name =
  List.filter (fun s -> String.equal s.relation name) spj.sources

let eval lookup db spj =
  let sources =
    List.map
      (fun s ->
        let qualified = qualified_schema lookup s in
        (s.alias, Relation.reschema (Database.find db s.relation) qualified))
      spj.sources
  in
  Planner.run ~sources ~condition_dnf:spj.condition_dnf
    ~projection:spj.projection ()

let pp ppf spj =
  Format.fprintf ppf "@[<v>pi[%a]@,sigma[@[<hov 2>%a@]]@,(%a)@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (out, q) ->
         if Attr.equal out q then Attr.pp ppf out
         else Format.fprintf ppf "%a:=%a" Attr.pp out Attr.pp q))
    spj.projection Formula.pp spj.condition
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " x ")
       (fun ppf s ->
         if String.equal s.relation s.alias then
           Format.pp_print_string ppf s.relation
         else Format.fprintf ppf "%s as %s" s.relation s.alias))
    spj.sources
