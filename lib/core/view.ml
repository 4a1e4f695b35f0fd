open Relalg

type t = {
  name : string;
  expr : Query.Expr.t;
  spj : Query.Spj.t; (* the inner SPJ form for aggregate views *)
  schema : Schema.t;
  state : Relation.t;
  grouped : Grouped.t option;
  lookup : string -> Schema.t;
  qualified : (string * Schema.t) list; (* alias -> qualified schema *)
  screens : (string, Irrelevance.screen) Hashtbl.t;
  duplicate_free : bool;
  keys : Query.Keys.t;
  self_maintain : Self_maintain.t option;
}

let define ?(minimize = true) ?(keys = []) ~name ~db expr =
  let lookup relation = Relation.schema (Database.find db relation) in
  let spec, inner_expr =
    match Query.Expr.aggregate expr with
    | Some (spec, inner) -> (Some spec, inner)
    | None -> (None, expr)
  in
  let spj = Query.Spj.compile lookup inner_expr in
  let spj = if minimize then Query.Tableau.minimize spj else spj in
  let inner_state = Query.Spj.eval lookup db spj in
  let grouped = Option.map (fun spec -> Grouped.create spec ~inner:inner_state) spec in
  let duplicate_free =
    match grouped with
    | Some _ ->
      (* one multiplicity-1 row per non-empty group, by construction *)
      true
    | None -> keys <> [] && Query.Keys.projection_preserves_keys ~keys spj
  in
  let schema, state =
    match grouped with
    | Some g -> (Grouped.schema g, Grouped.render g)
    | None -> (Query.Spj.output_schema lookup spj, inner_state)
  in
  let qualified =
    List.map
      (fun s -> (s.Query.Spj.alias, Query.Spj.qualified_schema lookup s))
      spj.Query.Spj.sources
  in
  {
    name;
    expr;
    spj;
    schema;
    state;
    grouped;
    lookup;
    qualified;
    screens = Hashtbl.create 4;
    duplicate_free;
    keys;
    self_maintain =
      (match grouped with
      | Some _ -> None
      | None -> Self_maintain.of_spj ~name ~keys ~lookup spj);
  }

let name v = v.name
let expr v = v.expr
let spj v = v.spj
let schema v = v.schema
let contents v = v.state
let grouped v = v.grouped
let aggregate v = Option.map Grouped.spec v.grouped
let duplicate_free v = v.duplicate_free
let lookup v = v.lookup
let self_maintain v = v.self_maintain

let qualified_schema v ~alias =
  match List.assoc_opt alias v.qualified with
  | Some s -> s
  | None -> raise Not_found

let screen_for v ~alias =
  match Hashtbl.find_opt v.screens alias with
  | Some screen -> screen
  | None ->
    let screen = Irrelevance.prepare ~lookup:v.lookup ~spj:v.spj ~alias in
    Hashtbl.replace v.screens alias screen;
    screen

let lint ?keys v =
  let keys = Option.value keys ~default:v.keys in
  Analysis.Analyzer.run ~keys ~lookup:v.lookup v.spj

let apply_delta v delta = Delta.apply delta v.state

(* Recompute and the checkpoint's restore mutate the materialization in
   place (and, for aggregate views, the inner materialization too): the
   contents object may be registered in a manager catalog as the input
   of dependent views, so replacing it wholesale would orphan those
   registrations. *)
let recompute v db =
  let fresh = Query.Spj.eval v.lookup db v.spj in
  match v.grouped with
  | None -> Relation.assign ~into:v.state ~src:fresh
  | Some g ->
    Relation.assign ~into:(Grouped.inner g) ~src:fresh;
    Grouped.rebuild g;
    Relation.assign ~into:v.state ~src:(Grouped.render g)

let checkpoint v =
  let saved_state = Relation.copy v.state in
  match v.grouped with
  | None -> fun () -> Relation.assign ~into:v.state ~src:saved_state
  | Some g ->
    let saved_inner = Relation.copy (Grouped.inner g) in
    fun () ->
      Relation.assign ~into:(Grouped.inner g) ~src:saved_inner;
      Grouped.rebuild g;
      Relation.assign ~into:v.state ~src:saved_state

let consistent v db =
  let inner_now = Query.Spj.eval v.lookup db v.spj in
  match v.grouped with
  | None -> Relation.equal v.state inner_now
  | Some g ->
    Relation.equal (Grouped.inner g) inner_now
    && Relation.equal v.state (Query.Aggregate.eval (Grouped.spec g) inner_now)

let pp ppf v =
  Format.fprintf ppf "@[<v 2>view %s = %a@,%a@]" v.name Query.Expr.pp v.expr
    Relation.pp v.state
