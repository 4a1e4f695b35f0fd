open Relalg
module Generate = Workload.Generate
module Rng = Workload.Rng
module Maintenance = Ivm.Maintenance
module View = Ivm.View

type view_spec = {
  view_name : string;
  expr : Query.Expr.t;
  options : Maintenance.options;
  keys : Query.Keys.t;
  mode : Ivm.Manager.mode;
}

type t = {
  seed : int;
  domains : int;
  relations : (string * Schema.t * Generate.column list * Tuple.t list) list;
  views : view_spec list;
  indexes : (string * Attr.t) list;
  transactions : Transaction.t list;
}

let size s =
  List.length s.transactions
  + List.fold_left (fun acc txn -> acc + List.length txn) 0 s.transactions
  + List.fold_left (fun acc (_, _, _, ts) -> acc + List.length ts) 0 s.relations
  + List.length s.views
  + List.length s.indexes

let build_db s =
  let db = Database.create () in
  List.iter
    (fun (name, schema, _, tuples) ->
      Database.register db name (Relation.of_tuples schema tuples))
    s.relations;
  db

let filter_valid db txn =
  (* Simulated membership: overrides accumulate as ops are admitted, so a
     tuple inserted earlier in the transaction is deletable later and vice
     versa — the same evolving-state rule Transaction.net_effect enforces. *)
  let overrides : (string * Tuple.t, bool) Hashtbl.t = Hashtbl.create 16 in
  let mem relation tuple =
    match Hashtbl.find_opt overrides (relation, tuple) with
    | Some present -> present
    | None -> Relation.mem (Database.find db relation) tuple
  in
  List.filter
    (function
      | Transaction.Insert (relation, tuple) ->
        if mem relation tuple then false
        else begin
          Hashtbl.replace overrides (relation, tuple) true;
          true
        end
      | Transaction.Delete (relation, tuple) ->
        if mem relation tuple then begin
          Hashtbl.replace overrides (relation, tuple) false;
          true
        end
        else false)
    txn

(* ------------------------------------------------------------------ *)
(* generation                                                          *)
(* ------------------------------------------------------------------ *)

let int_schema names =
  Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

(* The R/S/T chain family: narrow join keys so joins hit, a wide id-like
   column so relations reach their target sizes. *)
let key_range = 8

let relation_family =
  [
    ( "R",
      [ "A"; "B" ],
      [ Generate.Uniform (0, 400); Generate.Uniform (0, key_range - 1) ],
      1 );
    ( "S",
      [ "B"; "C" ],
      [ Generate.Uniform (0, key_range - 1); Generate.Uniform (0, 20) ],
      0 );
    ( "T",
      [ "C"; "D" ],
      [ Generate.Uniform (0, 20); Generate.Uniform (0, 400) ],
      0 );
  ]

(* Join-key column index per relation, for correlated churn. *)
let key_column name =
  let (_, _, _, key) =
    List.find (fun (n, _, _, _) -> String.equal n name) relation_family
  in
  key

let columns_of relations name =
  let (_, _, columns, _) =
    List.find (fun (n, _, _, _) -> String.equal n name) relations
  in
  columns

let view_templates =
  let open Condition.Formula.Dsl in
  [|
    Query.Expr.(select (v "A" <% i 200) (base "R"));
    Query.Expr.(project [ "B" ] (base "R"));
    Query.Expr.(join (base "R") (base "S"));
    Query.Expr.(
      project [ "A"; "C" ]
        (select
           ((v "A" <% i 200) &&% (v "C" >% i 5))
           (join (base "R") (base "S"))));
    Query.Expr.(
      select ((v "B" =% i 3) ||% (v "C" <% i 4))
        (join_all [ base "R"; base "S"; base "T" ]));
    Query.Expr.(
      project [ "B"; "D" ]
        (select
           ((v "C" >% i 2) &&% (v "D" <% i 300))
           (join (base "S") (base "T"))));
    Query.Expr.(project [ "C" ] (select (v "C" <>% i 7) (base "S")));
    (* A self-join: two aliases of one store in every truth-table row. *)
    Query.Expr.(
      project [ "A"; "A2" ]
        (select (v "B" =% v "B2")
           (product (base "R")
              (rename [ ("A", "A2"); ("B", "B2") ] (base "R")))));
  |]

(* The join keys of the family.  A stream indexes a random subset, so
   the index probe of [Ops.hash_join] runs in lockstep too. *)
let join_keys = [ ("R", "B"); ("S", "B"); ("S", "C"); ("T", "C") ]

(* Base relations are sets, so the full attribute list is always a sound
   candidate key — streams declare it for every relation, which arms the
   self-maintainability analysis without trusting anything beyond set
   semantics.  (Join views recover both full keys through the equality
   classes; single-source views need no key at all.) *)
let stream_keys =
  [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "D" ]) ]

let agg func output = { Query.Aggregate.func; output }

(* Grouped views over the same family: every ring instance appears, MIN
   and MAX both grouped and global (the keyless forms exercise the
   group-disappears-at-zero rule hardest), AVG for the product ring. *)
let aggregate_templates =
  let open Condition.Formula.Dsl in
  [|
    Query.Expr.(
      group_by ~keys:[ "B" ]
        [ agg Query.Aggregate.Count "cnt"; agg (Query.Aggregate.Sum "A") "sum_a" ]
        (base "R"));
    Query.Expr.(
      group_by ~keys:[]
        [ agg Query.Aggregate.Count "cnt"; agg (Query.Aggregate.Min "A") "min_a" ]
        (base "R"));
    Query.Expr.(
      group_by ~keys:[ "B" ]
        [
          agg (Query.Aggregate.Min "A") "min_a";
          agg (Query.Aggregate.Max "A") "max_a";
        ]
        (select (v "A" <% i 300) (base "R")));
    Query.Expr.(
      group_by ~keys:[ "C" ]
        [ agg Query.Aggregate.Count "cnt"; agg (Query.Aggregate.Sum "A") "sum_a" ]
        (join (base "R") (base "S")));
    Query.Expr.(
      group_by ~keys:[ "B" ] [ agg (Query.Aggregate.Avg "C") "avg_c" ] (base "S"));
  |]

(* A dependent view over [parent], shaped from the parent's output
   schema so it compiles whatever template the parent drew: plain
   select/project children keep counted multiplicities flowing through
   the tower, aggregate children stack GROUP BY on GROUP BY. *)
let tower_child rng ~parent ~schema =
  let ints =
    List.filter_map
      (fun (a, ty) -> if ty = Value.Int_ty then Some a else None)
      (Schema.attrs schema)
  in
  let open Condition.Formula.Dsl in
  match ints with
  | [] ->
    Query.Expr.(group_by ~keys:[] [ agg Query.Aggregate.Count "cnt" ] (base parent))
  | a :: rest -> (
    match Rng.int rng 4 with
    | 0 -> Query.Expr.(select (v a >% i 0) (base parent))
    | 1 -> Query.Expr.(project [ a ] (base parent))
    | 2 ->
      Query.Expr.(
        group_by ~keys:[]
          [
            agg Query.Aggregate.Count "cnt";
            agg (Query.Aggregate.Sum a) ("sum_" ^ a);
          ]
          (base parent))
    | _ -> (
      match rest with
      | key :: _ ->
        Query.Expr.(
          group_by ~keys:[ key ]
            [ agg (Query.Aggregate.Min a) ("min_" ^ a) ]
            (base parent))
      | [] ->
        Query.Expr.(
          group_by ~keys:[]
            [ agg (Query.Aggregate.Max a) ("max_" ^ a) ]
            (base parent))))

(* The manager defers only a view over base relations ([base]) that no
   view reads ([feeds]: every name some view of the stream reads). *)
let deferrable ~base ~feeds v =
  List.for_all (fun n -> List.mem n base) (Query.Expr.base_names v.expr)
  && not (List.mem v.view_name feeds)

let feeds views = List.concat_map (fun v -> Query.Expr.base_names v.expr) views

(* Shrinking can drop a parent out from under its children; candidates
   that orphan (or self-reference, or redefine) a view are not
   replayable and must be rejected before they reach the engine; so is
   a deferred view the manager would refuse. *)
let well_formed (s : t) =
  let base = List.map (fun (name, _, _, _) -> name) s.relations in
  let feeds = feeds s.views in
  let rec go defined = function
    | [] -> true
    | v :: rest ->
      (not (List.mem v.view_name defined))
      && List.for_all
           (fun n -> List.mem n base || List.mem n defined)
           (Query.Expr.base_names v.expr)
      && (v.mode = Ivm.Manager.Immediate || deferrable ~base ~feeds v)
      && go (v.view_name :: defined) rest
  in
  go [] s.views

let random_options rng =
  let strategy =
    match Rng.int rng 5 with
    | 0 -> Maintenance.Recompute
    | 1 | 2 -> Maintenance.Differential
    | 3 -> Maintenance.Self_maintain
    | _ -> Maintenance.Adaptive
  in
  {
    Maintenance.strategy;
    screen = Rng.chance rng 0.7;
    reuse = Rng.chance rng 0.5;
    order = (if Rng.chance rng 0.5 then `Greedy else `Declaration);
    join_impl = (if Rng.chance rng 0.8 then `Hash else `Nested_loop);
    (* A threshold of 1 forces intra-view sharding onto the tiny fuzz
       relations, so multi-domain fuzz runs lockstep-check the sharded
       evaluation path against the oracle, not just the default that
       would never trigger at this scale. *)
    shard_min =
      (if Rng.chance rng 0.5 then 1 else Ivm.Delta_eval.default_shard_min);
  }

(* Every update to [relation] that all screens of all views prove
   irrelevant (Theorem 4.1).  Views whose screens keep everything make the
   predicate unsatisfiable in practice; fresh_where then returns nothing
   and the caller falls back to ordinary churn. *)
let irrelevant_pred views relation tuple =
  List.for_all
    (fun view ->
      List.for_all
        (fun (source : Query.Spj.source) ->
          not
            (Ivm.Irrelevance.relevant
               (View.screen_for view ~alias:source.Query.Spj.alias)
               tuple))
        (Query.Spj.sources_of_relation (View.spj view) relation))
    views

let generate ?(domains = 1) ?(aggregates = false) ~seed ~transactions () =
  let rng = Rng.make seed in
  let relations =
    List.map
      (fun (name, attrs, columns, _) ->
        let schema = int_schema attrs in
        let cardinality = Rng.range rng ~lo:5 ~hi:30 in
        let contents =
          List.map fst
            (Relation.elements (Generate.relation rng schema columns cardinality))
        in
        (name, schema, columns, contents))
      relation_family
  in
  let view_count = Rng.range rng ~lo:2 ~hi:4 in
  let template_order =
    let indices = Array.init (Array.length view_templates) Fun.id in
    Rng.shuffle rng indices;
    indices
  in
  let views =
    List.init view_count (fun k ->
        {
          view_name = Printf.sprintf "v%d" k;
          expr = view_templates.(template_order.(k));
          options = random_options rng;
          keys = stream_keys;
          mode = Ivm.Manager.Immediate;
        })
  in
  (* Scratch state the transactions are generated against: the stream must
     be valid when replayed from the initial contents.  Compiled views give
     the screens the irrelevant-insert hunt needs; screens depend only on
     the definition, never on the evolving contents. *)
  let scratch =
    let db = Database.create () in
    List.iter
      (fun (name, schema, _, tuples) ->
        Database.register db name (Relation.of_tuples schema tuples))
      relations;
    db
  in
  let compiled =
    List.map (fun v -> View.define ~name:v.view_name ~db:scratch v.expr) views
  in
  (* The aggregate arm appends grouped views and a small tower on top of
     whatever was already drawn.  Each compiled view's contents are
     registered into the scratch database under the view's name, so a
     child's [View.define] resolves its parent exactly the way the
     manager's catalog will at replay; transactions only ever touch the
     base family, so the registered view contents going stale under
     churn is harmless. *)
  let views, compiled =
    if not aggregates then (views, compiled)
    else begin
      let agg_specs =
        List.init
          (1 + Rng.int rng 2)
          (fun k ->
            {
              view_name = Printf.sprintf "a%d" k;
              expr =
                aggregate_templates.(Rng.int rng
                                       (Array.length aggregate_templates));
              options = random_options rng;
              keys = stream_keys;
              mode = Ivm.Manager.Immediate;
            })
      in
      let define_spec v = View.define ~name:v.view_name ~db:scratch v.expr in
      let register v c =
        Database.register scratch v.view_name (View.contents c)
      in
      List.iter2 register views compiled;
      let agg_compiled =
        List.map
          (fun v ->
            let c = define_spec v in
            register v c;
            c)
          agg_specs
      in
      let tower = ref [] in
      for k = 0 to Rng.int rng 2 do
        let parents =
          List.map2
            (fun v c -> (v.view_name, View.schema c))
            (views @ agg_specs @ List.rev_map fst !tower)
            (compiled @ agg_compiled @ List.rev_map snd !tower)
        in
        let pname, pschema =
          List.nth parents (Rng.int rng (List.length parents))
        in
        let spec =
          {
            view_name = Printf.sprintf "w%d" k;
            expr = tower_child rng ~parent:pname ~schema:pschema;
            options = random_options rng;
            keys = stream_keys;
            mode = Ivm.Manager.Immediate;
          }
        in
        let c = define_spec spec in
        register spec c;
        tower := (spec, c) :: !tower
      done;
      ( views @ agg_specs @ List.rev_map fst !tower,
        compiled @ agg_compiled @ List.rev_map snd !tower )
    end
  in
  let relation_names = List.map (fun (name, _, _, _) -> name) relations in
  let random_relation () =
    List.nth relation_names (Rng.int rng (List.length relation_names))
  in
  let mixed () =
    Generate.mixed_transaction rng scratch
      (List.filter_map
         (fun name ->
           if Rng.chance rng 0.7 then
             Some (name, columns_of relations name, Rng.int rng 4, Rng.int rng 4)
           else None)
         relation_names)
  in
  let txns =
    List.init transactions (fun _ ->
        let txn =
          match Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 -> mixed ()
          | 5 ->
            let name = random_relation () in
            Generate.update_transaction rng scratch name
              ~columns:(columns_of relations name)
              ~updates:(1 + Rng.int rng 3)
          | 6 ->
            let name = random_relation () in
            Generate.noop_transaction rng scratch name
              ~columns:(columns_of relations name)
              ~n:(1 + Rng.int rng 3)
          | 7 ->
            let name = random_relation () in
            Generate.correlated_transaction rng scratch name
              ~key:(key_column name)
              ~columns:(columns_of relations name)
              ~inserts:(Rng.int rng 3) ~deletes:(1 + Rng.int rng 3)
          | _ ->
            (* Inserts every view provably ignores, to stress screening;
               falls back to ordinary churn when no such tuple exists. *)
            let name = random_relation () in
            let base = Database.find scratch name in
            let irrelevant =
              Generate.fresh_where rng base
                (columns_of relations name)
                ~pred:(irrelevant_pred compiled name)
                (1 + Rng.int rng 3)
            in
            if irrelevant = [] then mixed ()
            else List.map (fun t -> Transaction.insert name t) irrelevant
        in
        Transaction.apply scratch (Transaction.net_effect scratch txn);
        txn)
  in
  (* Drawn last, so the rest of the stream is the same with or without. *)
  let indexes = List.filter (fun _ -> Rng.chance rng 0.5) join_keys in
  (* Refresh modes come after the indexes, for the same reason. *)
  let views =
    let feeds = feeds views in
    List.map
      (fun v ->
        if deferrable ~base:relation_names ~feeds v && Rng.chance rng 0.25 then
          { v with mode = Ivm.Manager.Deferred }
        else v)
      views
  in
  { seed; domains; relations; views; indexes; transactions = txns }

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_options ppf (o : Maintenance.options) =
  Format.fprintf ppf "%s, screen=%s, %s order, %s join, shard_min=%d"
    (Maintenance.strategy_name o.Maintenance.strategy)
    (if o.Maintenance.screen then "on" else "off")
    (match o.Maintenance.order with
    | `Greedy -> "greedy"
    | `Declaration -> "declaration")
    (match o.Maintenance.join_impl with
    | `Hash -> "hash"
    | `Nested_loop -> "nested-loop")
    o.Maintenance.shard_min

(* Break-free renderings: counterexamples should paste back as one line
   per item, which the boxed Schema.pp/Tuple.pp printers do not ensure. *)
let tuple_to_string t =
  "("
  ^ String.concat ", "
      (List.map (Format.asprintf "%a" Value.pp) (Array.to_list t))
  ^ ")"

let schema_to_string schema =
  "("
  ^ String.concat ", "
      (List.map
         (fun (attr, ty) ->
           Printf.sprintf "%s:%s" attr
             (match ty with Value.Int_ty -> "int" | Value.Str_ty -> "str"))
         (Schema.attrs schema))
  ^ ")"

let pp_op ppf = function
  | Transaction.Insert (relation, tuple) ->
    Format.fprintf ppf "insert %s %s" relation (tuple_to_string tuple)
  | Transaction.Delete (relation, tuple) ->
    Format.fprintf ppf "delete %s %s" relation (tuple_to_string tuple)

let pp ppf s =
  Format.fprintf ppf "@[<v>seed %d, domains %d@," s.seed s.domains;
  List.iter
    (fun (name, schema, _, tuples) ->
      Format.fprintf ppf "relation %s %s: %d tuple(s)@," name
        (schema_to_string schema) (List.length tuples);
      List.iter
        (fun t -> Format.fprintf ppf "  %s@," (tuple_to_string t))
        tuples)
    s.relations;
  List.iter
    (fun v ->
      Format.fprintf ppf "view %s [%s, %a]:@,  %a@," v.view_name
        (match v.mode with
        | Ivm.Manager.Immediate -> "immediate"
        | Ivm.Manager.Deferred -> "deferred")
        pp_options v.options Query.Expr.pp v.expr)
    s.views;
  List.iter
    (fun (relation, attr) -> Format.fprintf ppf "index %s.%s@," relation attr)
    s.indexes;
  List.iteri
    (fun i txn ->
      Format.fprintf ppf "transaction %d:%s@," (i + 1)
        (if txn = [] then " (empty)" else "");
      List.iter (fun op -> Format.fprintf ppf "  %a@," pp_op op) txn)
    s.transactions;
  Format.fprintf ppf "@]"
