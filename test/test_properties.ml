(* Property-based tests.  Each property derives a full random scenario
   (database, view definition, transactions, maintenance options) from a
   single integer seed via the deterministic Workload generators, so
   failures reproduce exactly. *)

open Relalg
module F = Condition.Formula
module Expr = Query.Expr
module Spj = Query.Spj
module Planner = Query.Planner
module Delta = Ivm.Delta
module Delta_eval = Ivm.Delta_eval
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Rng = Workload.Rng
module Generate = Workload.Generate
open F.Dsl

let property name ?(count = 100) law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(int_range 0 1_000_000) law)

(* ------------------------------------------------------------------ *)
(* Random scenario construction                                       *)
(* ------------------------------------------------------------------ *)

type scenario = {
  db : Database.t;
  expr : Expr.t;
  update_specs : (string * Generate.column list * int * int) list;
}

(* Small relations over a narrow key range so joins hit and conditions
   select nontrivially. *)
let random_scenario rng =
  let key_range = 8 in
  let size () = Rng.range rng ~lo:5 ~hi:30 in
  let r_cols =
    [ Generate.Uniform (0, 400); Generate.Uniform (0, key_range - 1) ]
  in
  let s_cols =
    [ Generate.Uniform (0, key_range - 1); Generate.Uniform (0, 20) ]
  in
  let t_cols = [ Generate.Uniform (0, 20); Generate.Uniform (0, 400) ] in
  let db = Database.create () in
  Database.register db "R"
    (Generate.relation rng (Helpers.int_schema [ "A"; "B" ]) r_cols (size ()));
  Database.register db "S"
    (Generate.relation rng (Helpers.int_schema [ "B"; "C" ]) s_cols (size ()));
  Database.register db "T"
    (Generate.relation rng (Helpers.int_schema [ "C"; "D" ]) t_cols (size ()));
  let conditions =
    [|
      (v "A" <% i 200) &&% (v "C" >% i 5);
      (v "B" =% i 3) ||% (v "C" <% i 4);
      (v "A" >=% v "C" +% 2) &&% (v "B" <=% i 6);
      v "C" <>% i 7;
      (v "A" <% i 100) ||% ((v "B" >=% i 2) &&% (v "C" <=% i 15));
    |]
  in
  let expr =
    match Rng.int rng 6 with
    | 0 -> Expr.(select (v "A" <% i 200) (base "R"))
    | 1 -> Expr.(project [ "B" ] (base "R"))
    | 2 -> Expr.(join (base "R") (base "S"))
    | 3 ->
      Expr.(
        project [ "A"; "C" ]
          (select (Rng.choice rng conditions) (join (base "R") (base "S"))))
    | 4 ->
      Expr.(
        select (Rng.choice rng conditions)
          (join_all [ base "R"; base "S"; base "T" ]))
    | _ ->
      Expr.(
        project [ "B"; "D" ]
          (select
             ((v "C" >% i 2) &&% (v "D" <% i 300))
             (join (base "S") (base "T"))))
  in
  let spec name cols =
    (name, cols, Rng.int rng 4, Rng.int rng 4)
  in
  {
    db;
    expr;
    update_specs = [ spec "R" r_cols; spec "S" s_cols; spec "T" t_cols ];
  }

let random_options rng =
  {
    Maintenance.strategy = Maintenance.Differential;
    screen = Rng.chance rng 0.5;
    reuse = Rng.chance rng 0.5;
    order = (if Rng.chance rng 0.5 then `Greedy else `Declaration);
    join_impl = (if Rng.chance rng 0.8 then `Hash else `Nested_loop);
    shard_min =
      (if Rng.chance rng 0.5 then 1 else Ivm.Delta_eval.default_shard_min);
  }

(* ------------------------------------------------------------------ *)
(* The central property: differential maintenance equals complete     *)
(* re-evaluation, counters included, across random transactions.      *)
(* ------------------------------------------------------------------ *)

let differential_equals_recompute seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let view =
    View.define
      ~minimize:(Rng.chance rng 0.5)
      ~name:"v" ~db:scenario.db scenario.expr
  in
  let ok = ref true in
  for _ = 1 to 3 do
    let txn = Generate.mixed_transaction rng scenario.db scenario.update_specs in
    let options = random_options rng in
    (* Algorithm 5.1's per-view step, run here rather than through a
       manager, which would fix [minimize] and the options at definition:
       every transaction draws its own options. *)
    let net = Transaction.net_effect scenario.db txn in
    Maintenance.apply_deletes scenario.db net;
    ignore
      (Maintenance.maintain_differential ~options ~decision:None view
         ~db:scenario.db ~net);
    Maintenance.apply_inserts scenario.db net;
    if not (View.consistent view scenario.db) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Tagged reference evaluator agrees with the pair evaluator          *)
(* ------------------------------------------------------------------ *)

let tagged_equals_pair seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let view = View.define ~name:"v" ~db:scenario.db scenario.expr in
  let spj = View.spj view in
  let before = Relation.copy (View.contents view) in
  let txn = Generate.mixed_transaction rng scenario.db scenario.update_specs in
  let net = Transaction.net_effect scenario.db txn in
  Maintenance.apply_deletes scenario.db net;
  let inputs =
    List.map
      (fun (s : Spj.source) ->
        let q = View.qualified_schema view ~alias:s.Spj.alias in
        let old_part =
          Relation.reschema (Database.find scenario.db s.Spj.relation) q
        in
        let delta =
          Option.map (Delta.of_lists q) (List.assoc_opt s.Spj.relation net)
        in
        (s.Spj.alias, old_part, delta))
      spj.Spj.sources
  in
  let pair =
    Delta_eval.eval ~spj
      ~inputs:
        (List.map
           (fun (alias, old_part, delta) ->
             { Delta_eval.alias; old_part; delta })
           inputs)
      ()
  in
  let tagged =
    Ivm.Tagged_eval.eval_spj ~spj
      ~inputs:
        (List.map
           (fun (alias, old_part, delta) ->
             let delta =
               Option.value
                 ~default:(Delta.empty (Relation.schema old_part))
                 delta
             in
             (alias, Ivm.Tagged_eval.of_parts ~old_part ~delta))
           inputs)
  in
  (* Restore the base state for other iterations (not needed, single shot). *)
  Maintenance.apply_inserts scenario.db net;
  let deltas_agree =
    Relation.equal pair.Delta_eval.delta.Delta.inserts
      tagged.Ivm.Tagged_eval.delta.Delta.inserts
    && Relation.equal pair.Delta_eval.delta.Delta.deletes
         tagged.Ivm.Tagged_eval.delta.Delta.deletes
  in
  (* unchanged = old view minus the delete contributions *)
  let expected_unchanged =
    Relation.diff before tagged.Ivm.Tagged_eval.delta.Delta.deletes
  in
  deltas_agree
  && Relation.equal expected_unchanged tagged.Ivm.Tagged_eval.unchanged

(* ------------------------------------------------------------------ *)
(* Irrelevance soundness: provably irrelevant updates never change    *)
(* the view, in any database state.                                   *)
(* ------------------------------------------------------------------ *)

let irrelevance_sound seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let view = View.define ~name:"v" ~db:scenario.db scenario.expr in
  let spj = View.spj view in
  let lookup name = Relation.schema (Database.find scenario.db name) in
  let ok = ref true in
  List.iter
    (fun (s : Spj.source) ->
      let screen = View.screen_for view ~alias:s.Spj.alias in
      let base = Database.find scenario.db s.Spj.relation in
      let columns = ref [] in
      (match s.Spj.relation with
      | "R" -> columns := [ Generate.Uniform (0, 400); Generate.Uniform (0, 7) ]
      | "S" -> columns := [ Generate.Uniform (0, 7); Generate.Uniform (0, 20) ]
      | _ -> columns := [ Generate.Uniform (0, 20); Generate.Uniform (0, 400) ]);
      for _ = 1 to 10 do
        let t = Generate.tuple rng !columns in
        if (not (Ivm.Irrelevance.relevant screen t)) && not (Relation.mem base t)
        then begin
          (* Inserting a provably irrelevant tuple must not change the
             view, independent of the database state (Theorem 4.1). *)
          let before = Spj.eval lookup scenario.db spj in
          Relation.add base t;
          let after = Spj.eval lookup scenario.db spj in
          Relation.remove base t;
          if not (Relation.equal before after) then ok := false
        end
      done)
    spj.Spj.sources;
  !ok

(* ------------------------------------------------------------------ *)
(* Counted-operator laws                                              *)
(* ------------------------------------------------------------------ *)

let random_counted rng names max_val =
  let schema = Helpers.int_schema names in
  let r = Relation.create schema in
  for _ = 1 to Rng.int rng 20 do
    let t =
      Tuple.of_ints (List.map (fun _ -> Rng.int rng max_val) names)
    in
    Relation.add ~count:(1 + Rng.int rng 3) r t
  done;
  r

let project_distributes_over_diff seed =
  let rng = Rng.make seed in
  let r1 = random_counted rng [ "A"; "B" ] 5 in
  (* r2 is a sub-multiset of r1 so the difference is defined. *)
  let r2 = Relation.create (Relation.schema r1) in
  Relation.iter
    (fun t c ->
      let keep = Rng.int rng (c + 1) in
      if keep > 0 then Relation.add ~count:keep r2 t)
    r1;
  Relation.equal
    (Ops.project (Relation.diff r1 r2) [ "B" ])
    (Relation.diff (Ops.project r1 [ "B" ]) (Ops.project r2 [ "B" ]))

let join_distributes_over_union seed =
  let rng = Rng.make seed in
  let a = random_counted rng [ "A"; "B" ] 4 in
  let b = random_counted rng [ "A"; "B" ] 4 in
  let c = random_counted rng [ "B"; "C" ] 4 in
  Relation.equal
    (Ops.natural_join (Relation.union a b) c)
    (Relation.union (Ops.natural_join a c) (Ops.natural_join b c))

let select_commutes_with_union seed =
  let rng = Rng.make seed in
  let a = random_counted rng [ "A" ] 6 in
  let b = random_counted rng [ "A" ] 6 in
  let p t = Value.int (Tuple.get t 0) mod 2 = 0 in
  Relation.equal
    (Ops.select p (Relation.union a b))
    (Relation.union (Ops.select p a) (Ops.select p b))

(* ------------------------------------------------------------------ *)
(* run and run_many against a naive reference                         *)
(* ------------------------------------------------------------------ *)

(* The planner's reference, sharing no code with it: the full product of
   the operands, then the whole DNF, then the projection. *)
let reference ~sources ~condition_dnf ~projection =
  let columns =
    List.concat_map
      (fun (_, r) ->
        let schema = Relation.schema r in
        List.map (fun a -> (a, Schema.ty schema a)) (Schema.names schema))
      sources
  in
  let rec index a k = function
    | [] -> raise Not_found
    | (b, _) :: rest -> if String.equal a b then k else index a (k + 1) rest
  in
  let at t a = t.(index a 0 columns) in
  let product =
    List.fold_left
      (fun acc (_, r) ->
        List.concat_map
          (fun (t, c) ->
            List.map (fun (u, d) -> (Array.append t u, c * d)) (Relation.elements r))
          acc)
      [ ([||], 1) ] sources
  in
  let out =
    Relation.create
      (Schema.make (List.map (fun (o, q) -> (o, List.assoc q columns)) projection))
  in
  List.iter
    (fun (t, c) ->
      if List.exists (List.for_all (F.eval_atom (at t))) condition_dnf then
        Relation.add ~count:c out
          (Array.of_list (List.map (fun (_, q) -> at t q) projection)))
    product;
  out

let run_many_equals_run seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let lookup name = Relation.schema (Database.find scenario.db name) in
  let expr =
    match Rng.int rng 4 with
    | 0 ->
      (* A self-join: two aliases of one store. *)
      Expr.(
        project [ "A"; "A2" ]
          (select (v "B" =% v "B2")
             (product (base "R") (rename [ ("A", "A2"); ("B", "B2") ] (base "R")))))
    | 1 ->
      (* The first disjunct has no atom local to either source. *)
      Expr.(select ((v "A" <% v "C") ||% (v "B" =% i 3)) (join (base "R") (base "S")))
    | _ -> scenario.expr
  in
  let spj = Spj.compile lookup expr in
  let condition_dnf =
    match Rng.int rng 5 with
    | 0 -> [] (* false *)
    | 1 ->
      (* A constant-only atom, true or false, in every disjunct. *)
      let k = Rng.int rng 3 in
      List.map
        (fun c -> F.atom (F.O_const (Value.Int 1)) F.Lt (F.O_const (Value.Int k)) :: c)
        spj.Spj.condition_dnf
    | _ -> spj.Spj.condition_dnf
  in
  let qualified s =
    Relation.reschema
      (Database.find scenario.db s.Spj.relation)
      (Spj.qualified_schema lookup s)
  in
  (* Variants swap random sources for small random subsets, or for the
     tuples that push-down empties: each fails a local atom of every
     disjunct (none does when some disjunct has no local atom). *)
  let variant () =
    List.map
      (fun (s : Spj.source) ->
        let full = qualified s in
        let schema = Relation.schema full in
        let local a = List.for_all (Schema.mem schema) (F.atom_vars a) in
        let subset keep =
          let r = Relation.create schema in
          Relation.iter (fun t c -> if keep t then Relation.add ~count:c r t) full;
          r
        in
        ( s.Spj.alias,
          match Rng.int rng 10 with
          | 0 | 1 | 2 | 3 -> subset (fun _ -> Rng.chance rng 0.3)
          | 4 ->
            subset (fun t ->
                List.for_all
                  (List.exists (fun a ->
                       local a && not (F.eval_atom (Tuple.value schema t) a)))
                  condition_dnf)
          | _ -> full ))
      spj.Spj.sources
  in
  let variants = List.init (1 + Rng.int rng 5) (fun _ -> variant ()) in
  let projection = spj.Spj.projection in
  let draw_impl () = if Rng.chance rng 0.5 then `Hash else `Nested_loop in
  let many =
    Planner.run_many ~join_impl:(draw_impl ()) ~variants ~condition_dnf
      ~projection ()
  in
  List.for_all2
    (fun sources result ->
      let expected = reference ~sources ~condition_dnf ~projection in
      let order = if Rng.chance rng 0.5 then `Greedy else `Declaration in
      Relation.equal result expected
      && Relation.equal expected
           (Planner.run ~order ~join_impl:(draw_impl ()) ~sources ~condition_dnf
              ~projection ()))
    variants many

(* ------------------------------------------------------------------ *)
(* Tableau minimization preserves the visible tuple set               *)
(* ------------------------------------------------------------------ *)

let minimize_preserves_set seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let lookup name = Relation.schema (Database.find scenario.db name) in
  let redundant =
    (* Inject a duplicate join to give the minimizer something to fold
       half of the time. *)
    if Rng.chance rng 0.5 then Expr.(join scenario.expr scenario.expr)
    else scenario.expr
  in
  match Spj.compile lookup redundant with
  | spj ->
    let minimized = Query.Tableau.minimize spj in
    Relation.set_equal
      (Spj.eval lookup scenario.db spj)
      (Spj.eval lookup scenario.db minimized)
  | exception Spj.Compile_error _ ->
    (* join of expr with itself can collide on attributes for project
       shapes; that is fine, nothing to test. *)
    true

(* ------------------------------------------------------------------ *)
(* Transactions: net effect equals sequential application             *)
(* ------------------------------------------------------------------ *)

let net_effect_equals_sequential seed =
  let rng = Rng.make seed in
  let schema = Helpers.int_schema [ "A" ] in
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples schema
       (List.filter_map
          (fun k -> if Rng.chance rng 0.5 then Some (Tuple.of_ints [ k ]) else None)
          (List.init 8 Fun.id)));
  let shadow = Relation.copy (Database.find db "R") in
  let txn =
    List.init (Rng.int rng 12) (fun _ ->
        let t = Tuple.of_ints [ Rng.int rng 8 ] in
        if Rng.chance rng 0.5 then Transaction.insert "R" t
        else Transaction.delete "R" t)
  in
  (* Filter to a valid op sequence against the shadow state. *)
  let valid =
    List.filter
      (fun op ->
        match op with
        | Transaction.Insert (_, t) ->
          if Relation.mem shadow t then false
          else begin
            Relation.add shadow t;
            true
          end
        | Transaction.Delete (_, t) ->
          if Relation.mem shadow t then begin
            Relation.remove shadow t;
            true
          end
          else false)
      txn
  in
  let net = Transaction.net_effect db valid in
  Transaction.apply db net;
  Relation.equal shadow (Database.find db "R")

(* ------------------------------------------------------------------ *)
(* String-fragment solver vs a brute-force oracle                     *)
(* ------------------------------------------------------------------ *)

let string_solver_sound seed =
  let rng = Rng.make seed in
  let vars = [ "x"; "y"; "z" ] in
  let constants = [ "a"; "b"; "c" ] in
  let operand () =
    if Rng.chance rng 0.6 then
      F.O_var (List.nth vars (Rng.int rng (List.length vars)))
    else
      F.O_const
        (Value.Str (List.nth constants (Rng.int rng (List.length constants))))
  in
  let cmp () =
    List.nth [ F.Eq; F.Neq; F.Lt; F.Leq; F.Gt; F.Geq ] (Rng.int rng 6)
  in
  let atoms =
    List.init (1 + Rng.int rng 5) (fun _ -> F.atom (operand ()) (cmp ()) (operand ()))
  in
  (* Oracle: enumerate assignments over a small closed string domain.  The
     domain includes the constants plus fresh values between and beyond
     them, so Sat answers within the domain are representative. *)
  let domain = [ "a"; "ab"; "b"; "bc"; "c"; "d" ] in
  let rec assignments = function
    | [] -> [ [] ]
    | v :: rest ->
      List.concat_map
        (fun tail -> List.map (fun x -> (v, x) :: tail) domain)
        (assignments rest)
  in
  let witness =
    List.exists
      (fun assignment ->
        let lookup v = Value.Str (List.assoc v assignment) in
        F.eval_conjunction lookup atoms)
      (assignments vars)
  in
  match Condition.Eq_solver.solve atoms with
  | Condition.Eq_solver.Unsat ->
    (* Unsat must be exact: no witness may exist. *)
    not witness
  | Condition.Eq_solver.Sat ->
    (* Sat is claimed only for the constant-free ordering fragment plus
       equalities; the oracle domain is rich enough to find a witness. *)
    witness
  | Condition.Eq_solver.Unknown -> true

(* ------------------------------------------------------------------ *)
(* Declared domain bounds keep the screen sound                       *)
(* ------------------------------------------------------------------ *)

let bounded_screening_sound seed =
  let rng = Rng.make seed in
  let hi = 20 + Rng.int rng 30 in
  let r_schema = Helpers.int_schema [ "A"; "B" ] in
  let s_schema =
    Schema.make_bounded
      [ ("B", Value.Int_ty, None); ("C", Value.Int_ty, Some (0, hi)) ]
  in
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples r_schema
       (List.init 10 (fun k -> Tuple.of_ints [ k; k mod 5 ])));
  Database.register db "S"
    (Relation.of_tuples s_schema
       (List.init 10 (fun k -> Tuple.of_ints [ k mod 5; k * hi / 10 ])));
  let open Condition.Formula.Dsl in
  let view =
    View.define ~name:"v" ~db
      Query.Expr.(select (v "C" >=% v "A") (join (base "R") (base "S")))
  in
  let screen = Ivm.View.screen_for view ~alias:"R" in
  let lookup name = Relation.schema (Database.find db name) in
  let ok = ref true in
  for _ = 1 to 20 do
    let t = Tuple.of_ints [ Rng.range rng ~lo:(-5) ~hi:(hi + 10); Rng.int rng 5 ] in
    if not (Ivm.Irrelevance.relevant screen t) then begin
      (* Soundness: inserting it (when legal) must leave the view
         unchanged in the current state. *)
      let base = Database.find db "R" in
      if not (Relation.mem base t) then begin
        let before = Query.Spj.eval lookup db (View.spj view) in
        Relation.add base t;
        let after = Query.Spj.eval lookup db (View.spj view) in
        Relation.remove base t;
        if not (Relation.equal before after) then ok := false
      end
    end
  done;
  (* And completeness of the bound: A beyond hi is always irrelevant. *)
  if Ivm.Irrelevance.relevant screen (Tuple.of_ints [ hi + 1; 0 ]) then
    ok := false;
  !ok

(* ------------------------------------------------------------------ *)
(* Parallel commit is observationally identical to sequential commit: *)
(* same seed driven through a 1-domain and a 4-domain manager must    *)
(* produce identical materializations, reports (timings aside) and    *)
(* cumulative counters.                                               *)
(* ------------------------------------------------------------------ *)

module Manager = Ivm.Manager

let report_key (r : Maintenance.report) =
  ( r.Maintenance.view_name,
    Maintenance.strategy_name r.Maintenance.strategy_used,
    ( r.Maintenance.screened_out,
      r.Maintenance.screened_kept,
      r.Maintenance.rows_evaluated ),
    (r.Maintenance.delta_inserts, r.Maintenance.delta_deletes) )

let stats_key (s : Manager.stats) =
  ( ( s.Manager.commits,
      s.Manager.rows_evaluated,
      s.Manager.screened_out,
      s.Manager.screened_kept ),
    ( s.Manager.tuples_inserted,
      s.Manager.tuples_deleted,
      s.Manager.recomputations ),
    ( s.Manager.advisor_decisions,
      s.Manager.advisor_agreements,
      s.Manager.predicted_differential_cost,
      s.Manager.predicted_recompute_cost ) )

(* Replays one seed through a manager of the given parallelism.  Every
   random choice comes from the reseeded [rng], and the database evolves
   identically commit by commit, so both runs see the same scenario, view
   set and transaction stream. *)
let run_parallel_workload ?(shard_min = Delta_eval.default_shard_min) ~domains
    seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let mgr = Manager.create ~domains scenario.db in
  let strategies =
    [|
      Maintenance.Differential; Maintenance.Adaptive; Maintenance.Recompute;
      Maintenance.Self_maintain;
    |]
  in
  let exprs =
    [
      Expr.(select (v "A" <% i 200) (base "R"));
      Expr.(join (base "R") (base "S"));
      Expr.(project [ "A"; "C" ] (select (v "C" >% i 2) (join (base "R") (base "S"))));
      Expr.(join_all [ base "R"; base "S"; base "T" ]);
      Expr.(select ((v "B" >=% i 2) &&% (v "C" <=% i 15)) (join (base "S") (base "T")));
      (* Ring-valued payloads must survive sharding bit-identically too:
         one grouped view over the same family rides in every view set. *)
      Expr.(
        group_by ~keys:[ "B" ]
          [
            { Query.Aggregate.func = Query.Aggregate.Count; output = "cnt" };
            {
              Query.Aggregate.func = Query.Aggregate.Sum "A";
              output = "sum_a";
            };
            {
              Query.Aggregate.func = Query.Aggregate.Min "A";
              output = "min_a";
            };
          ]
          (base "R"));
    ]
  in
  List.iteri
    (fun k expr ->
      let options =
        {
          Maintenance.default_options with
          strategy = strategies.(k mod Array.length strategies);
          screen = Rng.chance rng 0.8;
          shard_min;
        }
      in
      ignore
        (Manager.define_view mgr
           ~name:(Printf.sprintf "v%d" k)
           ~force:true ~options expr))
    exprs;
  ignore
    (Manager.define_view mgr ~name:"deferred" ~mode:Manager.Deferred ~force:true
       Expr.(project [ "B" ] (base "R")));
  (* A dependent view over the grouped view: the dependents phase must
     also commute with sharding and parallelism. *)
  ignore
    (Manager.define_view mgr ~name:"tower" ~force:true
       ~options:{ Maintenance.default_options with shard_min }
       Expr.(select (v "cnt" >% i 1) (base "v5")));
  let report_keys = ref [] in
  for _ = 1 to 4 do
    let txn = Generate.mixed_transaction rng scenario.db scenario.update_specs in
    let reports = Manager.commit mgr txn in
    report_keys := !report_keys @ List.map report_key reports
  done;
  report_keys := !report_keys @ List.map report_key (Manager.refresh_all mgr);
  let materializations =
    List.map
      (fun name ->
        ( name,
          List.sort compare
            (Relation.elements (View.contents (Manager.view mgr name))) ))
      (Manager.view_names mgr)
  in
  let counters =
    List.map (fun name -> (name, stats_key (Manager.stats mgr name)))
      (Manager.view_names mgr)
  in
  (materializations, !report_keys, counters)

let parallel_equals_sequential seed =
  run_parallel_workload ~domains:1 seed = run_parallel_workload ~domains:4 seed

(* Forcing every truth-table row to shard (threshold 1) must not change
   a single materialization, report or counter at any domain count —
   the acceptance bar for intra-view sharding is bit-identical commits
   across all strategies. *)
let sharded_commits_equal_unsharded seed =
  let unsharded = run_parallel_workload ~domains:1 seed in
  List.for_all
    (fun domains ->
      run_parallel_workload ~shard_min:1 ~domains seed = unsharded)
    [ 1; 2; 4 ]

(* The same invariant at the Delta_eval layer, directly: shard-then-
   eval-then-merge of one view delta equals the sequential evaluation
   tuple-for-tuple and count-for-count. *)
let sharded_view_delta_equals_sequential seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let exprs =
    [|
      Expr.(select (v "A" <% i 200) (base "R"));
      Expr.(
        project [ "A"; "C" ] (select (v "C" >% i 2) (join (base "R") (base "S"))));
      Expr.(join_all [ base "R"; base "S"; base "T" ]);
    |]
  in
  let view =
    View.define ~name:"v" ~db:scenario.db
      exprs.(Rng.int rng (Array.length exprs))
  in
  let txn = Generate.mixed_transaction rng scenario.db scenario.update_specs in
  let net = Transaction.net_effect scenario.db txn in
  Maintenance.apply_deletes scenario.db net;
  let options =
    {
      Maintenance.default_options with
      screen = Rng.chance rng 0.5;
      shard_min = 1;
    }
  in
  let seq_delta, seq_report =
    Maintenance.view_delta ~options view ~db:scenario.db ~net
  in
  List.for_all
    (fun domains ->
      let pool = Exec.Pool.shared ~domains in
      let delta, report =
        Maintenance.view_delta ~options ~pool view ~db:scenario.db ~net
      in
      Relation.equal seq_delta.Delta.inserts delta.Delta.inserts
      && Relation.equal seq_delta.Delta.deletes delta.Delta.deletes
      && report_key report = report_key seq_report)
    [ 1; 2; 4 ]

(* Relation.shard is an exact partition: counts preserved, every tuple
   in exactly one shard, placement independent of insertion history. *)
let shard_partitions_relation seed =
  let rng = Rng.make seed in
  let r = random_counted rng [ "A"; "B" ] 12 in
  let n = 1 + Rng.int rng 6 in
  let shards = Relation.shard ~n r in
  let reunion = Relation.create (Relation.schema r) in
  Array.iter (fun s -> Relation.union_into ~into:reunion s) shards;
  let disjoint =
    Array.to_list shards
    |> List.for_all (fun s ->
           Relation.fold
             (fun t _ acc ->
               acc
               && Array.for_all
                    (fun other -> other == s || not (Relation.mem other t))
                    shards)
             s true)
  in
  Array.length shards = n && Relation.equal reunion r && disjoint

(* The chunked screening path needs update sets past its 2*512-tuple
   threshold, larger than any commit the other properties make — drive
   Irrelevance.screen_delta_stats directly on a big delta and require
   tuple-for-tuple (and count-for-count) agreement with the sequential
   path. *)
let chunked_screening_equals_sequential seed =
  let rng = Rng.make seed in
  let scenario = random_scenario rng in
  let view =
    View.define ~name:"v" ~db:scenario.db
      Expr.(
        select
          ((v "A" <% i 200) &&% (v "C" >% i 5))
          (join (base "R") (base "S")))
  in
  let screen = Ivm.View.screen_for view ~alias:"R" in
  let schema = View.qualified_schema view ~alias:"R" in
  let big_side () =
    List.init 2_000 (fun _ ->
        Tuple.of_ints [ Rng.range rng ~lo:(-100) ~hi:500; Rng.int rng 40 ])
  in
  let delta = Delta.of_lists schema (big_side (), big_side ()) in
  let pool = Exec.Pool.shared ~domains:4 in
  let seq, seq_stats = Ivm.Irrelevance.screen_delta_stats screen delta in
  let par, par_stats = Ivm.Irrelevance.screen_delta_stats ~pool screen delta in
  seq_stats = par_stats
  && Relation.equal seq.Delta.inserts par.Delta.inserts
  && Relation.equal seq.Delta.deletes par.Delta.deletes

(* Delta.bank from a counted state: a run of deltas — set nets valid in
   the state they meet (a delete takes one copy) and counted deltas
   that hold tuples in both parts — applied one by one and banked into
   one delta.  Applying the bank reaches the same state, and the bank
   never holds a tuple in both parts. *)
let bank_equals_sequential seed =
  let rng = Rng.make seed in
  let schema = Schema.make [ ("A", Value.Int_ty) ] in
  let universe = List.init 6 (fun n -> Tuple.of_ints [ n ]) in
  let r0 = Relation.create schema in
  List.iter
    (fun t ->
      let c = Rng.int rng 3 in
      if c > 0 then Relation.add ~count:c r0 t)
    universe;
  let state = Relation.copy r0 in
  let step () =
    if Rng.chance rng 0.5 then
      Delta.of_lists schema
        ( List.filter
            (fun t -> (not (Relation.mem state t)) && Rng.chance rng 0.3)
            universe,
          List.filter
            (fun t -> Relation.mem state t && Rng.chance rng 0.4)
            universe )
    else begin
      (* Inserts apply first, so a delete may take what they add. *)
      let d = Delta.empty schema in
      List.iter
        (fun t ->
          let ins = Rng.int rng 3 in
          let del = Rng.int rng (Relation.count state t + ins + 1) in
          if ins > 0 then Relation.add ~count:ins d.Delta.inserts t;
          if del > 0 then Relation.add ~count:del d.Delta.deletes t)
        universe;
      d
    end
  in
  let bank = Delta.empty schema in
  let disjoint = ref true in
  for _ = 1 to 1 + Rng.int rng 8 do
    let d = step () in
    Delta.apply d state;
    Delta.bank ~into:bank d;
    Relation.iter
      (fun t _ -> if Relation.mem bank.Delta.deletes t then disjoint := false)
      bank.Delta.inserts
  done;
  let banked = Relation.copy r0 in
  Delta.apply bank banked;
  !disjoint && Relation.equal state banked

let () =
  Alcotest.run "properties"
    [
      ( "maintenance",
        [
          property "differential = recompute (random views, txns, options)"
            ~count:150 differential_equals_recompute;
          property "tagged evaluator = pair evaluator" ~count:100
            tagged_equals_pair;
          property "irrelevant updates never change the view" ~count:80
            irrelevance_sound;
        ] );
      ( "parallel",
        [
          property "commit on 4 domains = commit on 1 domain" ~count:100
            parallel_equals_sequential;
          property "sharded commits = unsharded commits (domains 1, 2, 4)"
            ~count:50 sharded_commits_equal_unsharded;
          property "sharded view delta = sequential view delta" ~count:50
            sharded_view_delta_equals_sequential;
          property "shard partitions a relation exactly" ~count:200
            shard_partitions_relation;
          property "chunked parallel screening = sequential screening"
            ~count:25 chunked_screening_equals_sequential;
        ] );
      ( "algebra",
        [
          property "pi distributes over difference (counted)" ~count:200
            project_distributes_over_diff;
          property "join distributes over union (counted)" ~count:200
            join_distributes_over_union;
          property "select commutes with union" ~count:200
            select_commutes_with_union;
          property "applying a bank = applying its run of deltas" ~count:500
            bank_equals_sequential;
        ] );
      ( "planner",
        [ property "run_many = run" ~count:100 run_many_equals_run ] );
      ( "tableau",
        [
          property "minimization preserves visible tuples" ~count:100
            minimize_preserves_set;
        ] );
      ( "transaction",
        [
          property "net effect = sequential application" ~count:200
            net_effect_equals_sequential;
        ] );
      ( "strings",
        [
          property "string-fragment solver vs brute force" ~count:300
            string_solver_sound;
        ] );
      ( "bounds",
        [
          property "declared domains keep screening sound" ~count:60
            bounded_screening_sound;
        ] );
    ]
