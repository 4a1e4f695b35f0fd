(* End-to-end flows: several views over one database, many transactions,
   mixed maintenance modes, full consistency checks along the way. *)

open Relalg
open Helpers
module F = Condition.Formula
module Expr = Query.Expr
module View = Ivm.View
module Manager = Ivm.Manager
module Maintenance = Ivm.Maintenance
module Rng = Workload.Rng
module Generate = Workload.Generate
module Scenario = Workload.Scenario
open F.Dsl

(* ------------------------------------------------------------------ *)
(* Order-monitoring scenario (the examples' schema)                   *)
(* ------------------------------------------------------------------ *)

let orders_tests =
  [
    quick "dashboard views stay consistent over a 50-transaction day"
      (fun () ->
        let rng = Rng.make 42 in
        let scenario = Scenario.orders ~rng ~customers:30 ~orders:200 in
        let db = scenario.Scenario.db in
        let mgr = Manager.create db in
        (* Big northern orders: select-join view with a string condition. *)
        ignore
          (Manager.define_view mgr ~name:"big_north"
             Expr.(
               project [ "oid"; "amount"; "region" ]
                 (select
                    ((v "amount" >% i 800) &&% (v "region" =% s "north"))
                    (join (base "orders") (base "customers")))));
        (* Per-customer presence: a project view needing counters. *)
        ignore
          (Manager.define_view mgr ~name:"active_customers"
             Expr.(project [ "cid" ] (base "orders")));
        (* High-priority order ids. *)
        ignore
          (Manager.define_view mgr ~name:"urgent"
             Expr.(select (v "priority" >=% i 4) (base "orders")));
        let order_columns = Scenario.columns_of scenario "orders" in
        for day = 1 to 50 do
          let txn =
            Generate.transaction rng db "orders" ~columns:order_columns
              ~inserts:(Rng.int rng 5) ~deletes:(Rng.int rng 5)
          in
          ignore (Manager.commit mgr txn);
          if day mod 10 = 0 then
            Alcotest.(check bool)
              (Printf.sprintf "consistent at day %d" day)
              true (Manager.all_consistent mgr)
        done);
    quick "screening statistics add up" (fun () ->
        let rng = Rng.make 7 in
        let scenario = Scenario.orders ~rng ~customers:20 ~orders:100 in
        let db = scenario.Scenario.db in
        let mgr = Manager.create db in
        ignore
          (Manager.define_view mgr ~name:"urgent"
             Expr.(select (v "priority" >=% i 4) (base "orders")));
        let order_columns = Scenario.columns_of scenario "orders" in
        let total_screened = ref 0 and total_kept = ref 0 in
        for _ = 1 to 20 do
          let txn =
            Generate.transaction rng db "orders" ~columns:order_columns
              ~inserts:3 ~deletes:2
          in
          let reports = Manager.commit mgr txn in
          List.iter
            (fun r ->
              total_screened := !total_screened + r.Maintenance.screened_out;
              total_kept := !total_kept + r.Maintenance.screened_kept)
            reports
        done;
        (* priority >= 4 keeps 2 of 6 priority values: both buckets must
           have been hit over 100 updates. *)
        Alcotest.(check bool) "some screened out" true (!total_screened > 0);
        Alcotest.(check bool) "some kept" true (!total_kept > 0);
        Alcotest.(check int) "all updates accounted" 100
          (!total_screened + !total_kept));
  ]

(* ------------------------------------------------------------------ *)
(* Multiway chain joins                                               *)
(* ------------------------------------------------------------------ *)

let chain_tests =
  [
    quick "3-way chain stays consistent under multi-relation transactions"
      (fun () ->
        let rng = Rng.make 11 in
        let scenario, names = Scenario.chain ~rng ~p:3 ~size:40 ~key_range:6 in
        let db = scenario.Scenario.db in
        let mgr, view =
          managed ~name:"chain" db Expr.(join_all (List.map base names))
        in
        for _ = 1 to 25 do
          let specs =
            List.map
              (fun name ->
                ( name,
                  Scenario.columns_of scenario name,
                  Rng.int rng 3,
                  Rng.int rng 3 ))
              names
          in
          let txn = Generate.mixed_transaction rng db specs in
          ignore (Manager.commit mgr txn);
          Alcotest.(check bool) "consistent" true (View.consistent view db)
        done);
    quick "4-way chain with selective condition and row reuse" (fun () ->
        let rng = Rng.make 23 in
        let scenario, names = Scenario.chain ~rng ~p:4 ~size:25 ~key_range:5 in
        let db = scenario.Scenario.db in
        let options = { Maintenance.default_options with reuse = true } in
        let mgr, view =
          managed ~name:"chain4" ~options db
            Expr.(
              project [ "K0"; "K4" ]
                (select (v "K0" <% v "K4" +% 3) (join_all (List.map base names))))
        in
        for _ = 1 to 15 do
          let specs =
            List.map
              (fun name ->
                ( name,
                  Scenario.columns_of scenario name,
                  Rng.int rng 2,
                  Rng.int rng 2 ))
              names
          in
          let txn = Generate.mixed_transaction rng db specs in
          ignore (Manager.commit mgr txn);
          Alcotest.(check bool) "consistent" true (View.consistent view db)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Deferred refresh (snapshot) flows                                  *)
(* ------------------------------------------------------------------ *)

let snapshot_tests =
  [
    quick "periodic refresh converges to the immediate view" (fun () ->
        let rng = Rng.make 31 in
        let scenario = Scenario.pair ~rng ~size_r:60 ~size_s:60 ~key_range:10 in
        let db = scenario.Scenario.db in
        let mgr = Manager.create db in
        let expr = Expr.(join (base "R") (base "S")) in
        let imm = Manager.define_view mgr ~name:"imm" expr in
        let snap =
          Manager.define_view mgr ~name:"snap" ~mode:Manager.Deferred expr
        in
        for round = 1 to 30 do
          let txn =
            Generate.mixed_transaction rng db
              [
                ("R", Scenario.columns_of scenario "R", Rng.int rng 3, Rng.int rng 3);
                ("S", Scenario.columns_of scenario "S", Rng.int rng 3, Rng.int rng 3);
              ]
          in
          ignore (Manager.commit mgr txn);
          if round mod 5 = 0 then begin
            ignore (Manager.refresh mgr "snap");
            check_rel "snapshot caught up" (View.contents imm)
              (View.contents snap)
          end
        done);
    quick "refresh with deletions of tuples inserted since the snapshot"
      (fun () ->
        let db =
          db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]) ]
        in
        let mgr = Manager.create db in
        let snap =
          Manager.define_view mgr ~name:"snap" ~mode:Manager.Deferred
            Expr.(project [ "B" ] (base "R"))
        in
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 2; 10 ]) ]);
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 20 ]) ]);
        ignore
          (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 3; 20 ]) ]);
        ignore
          (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
        ignore (Manager.refresh mgr "snap");
        Alcotest.(check (list (pair (list int) int)))
          "refreshed"
          [ ([ 10 ], 1) ]
          (ints_contents (View.contents snap)));
  ]

(* ------------------------------------------------------------------ *)
(* Mixed-option soak                                                  *)
(* ------------------------------------------------------------------ *)

let soak_tests =
  [
    quick "every option combination survives a randomized soak" (fun () ->
        let combos =
          List.concat_map
            (fun screen ->
              List.concat_map
                (fun reuse ->
                  List.map
                    (fun order -> (screen, reuse, order))
                    [ `Greedy; `Declaration ])
                [ false; true ])
            [ false; true ]
        in
        List.iteri
          (fun idx (screen, reuse, order) ->
            let rng = Rng.make (100 + idx) in
            let scenario =
              Scenario.pair ~rng ~size_r:40 ~size_s:40 ~key_range:8
            in
            let db = scenario.Scenario.db in
            let options =
              { Maintenance.default_options with screen; reuse; order }
            in
            let mgr, view =
              managed ~name:"v" ~options db
                Expr.(
                  project [ "A"; "C" ]
                    (select (v "C" <% i 300) (join (base "R") (base "S"))))
            in
            for _ = 1 to 10 do
              let txn =
                Generate.mixed_transaction rng db
                  [
                    ("R", Scenario.columns_of scenario "R", Rng.int rng 3, Rng.int rng 3);
                    ("S", Scenario.columns_of scenario "S", Rng.int rng 3, Rng.int rng 3);
                  ]
              in
              ignore (Manager.commit mgr txn)
            done;
            Alcotest.(check bool)
              (Printf.sprintf "combo %d consistent" idx)
              true (View.consistent view db))
          combos);
    quick "minimized duplicate-join view maintains correctly" (fun () ->
        let rng = Rng.make 55 in
        let scenario = Scenario.pair ~rng ~size_r:30 ~size_s:30 ~key_range:6 in
        let db = scenario.Scenario.db in
        (* S |x| S folds to S; maintenance then runs on the minimized
           definition. *)
        let mgr, view =
          managed ~name:"dup" db Expr.(join (base "S") (base "S"))
        in
        Alcotest.(check int) "folded" 1
          (List.length (View.spj view).Query.Spj.sources);
        for _ = 1 to 10 do
          let txn =
            Generate.transaction rng db "S"
              ~columns:(Scenario.columns_of scenario "S") ~inserts:2 ~deletes:2
          in
          ignore (Manager.commit mgr txn)
        done;
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "empty view start grows and shrinks correctly" (fun () ->
        let db =
          db_of [ ("R", rel [ "A"; "B" ] []); ("S", rel [ "B"; "C" ] []) ]
        in
        let mgr, view =
          managed ~name:"v" db Expr.(join (base "R") (base "S"))
        in
        Alcotest.(check int) "empty" 0 (Relation.cardinal (View.contents view));
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 1; 10 ]);
               Transaction.insert "S" (Tuple.of_ints [ 10; 5 ]);
             ]);
        Alcotest.(check int) "one row" 1 (Relation.cardinal (View.contents view));
        ignore
          (Manager.commit mgr
             [
               Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]);
               Transaction.delete "S" (Tuple.of_ints [ 10; 5 ]);
             ]);
        Alcotest.(check int) "empty again" 0
          (Relation.cardinal (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db));
  ]

(* ------------------------------------------------------------------ *)
(* Full-stack flows: parser + CSV + indexes + stats                    *)
(* ------------------------------------------------------------------ *)

let full_stack_tests =
  [
    quick "CSV-loaded database with a parsed view maintains correctly"
      (fun () ->
        let text_r = "A:int,B:int\n1,10\n2,20\n3,10\n" in
        let text_s = "B:int,C:int\n10,100\n20,200\n" in
        let db = db_of [] in
        Database.register db "R" (Csv.of_string text_r);
        Database.register db "S" (Csv.of_string text_s);
        let lookup name = Relation.schema (Database.find db name) in
        let mgr, view =
          managed ~name:"q" db
            (Query.Parser.view ~lookup
               "SELECT A, C FROM R, S WHERE C <= 200 AND A > 1")
        in
        Alcotest.(check int) "initial rows" 2
          (Relation.cardinal (View.contents view));
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 9; 20 ]);
               Transaction.delete "S" (Tuple.of_ints [ 10; 100 ]);
             ]);
        Alcotest.(check bool) "consistent" true (View.consistent view db);
        (* Round-trip the mutated base through CSV and rebuild the view. *)
        let back = Csv.of_string (Csv.to_string (Database.find db "R")) in
        check_rel "base round-trips" (Database.find db "R") back);
    quick "manager statistics accumulate across commits" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        ignore (Manager.define_view mgr ~name:"u" (example_4_1_expr ()));
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]);
               Transaction.insert "R" (Tuple.of_ints [ 11; 10 ]);
             ]);
        ignore
          (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 9; 10 ]) ]);
        let stats = Manager.stats mgr "u" in
        Alcotest.(check int) "commits" 2 stats.Manager.commits;
        Alcotest.(check int) "screened out" 1 stats.Manager.screened_out;
        Alcotest.(check int) "inserted" 1 stats.Manager.tuples_inserted;
        Alcotest.(check int) "deleted" 1 stats.Manager.tuples_deleted;
        Alcotest.(check int) "no recomputations" 0 stats.Manager.recomputations);
    quick "recompute strategy counts in the statistics" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        ignore
          (Manager.define_view mgr ~name:"u"
             ~options:
               {
                 Maintenance.default_options with
                 strategy = Maintenance.Recompute;
               }
             (example_4_1_expr ()));
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
        Alcotest.(check int) "recomputations" 1
          (Manager.stats mgr "u").Manager.recomputations);
    quick "indexes stay correct under deferred refresh" (fun () ->
        let rng = Rng.make 71 in
        let scenario = Scenario.pair ~rng ~size_r:500 ~size_s:500 ~key_range:50 in
        let db = scenario.Scenario.db in
        let mgr = Manager.create db in
        Manager.create_index mgr ~relation:"S" ~attrs:[ "B" ];
        Manager.create_index mgr ~relation:"R" ~attrs:[ "B" ];
        let view =
          Manager.define_view mgr ~name:"snap" ~mode:Manager.Deferred
            Expr.(join (base "R") (base "S"))
        in
        for round = 1 to 20 do
          let txn =
            Generate.mixed_transaction rng db
              [
                ("R", Scenario.columns_of scenario "R", Rng.int rng 4, Rng.int rng 4);
                ("S", Scenario.columns_of scenario "S", Rng.int rng 4, Rng.int rng 4);
              ]
          in
          ignore (Manager.commit mgr txn);
          if round mod 4 = 0 then begin
            ignore (Manager.refresh mgr "snap");
            Alcotest.(check bool) "consistent" true (View.consistent view db)
          end
        done);
    quick "self-join view survives intra-view sharding (domains=2)"
      (fun () ->
        (* R.B joined with R'.A: both operands alias R's store under two
           schemas, and with 3,000 tuples R is over the default shard
           threshold, so each alias is sharded on the pool. *)
        let db =
          db_of
            [
              ( "R",
                rel [ "A"; "B" ]
                  (List.init 3_000 (fun i -> [ i; i mod 50 ])) );
            ]
        in
        let mgr = Manager.create ~domains:2 db in
        ignore
          (Manager.define_view mgr ~name:"self"
             Expr.(
               select
                 (v "B" =% v "C")
                 (product (base "R")
                    (rename [ ("A", "C"); ("B", "D") ] (base "R")))));
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 3_000; 7 ]);
               Transaction.delete "R" (Tuple.of_ints [ 7; 7 ]);
             ]);
        Alcotest.(check bool) "consistent" true (Manager.all_consistent mgr));
    quick "churn on the same tuple across many transactions" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 5 ] ]);
            ]
        in
        let mgr, view =
          managed ~name:"v" db Expr.(join (base "R") (base "S"))
        in
        let t = Tuple.of_ints [ 2; 10 ] in
        for _ = 1 to 10 do
          ignore (Manager.commit mgr [ Transaction.insert "R" t ]);
          ignore (Manager.commit mgr [ Transaction.delete "R" t ])
        done;
        Alcotest.(check int) "one row" 1 (Relation.cardinal (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "adaptive + screening + reuse all at once over a long run"
      (fun () ->
        let rng = Rng.make 73 in
        let scenario = Scenario.pair ~rng ~size_r:300 ~size_s:300 ~key_range:40 in
        let db = scenario.Scenario.db in
        let options =
          {
            Maintenance.default_options with
            strategy = Maintenance.Adaptive;
            reuse = true;
          }
        in
        let mgr, view =
          managed ~name:"v" ~options db
            Expr.(
              project [ "A"; "C" ]
                (select (v "C" <% i 2500) (join (base "R") (base "S"))))
        in
        for _ = 1 to 30 do
          let txn =
            Generate.mixed_transaction rng db
              [
                ("R", Scenario.columns_of scenario "R", Rng.int rng 6, Rng.int rng 6);
                ("S", Scenario.columns_of scenario "S", Rng.int rng 6, Rng.int rng 6);
              ]
          in
          ignore (Manager.commit mgr txn)
        done;
        Alcotest.(check bool) "consistent" true (View.consistent view db));
  ]

let () =
  Alcotest.run "integration"
    [
      ("orders", orders_tests);
      ("chain", chain_tests);
      ("snapshot", snapshot_tests);
      ("soak", soak_tests);
      ("full_stack", full_stack_tests);
    ]
