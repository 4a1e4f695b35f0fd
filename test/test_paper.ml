(* Exact reproductions of every table and worked example in the paper
   (artifacts P1-P4 of DESIGN.md). *)

open Relalg
open Helpers
module F = Condition.Formula
module Expr = Query.Expr
module Tag = Ivm.Tag
module Truth_table = Ivm.Truth_table
module Delta = Ivm.Delta
module Delta_eval = Ivm.Delta_eval
module Irrelevance = Ivm.Irrelevance
module View = Ivm.View
module Manager = Ivm.Manager
open F.Dsl

(* ------------------------------------------------------------------ *)
(* P1 — Example 4.1: relevant and irrelevant insertions               *)
(* ------------------------------------------------------------------ *)

let example_4_1_tests =
  [
    quick "initial view is {(5, 20)}" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        Alcotest.(check (list (pair (list int) int)))
          "contents"
          [ ([ 5; 20 ], 1) ]
          (ints_contents (View.contents view)));
    quick "inserting (9,10) into r is relevant" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 9; 10 ])));
    quick "inserting (11,10) into r is provably irrelevant" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let screen = View.screen_for view ~alias:"R" in
        Alcotest.(check bool) "irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 11; 10 ])));
    quick "the same test applies to deletions" (fun () ->
        (* "The same argument applies for deletions" (Section 4). *)
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let screen = View.screen_for view ~alias:"R" in
        let delta =
          Irrelevance.screen_delta screen
            (Delta.of_lists
               (View.qualified_schema view ~alias:"R")
               ([], [ Tuple.of_ints [ 11; 10 ]; Tuple.of_ints [ 5; 10 ] ]))
        in
        Alcotest.(check int) "only (5,10) kept" 1
          (Relation.cardinal delta.Delta.deletes));
    quick "updates to s are screened on C > 5" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let screen = View.screen_for view ~alias:"S" in
        Alcotest.(check bool) "(6,1) relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 6; 1 ]));
        Alcotest.(check bool) "(5,1) irrelevant" false
          (Irrelevance.relevant screen (Tuple.of_ints [ 5; 1 ]));
        (* C = 5 fails C > 5; C = 12 passes it (whether it joins depends on
           the database state, so it must be kept). *)
        Alcotest.(check bool) "(12,99) relevant" true
          (Irrelevance.relevant screen (Tuple.of_ints [ 12; 99 ])));
    quick "naive decision agrees with Algorithm 4.1" (fun () ->
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let screen = View.screen_for view ~alias:"R" in
        List.iter
          (fun row ->
            let t = Tuple.of_ints row in
            Alcotest.(check bool)
              (Printf.sprintf "agree on (%d,%d)" (List.nth row 0)
                 (List.nth row 1))
              (Irrelevance.relevant_naive screen t)
              (Irrelevance.relevant screen t))
          [ [ 9; 10 ]; [ 11; 10 ]; [ 0; 0 ]; [ 9; 5 ]; [ 9; 6 ]; [ 10; 6 ] ]);
    quick "inserting (9,10) updates the view with (9,20)" (fun () ->
        let db = example_4_1_db () in
        let mgr, view = managed ~name:"u" db (example_4_1_expr ()) in
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "contents"
          [ ([ 5; 20 ], 1); ([ 9; 20 ], 1) ]
          (ints_contents (View.contents view)));
    quick "theorem 4.2: jointly irrelevant tuple pair" (fun () ->
        (* Insert r-tuple (1,7) and s-tuple (8,50): individually both pass
           their local conditions, but together 7 = C and C = 8 clash. *)
        let db = example_4_1_db () in
        let view = View.define ~name:"u" ~db (example_4_1_expr ()) in
        let lookup name = Relation.schema (Database.find db name) in
        let spj = View.spj view in
        Alcotest.(check bool) "r tuple alone relevant" true
          (Irrelevance.combined_relevant ~lookup ~spj
             [ ("R", Tuple.of_ints [ 1; 7 ]) ]);
        Alcotest.(check bool) "s tuple alone relevant" true
          (Irrelevance.combined_relevant ~lookup ~spj
             [ ("S", Tuple.of_ints [ 8; 50 ]) ]);
        Alcotest.(check bool) "combination irrelevant" false
          (Irrelevance.combined_relevant ~lookup ~spj
             [ ("R", Tuple.of_ints [ 1; 7 ]); ("S", Tuple.of_ints [ 8; 50 ]) ]));
  ]

(* ------------------------------------------------------------------ *)
(* P2 — the binary truth table of Section 5.3                         *)
(* ------------------------------------------------------------------ *)

let truth_table_tests =
  [
    quick "p=3, all modified: 7 rows in table order" (fun () ->
        (* The paper's table for p = 3 lists 8 rows; row 1 (all old) is the
           current view and is skipped. *)
        let rows = Truth_table.rows ~modified:[| true; true; true |] in
        let names = [ "r1"; "r2"; "r3" ] in
        Alcotest.(check (list string))
          "rows"
          [
            "r1 |x| r2 |x| ur3";
            "r1 |x| ur2 |x| r3";
            "r1 |x| ur2 |x| ur3";
            "ur1 |x| r2 |x| r3";
            "ur1 |x| r2 |x| ur3";
            "ur1 |x| ur2 |x| r3";
            "ur1 |x| ur2 |x| ur3";
          ]
          (List.map (Truth_table.describe ~names) rows));
    quick "p=3, r1 and r2 modified: exactly rows 3, 5, 7" (fun () ->
        (* "discard all the rows for which B3 = 1, and row 1": the
           remaining rows are r1|x|ur2|x|r3, ur1|x|r2|x|r3, ur1|x|ur2|x|r3. *)
        let rows = Truth_table.rows ~modified:[| true; true; false |] in
        let names = [ "r1"; "r2"; "r3" ] in
        Alcotest.(check (list string))
          "rows"
          [ "r1 |x| ur2 |x| r3"; "ur1 |x| r2 |x| r3"; "ur1 |x| ur2 |x| r3" ]
          (List.map (Truth_table.describe ~names) rows));
    quick "row counts are 2^k - 1" (fun () ->
        Alcotest.(check int) "k=1" 1
          (Truth_table.row_count ~modified:[| false; true; false |]);
        Alcotest.(check int) "k=2" 3
          (Truth_table.row_count ~modified:[| true; false; true |]);
        Alcotest.(check int) "k=3" 7
          (Truth_table.row_count ~modified:[| true; true; true |]);
        Alcotest.(check int) "k=0" 0
          (Truth_table.row_count ~modified:[| false; false |]));
    quick "row_count matches rows length" (fun () ->
        List.iter
          (fun modified ->
            Alcotest.(check int) "consistent"
              (Truth_table.row_count ~modified)
              (List.length (Truth_table.rows ~modified)))
          [
            [| true |];
            [| false |];
            [| true; true |];
            [| true; false; true; true |];
          ]);
    quick "unmodified sources never draw from the update set" (fun () ->
        let rows = Truth_table.rows ~modified:[| false; true; false |] in
        List.iter
          (fun row ->
            Alcotest.(check bool) "r1 old" true (row.(0) = Truth_table.Old_part);
            Alcotest.(check bool) "r3 old" true (row.(2) = Truth_table.Old_part))
          rows);
  ]

(* ------------------------------------------------------------------ *)
(* P3 — the tag propagation tables                                    *)
(* ------------------------------------------------------------------ *)

let tag_tests =
  [
    quick "the nine-row join table matches the paper" (fun () ->
        (* p. 69: insert/insert -> insert; insert/delete -> ignore;
           insert/old -> insert; delete/insert -> ignore;
           delete/delete -> delete; delete/old -> delete;
           old/insert -> insert; old/delete -> delete; old/old -> old. *)
        let expected =
          [
            ((Tag.Insert, Tag.Insert), Some Tag.Insert);
            ((Tag.Insert, Tag.Delete), None);
            ((Tag.Insert, Tag.Old), Some Tag.Insert);
            ((Tag.Delete, Tag.Insert), None);
            ((Tag.Delete, Tag.Delete), Some Tag.Delete);
            ((Tag.Delete, Tag.Old), Some Tag.Delete);
            ((Tag.Old, Tag.Insert), Some Tag.Insert);
            ((Tag.Old, Tag.Delete), Some Tag.Delete);
            ((Tag.Old, Tag.Old), Some Tag.Old);
          ]
        in
        Alcotest.(check bool) "table" true (Tag.join_table = expected));
    quick "select and project preserve tags" (fun () ->
        List.iter
          (fun tag ->
            Alcotest.(check bool) "select" true (Tag.equal (Tag.select tag) tag);
            Alcotest.(check bool) "project" true
              (Tag.equal (Tag.project tag) tag))
          [ Tag.Insert; Tag.Delete; Tag.Old ]);
    quick "join is commutative" (fun () ->
        List.iter
          (fun (a, b) ->
            Alcotest.(check bool) "commutes" true (Tag.join a b = Tag.join b a))
          [
            (Tag.Insert, Tag.Delete);
            (Tag.Insert, Tag.Old);
            (Tag.Delete, Tag.Old);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* P4 — Examples 5.1 through 5.5                                      *)
(* ------------------------------------------------------------------ *)

(* Example 5.1 uses r = {(1,10), (2,10), (3,20)} and V = pi_B(R). *)
let example_5_1_db () =
  db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ]) ]

let example_5_1_tests =
  [
    quick "initial counters are 2 and 1" (fun () ->
        let db = example_5_1_db () in
        let view =
          View.define ~name:"v" ~db Expr.(project [ "B" ] (base "R"))
        in
        Alcotest.(check (list (pair (list int) int)))
          "counters"
          [ ([ 10 ], 2); ([ 20 ], 1) ]
          (ints_contents (View.contents view)));
    quick "deleting (3,20) removes 20 from the view" (fun () ->
        let db = example_5_1_db () in
        let mgr, view =
          managed ~name:"v" db Expr.(project [ "B" ] (base "R"))
        in
        ignore
          (Manager.commit mgr
             [ Transaction.delete "R" (Tuple.of_ints [ 3; 20 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "view" [ ([ 10 ], 2) ]
          (ints_contents (View.contents view)));
    quick "deleting (1,10) only decrements the counter" (fun () ->
        (* This is the case the counter exists for: without it the view
           would wrongly lose B = 10. *)
        let db = example_5_1_db () in
        let mgr, view =
          managed ~name:"v" db Expr.(project [ "B" ] (base "R"))
        in
        ignore
          (Manager.commit mgr
             [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "view"
          [ ([ 10 ], 1); ([ 20 ], 1) ]
          (ints_contents (View.contents view)));
    quick "re-inserting restores the counter" (fun () ->
        let db = example_5_1_db () in
        let mgr, view =
          managed ~name:"v" db Expr.(project [ "B" ] (base "R"))
        in
        ignore
          (Manager.commit mgr
             [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 1; 10 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "view"
          [ ([ 10 ], 2); ([ 20 ], 1) ]
          (ints_contents (View.contents view)));
  ]

(* Examples 5.2-5.4 use R(A,B) |x| S(B,C). *)
let join_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 6 ]; [ 30; 7 ] ]);
    ]

let join_expr = Expr.(join (base "R") (base "S"))

let example_5_2_to_5_4_tests =
  [
    quick "example 5.2: insertions contribute i_r |x| s" (fun () ->
        let db = join_db () in
        let mgr, view = managed ~name:"v" db join_expr in
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 3; 10 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "view"
          [ ([ 1; 10; 5 ], 1); ([ 2; 20; 6 ], 1); ([ 3; 10; 5 ], 1) ]
          (ints_contents (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "example 5.3: deletions remove d_r |x| s" (fun () ->
        let db = join_db () in
        let mgr, view = managed ~name:"v" db join_expr in
        ignore
          (Manager.commit mgr
             [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "view"
          [ ([ 2; 20; 6 ], 1) ]
          (ints_contents (View.contents view)));
    quick "example 5.4: all six tag cases in one transaction" (fun () ->
        (* Build a transaction exercising every row of the tag table:
           - case 1 (i_r |x| i_s): insert (4,40) and (40,9)
           - case 2 (i_r |x| d_s): insert (5,30) while deleting (30,7)
           - case 3 (i_r |x| s):   insert (6,20) joining old (20,6)
           - case 4 (d_r |x| d_s): delete (1,10) and (10,5)
           - case 5 (d_r |x| s):   delete (2,20) joining old (20,6)
           - case 6 (r |x| s):     (nothing else touches the join) *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 9; 20 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 6 ]; [ 30; 7 ] ]);
            ]
        in
        let mgr, view = managed ~name:"v" db join_expr in
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 4; 40 ]);
               Transaction.insert "S" (Tuple.of_ints [ 40; 9 ]);
               Transaction.insert "R" (Tuple.of_ints [ 5; 30 ]);
               Transaction.delete "S" (Tuple.of_ints [ 30; 7 ]);
               Transaction.insert "R" (Tuple.of_ints [ 6; 20 ]);
               Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]);
               Transaction.delete "S" (Tuple.of_ints [ 10; 5 ]);
               Transaction.delete "R" (Tuple.of_ints [ 2; 20 ]);
             ]);
        (* case 1 adds (4,40,9); case 2 adds nothing; case 3 adds (6,20,6);
           cases 4-5 remove (1,10,5) and (2,20,6); case 6 keeps (9,20,6). *)
        Alcotest.(check (list (pair (list int) int)))
          "view"
          [ ([ 4; 40; 9 ], 1); ([ 6; 20; 6 ], 1); ([ 9; 20; 6 ], 1) ]
          (ints_contents (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db));
    quick "example 5.4 via the literal tagged evaluator" (fun () ->
        (* Same scenario, evaluated by the reference implementation with
           per-tuple tags; its delta must agree and its old-tagged rows
           must be exactly the untouched part of the view. *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 9; 20 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 6 ]; [ 30; 7 ] ]);
            ]
        in
        let view = View.define ~name:"v" ~db join_expr in
        let spj = View.spj view in
        let lookup name = Relation.schema (Database.find db name) in
        let r_delta =
          Delta.of_lists
            (View.qualified_schema view ~alias:"R")
            ( [ Tuple.of_ints [ 4; 40 ]; Tuple.of_ints [ 5; 30 ]; Tuple.of_ints [ 6; 20 ] ],
              [ Tuple.of_ints [ 1; 10 ]; Tuple.of_ints [ 2; 20 ] ] )
        in
        let s_delta =
          Delta.of_lists
            (View.qualified_schema view ~alias:"S")
            ( [ Tuple.of_ints [ 40; 9 ] ],
              [ Tuple.of_ints [ 30; 7 ]; Tuple.of_ints [ 10; 5 ] ] )
        in
        (* Old parts: pre-state minus deletions. *)
        let old_r =
          Relation.reschema
            (rel [ "A"; "B" ] [ [ 9; 20 ] ])
            (View.qualified_schema view ~alias:"R")
        in
        let old_s =
          Relation.reschema
            (rel [ "B"; "C" ] [ [ 20; 6 ] ])
            (View.qualified_schema view ~alias:"S")
        in
        ignore lookup;
        let tagged_result =
          Ivm.Tagged_eval.eval_spj ~spj
            ~inputs:
              [
                ("R", Ivm.Tagged_eval.of_parts ~old_part:old_r ~delta:r_delta);
                ("S", Ivm.Tagged_eval.of_parts ~old_part:old_s ~delta:s_delta);
              ]
        in
        let pair_result =
          Delta_eval.eval ~spj
            ~inputs:
              [
                { Delta_eval.alias = "R"; old_part = old_r; delta = Some r_delta };
                { Delta_eval.alias = "S"; old_part = old_s; delta = Some s_delta };
              ]
            ()
        in
        check_rel "inserts agree"
          tagged_result.Ivm.Tagged_eval.delta.Delta.inserts
          pair_result.Delta_eval.delta.Delta.inserts;
        check_rel "deletes agree"
          tagged_result.Ivm.Tagged_eval.delta.Delta.deletes
          pair_result.Delta_eval.delta.Delta.deletes;
        (* Case 6: the old part of the tagged result is the untouched
           (9,20,6) row. *)
        Alcotest.(check (list (pair (list int) int)))
          "unchanged part"
          [ ([ 9; 20; 6 ], 1) ]
          (ints_contents tagged_result.Ivm.Tagged_eval.unchanged));
    quick "example 5.5: SPJ view updated by pi(sigma(i_r |x| s))" (fun () ->
        (* V = pi_A(sigma_{C>10}(R |x| S)). *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 15 ] ]);
            ]
        in
        let mgr, view =
          managed ~name:"v" db
            Expr.(
              project [ "A" ] (select (v "C" >% i 10) (join (base "R") (base "S"))))
        in
        Alcotest.(check (list (pair (list int) int)))
          "initial" [ ([ 2 ], 1) ]
          (ints_contents (View.contents view));
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 7; 20 ]) ]);
        Alcotest.(check (list (pair (list int) int)))
          "after insert"
          [ ([ 2 ], 1); ([ 7 ], 1) ]
          (ints_contents (View.contents view));
        Alcotest.(check bool) "consistent" true (View.consistent view db));
  ]

let () =
  Alcotest.run "paper"
    [
      ("P1: example 4.1", example_4_1_tests);
      ("P2: truth table", truth_table_tests);
      ("P3: tag tables", tag_tests);
      ("P4a: example 5.1", example_5_1_tests);
      ("P4b: examples 5.2-5.5", example_5_2_to_5_4_tests);
    ]
