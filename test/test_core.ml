(* Unit tests for the differential core's small combinatorial pieces:
   the Section 5.3 binary truth table (checked against brute-force set
   algebra), the nine-row tag algebra of Example 5.4, and the advisor's
   cost model and calibration. *)

open Relalg
open Helpers
module Truth_table = Ivm.Truth_table
module Tag = Ivm.Tag
module Advisor = Ivm.Advisor
module View = Ivm.View

(* ------------------------------------------------------------------ *)
(* Truth table (Section 5.3)                                          *)
(* ------------------------------------------------------------------ *)

let operand_list row = Array.to_list row

let truth_table_tests =
  let all_modified = [| true; true; true |] in
  [
    quick "row_count is 2^k - 1" (fun () ->
        List.iter
          (fun (modified, expected) ->
            Alcotest.(check int)
              (Printf.sprintf "k=%d"
                 (Array.fold_left (fun n m -> if m then n + 1 else n) 0 modified))
              expected
              (Truth_table.row_count ~modified))
          [
            ([| false; false; false |], 0);
            ([| true; false |], 1);
            ([| true; true |], 3);
            (all_modified, 7);
            ([| true; false; true; true |], 7);
          ]);
    quick "p=3 all modified: the 7 rows in binary-counter order" (fun () ->
        let open Truth_table in
        let expected =
          [
            [ Old_part; Old_part; Delta_part ];
            [ Old_part; Delta_part; Old_part ];
            [ Old_part; Delta_part; Delta_part ];
            [ Delta_part; Old_part; Old_part ];
            [ Delta_part; Old_part; Delta_part ];
            [ Delta_part; Delta_part; Old_part ];
            [ Delta_part; Delta_part; Delta_part ];
          ]
        in
        Alcotest.(check bool) "row order and contents" true
          (List.map operand_list (rows ~modified:all_modified) = expected));
    quick "unmodified sources always draw the old part" (fun () ->
        let rows = Truth_table.rows ~modified:[| true; false; true |] in
        Alcotest.(check int) "3 rows" 3 (List.length rows);
        List.iter
          (fun row ->
            Alcotest.(check bool) "middle operand old" true
              (row.(1) = Truth_table.Old_part))
          rows;
        Alcotest.(check bool) "no all-old row" true
          (List.for_all
             (fun row -> Array.exists (( = ) Truth_table.Delta_part) row)
             rows));
    quick "describe renders the paper's notation" (fun () ->
        Alcotest.(check string) "ur1 |x| r2 |x| ur3" "ur1 |x| r2 |x| ur3"
          (Truth_table.describe
             ~names:[ "r1"; "r2"; "r3" ]
             [| Truth_table.Delta_part; Truth_table.Old_part;
                Truth_table.Delta_part;
             |]));
  ]

(* Brute-force check of the expansion the table encodes:
   (o1 ∪ d1) |x| (o2 ∪ d2) |x| (o3 ∪ d3)
     = (o1 |x| o2 |x| o3)  ∪  union of the 2^k - 1 table rows.
   Multiset semantics throughout: natural_join multiplies counters,
   union adds them, so distributivity is exact. *)
let expansion_check ~modified olds deltas =
  let pick row i = match row with
    | Truth_table.Old_part -> List.nth olds i
    | Truth_table.Delta_part -> List.nth deltas i
  in
  let join_row row =
    match Array.to_list row with
    | [] -> assert false
    | _ ->
      let parts = List.mapi (fun i _ -> pick row.(i) i) olds in
      List.fold_left Ops.natural_join (List.hd parts) (List.tl parts)
  in
  let news = List.map2 Relation.union olds deltas in
  let full =
    List.fold_left Ops.natural_join (List.hd news) (List.tl news)
  in
  let current =
    List.fold_left Ops.natural_join (List.hd olds) (List.tl olds)
  in
  let from_rows =
    List.fold_left
      (fun acc row -> Relation.union acc (join_row row))
      current
      (Truth_table.rows ~modified)
  in
  check_rel "join of unions = union of table rows" full from_rows

let expansion_tests =
  let olds =
    [
      rel [ "A"; "B" ] [ [ 1; 2 ]; [ 5; 2 ]; [ 9; 4 ] ];
      rel [ "B"; "C" ] [ [ 2; 7 ]; [ 4; 1 ] ];
      rel [ "C"; "D" ] [ [ 7; 0 ]; [ 1; 3 ] ];
    ]
  in
  [
    quick "all three sources modified (7 rows)" (fun () ->
        expansion_check ~modified:[| true; true; true |] olds
          [
            rel [ "A"; "B" ] [ [ 2; 2 ]; [ 3; 4 ] ];
            rel [ "B"; "C" ] [ [ 2; 1 ]; [ 4; 7 ] ];
            rel [ "C"; "D" ] [ [ 1; 8 ] ];
          ]);
    quick "one source modified (1 row)" (fun () ->
        expansion_check ~modified:[| false; true; false |] olds
          [
            rel [ "A"; "B" ] [];
            rel [ "B"; "C" ] [ [ 2; 1 ]; [ 4; 7 ] ];
            rel [ "C"; "D" ] [];
          ]);
    quick "two sources modified (3 rows)" (fun () ->
        expansion_check ~modified:[| true; false; true |] olds
          [
            rel [ "A"; "B" ] [ [ 7; 2 ] ];
            rel [ "B"; "C" ] [];
            rel [ "C"; "D" ] [ [ 7; 9 ]; [ 1; 1 ] ];
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Tag algebra (Example 5.4)                                          *)
(* ------------------------------------------------------------------ *)

let tag_tests =
  [
    quick "join_table is the paper's nine rows verbatim" (fun () ->
        let open Tag in
        let expected =
          [
            ((Insert, Insert), Some Insert);
            ((Insert, Delete), None);
            ((Insert, Old), Some Insert);
            ((Delete, Insert), None);
            ((Delete, Delete), Some Delete);
            ((Delete, Old), Some Delete);
            ((Old, Insert), Some Insert);
            ((Old, Delete), Some Delete);
            ((Old, Old), Some Old);
          ]
        in
        Alcotest.(check bool) "table matches" true (join_table = expected));
    quick "join agrees with the table pointwise" (fun () ->
        List.iter
          (fun ((a, b), expected) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s |x| %s" (Tag.to_string a) (Tag.to_string b))
              true
              (Tag.join a b = expected))
          Tag.join_table);
    quick "the only ignored combinations mix insert with delete" (fun () ->
        List.iter
          (fun ((a, b), result) ->
            let mixes =
              (Tag.equal a Tag.Insert && Tag.equal b Tag.Delete)
              || (Tag.equal a Tag.Delete && Tag.equal b Tag.Insert)
            in
            Alcotest.(check bool) "ignore iff insert x delete" mixes
              (result = None))
          Tag.join_table);
    quick "selection and projection preserve tags" (fun () ->
        List.iter
          (fun t ->
            Alcotest.(check bool) "select" true (Tag.equal (Tag.select t) t);
            Alcotest.(check bool) "project" true (Tag.equal (Tag.project t) t))
          [ Tag.Insert; Tag.Delete; Tag.Old ]);
  ]

(* ------------------------------------------------------------------ *)
(* Advisor: cost model and calibration                                *)
(* ------------------------------------------------------------------ *)

let big_r_view () =
  (* One large source so the recompute cost is dominated by the scan. *)
  let tuples = List.init 400 (fun i -> [ i; i mod 7 ]) in
  let db = db_of [ ("R", rel [ "A"; "B" ] tuples) ] in
  let view =
    View.define ~name:"v" ~db
      (let open Condition.Formula.Dsl in
       Query.Expr.(select (v "A" <% i 100) (base "R")))
  in
  (db, view)

let net_of_size n : Transaction.net =
  [ ("R", (List.init n (fun i -> Tuple.of_ints [ 1000 + i; 0 ]), [])) ]

let advisor_tests =
  [
    quick "small delta on a large relation avoids recompute" (fun () ->
        let db, view = big_r_view () in
        let d = Advisor.decide view ~db ~net:(net_of_size 2) in
        (* The single-source selection carries a self-maintenance
           certificate, so on a small delta the zero-base-read arm beats
           both classic strategies; differential still beats recompute. *)
        Alcotest.(check bool) "self-maintenance wins" true
          (d.Advisor.choose = Advisor.Self_maintain);
        Alcotest.(check bool) "certificate cost present" true
          (d.Advisor.self_maintain_cost <> None);
        Alcotest.(check bool) "differential beats recompute" true
          (d.Advisor.differential_cost < d.Advisor.recompute_cost));
    quick "huge churn flips the choice to recompute" (fun () ->
        let db, view = big_r_view () in
        let d = Advisor.decide view ~db ~net:(net_of_size 5000) in
        Alcotest.(check bool) "recompute wins" true
          (d.Advisor.choose = Advisor.Recompute));
    quick "differential cost is monotone in the delta size" (fun () ->
        let db, view = big_r_view () in
        let cost n =
          (Advisor.decide view ~db ~net:(net_of_size n)).Advisor.differential_cost
        in
        let recompute n =
          (Advisor.decide view ~db ~net:(net_of_size n)).Advisor.recompute_cost
        in
        Alcotest.(check bool) "10 < 100 < 1000" true
          (cost 10 < cost 100 && cost 100 < cost 1000);
        Alcotest.(check (float 1e-9)) "recompute ignores the delta"
          (recompute 10) (recompute 1000));
    quick "untouched view costs nothing differentially" (fun () ->
        let db, view = big_r_view () in
        let d = Advisor.decide view ~db ~net:[] in
        Alcotest.(check (float 1e-9)) "zero differential cost" 0.0
          d.Advisor.differential_cost;
        Alcotest.(check bool) "so differential is chosen" true
          (d.Advisor.choose = Advisor.Differential));
    quick "calibration fits actual = 2 x predicted on both strategies"
      (fun () ->
        Advisor.reset_samples ();
        let decision ~diff cost =
          {
            Advisor.differential_cost = (if diff then cost else cost *. 10.0);
            recompute_cost = (if diff then cost *. 10.0 else cost);
            self_maintain_cost = None;
            choose = (if diff then Advisor.Differential else Advisor.Recompute);
          }
        in
        List.iter
          (fun cost ->
            Advisor.record ~view:"v" ~used:Advisor.Differential
              ~actual_ns:(int_of_float (cost *. 2.0))
              (decision ~diff:true cost);
            Advisor.record ~view:"v" ~used:Advisor.Recompute
              ~actual_ns:(int_of_float (cost *. 2.0))
              (decision ~diff:false cost))
          [ 500.0; 1000.0; 2000.0 ];
        let c = Advisor.calibrate () in
        Alcotest.(check int) "samples" 6 c.Advisor.n_samples;
        Alcotest.(check int) "all agree" 6 c.Advisor.agreements;
        Alcotest.(check (option (float 1e-6))) "differential scale = 2"
          (Some 2.0) c.Advisor.scale_differential;
        Alcotest.(check (option (float 1e-6))) "recompute scale = 2"
          (Some 2.0) c.Advisor.scale_recompute;
        Alcotest.(check (option (float 1e-6))) "zero residual error"
          (Some 0.0) c.Advisor.mean_abs_rel_error;
        Advisor.reset_samples ());
    quick "the sample store keeps the newest samples, oldest first" (fun () ->
        Advisor.reset_samples ();
        let decision i =
          {
            Advisor.differential_cost = float_of_int i;
            recompute_cost = float_of_int (2 * i);
            self_maintain_cost =
              (if i mod 3 = 0 then Some (float_of_int i +. 0.5) else None);
            choose =
              (match i mod 3 with
              | 0 -> Advisor.Differential
              | 1 -> Advisor.Recompute
              | _ -> Advisor.Self_maintain);
          }
        in
        let used i =
          if i mod 2 = 0 then Advisor.Recompute else Advisor.Differential
        in
        let n = (2 * Advisor.sample_capacity) + 3 in
        for i = 1 to n do
          Advisor.record ~view:(Printf.sprintf "v%d" (i mod 7)) ~used:(used i)
            ~actual_ns:i (decision i)
        done;
        let samples = Advisor.samples () in
        Alcotest.(check int) "capacity" Advisor.sample_capacity
          (List.length samples);
        List.iteri
          (fun k (s : Advisor.sample) ->
            let i = n - Advisor.sample_capacity + 1 + k in
            if
              s.Advisor.actual_ns <> i
              || s.Advisor.decision <> decision i
              || s.Advisor.view <> Printf.sprintf "v%d" (i mod 7)
              || s.Advisor.used <> used i
            then Alcotest.fail (Printf.sprintf "sample %d is not record %d" k i))
          samples;
        Advisor.reset_samples ();
        Alcotest.(check int) "reset empties" 0 (List.length (Advisor.samples ())));
  ]

let () =
  Alcotest.run "core units"
    [
      ("truth table", truth_table_tests);
      ("truth table expansion", expansion_tests);
      ("tag algebra", tag_tests);
      ("advisor", advisor_tests);
    ]
