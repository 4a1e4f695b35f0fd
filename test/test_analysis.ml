(* The view-definition static analyzer: paper-grounded diagnostics
   (IVM001-IVM040), the Manager registration gate, and a QCheck guard on
   the satisfiability procedure backing IVM001. *)

open Relalg
open Helpers
module F = Condition.Formula
module Sat = Condition.Satisfiability
module Expr = Query.Expr
module Diagnostic = Analysis.Diagnostic
module Analyzer = Analysis.Analyzer
module Screening = Analysis.Check_screening
module Projection = Analysis.Check_projection
module View = Ivm.View
module Manager = Ivm.Manager
open F.Dsl

let lookup_of db name = Relation.schema (Database.find db name)
let diags ?keys db expr = Analyzer.run_expr ?keys ~lookup:(lookup_of db) expr

let codes ds =
  List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.code) ds)

let has_code c ds = List.mem c (codes ds)

let contexts_of_code c ds =
  List.filter_map
    (fun d ->
      if String.equal d.Diagnostic.code c then d.Diagnostic.context else None)
    ds

(* ------------------------------------------------------------------ *)
(* IVM001: unsatisfiable condition                                     *)
(* ------------------------------------------------------------------ *)

let ivm001_tests =
  [
    quick "contradictory bounds are an error" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(select ((v "A" <% i 0) &&% (v "A" >% i 10)) (base "R"))
        in
        Alcotest.(check bool) "IVM001" true (has_code "IVM001" ds);
        Alcotest.(check bool) "errors" true (Diagnostic.has_errors ds);
        Alcotest.(check bool) "not ok" false (Analyzer.ok ds));
    quick "a negative cycle through three atoms is caught" (fun () ->
        (* A < B, B < C, C < A: unsatisfiable by Rosenkrantz-Hunt. *)
        let db =
          db_of [ ("T", rel [ "A"; "B"; "C" ] []) ]
        in
        let ds =
          diags db
            Expr.(
              select
                ((v "A" <% v "B") &&% (v "B" <% v "C") &&% (v "C" <% v "A"))
                (base "T"))
        in
        Alcotest.(check bool) "IVM001" true (has_code "IVM001" ds));
    quick "example 4.1 is clean" (fun () ->
        let ds = diags (example_4_1_db ()) (example_4_1_expr ()) in
        Alcotest.(check (list string)) "no diagnostics" [] (codes ds));
    quick "a compile error becomes IVM000" (fun () ->
        let ds =
          diags (example_4_1_db ()) Expr.(select (v "Z" =% i 1) (base "R"))
        in
        Alcotest.(check (list string)) "IVM000" [ "IVM000" ] (codes ds);
        Alcotest.(check bool) "errors" true (Diagnostic.has_errors ds));
    quick "a weak string cycle against <> is caught" (fun () ->
        (* name <= region <= name forces name = region. *)
        let db = Database.create () in
        let register name columns =
          Database.register db name
            (Relation.of_tuples (Schema.make columns) [])
        in
        register "emp"
          [ ("eid", Value.Int_ty); ("dept", Value.Int_ty);
            ("salary", Value.Int_ty); ("name", Value.Str_ty) ];
        register "dept"
          [ ("dept", Value.Int_ty); ("cap", Value.Int_ty);
            ("region", Value.Str_ty) ];
        let ds =
          diags db
            (Query.Parser.view ~lookup:(lookup_of db)
               "SELECT eid FROM emp, dept WHERE name <> region AND name <= \
                region AND region <= name")
        in
        Alcotest.(check bool) "IVM001" true (has_code "IVM001" ds));
  ]

(* ------------------------------------------------------------------ *)
(* IVM002: redundancy                                                  *)
(* ------------------------------------------------------------------ *)

let ivm002_tests =
  [
    quick "an implied atom is reported with a simplification" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(select ((v "A" <% i 10) &&% (v "A" <% i 20)) (base "R"))
        in
        let hints = Diagnostic.with_code "IVM002" ds in
        Alcotest.(check int) "one hint" 1 (List.length hints);
        Alcotest.(check bool) "severity" true
          ((List.hd hints).Diagnostic.severity = Diagnostic.Hint));
    quick "a tautological atom is reported" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(select (v "A" =% v "A") (base "R"))
        in
        Alcotest.(check bool) "IVM002" true (has_code "IVM002" ds));
    quick "a dead disjunct is reported" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(
              select
                (((v "A" <% i 0) &&% (v "A" >% i 0)) ||% (v "B" >% i 5))
                (base "R"))
        in
        Alcotest.(check bool) "IVM002" true (has_code "IVM002" ds);
        Alcotest.(check bool) "no error" false (Diagnostic.has_errors ds));
    quick "independent atoms are not flagged" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(select ((v "A" <% i 10) &&% (v "B" >% i 5)) (base "R"))
        in
        Alcotest.(check bool) "no IVM002" false (has_code "IVM002" ds));
    quick "simplify_conjunction keeps equivalence witnesses" (fun () ->
        (* A = B and B = A imply each other; exactly one must survive. *)
        let a = F.atom (F.O_var "A") F.Eq (F.O_var "B") in
        let b = F.atom (F.O_var "B") F.Eq (F.O_var "A") in
        let kept, removed =
          Analysis.Check_redundancy.simplify_conjunction
            ~typing:Sat.int_typing [ a; b ]
        in
        Alcotest.(check int) "one kept" 1 (List.length kept);
        Alcotest.(check int) "one removed" 1 (List.length removed));
  ]

(* ------------------------------------------------------------------ *)
(* IVM010 / IVM011: screening power (Algorithm 4.1 split)              *)
(* ------------------------------------------------------------------ *)

let split_for db expr alias =
  let lookup = lookup_of db in
  let spj = Query.Spj.compile lookup expr in
  List.find
    (fun s -> String.equal s.Screening.alias alias)
    (Screening.splits ~lookup spj)

let screening_tests =
  [
    quick "example 4.1: both sources have a non-empty invariant split"
      (fun () ->
        (* Algorithm 4.1 precomputes the invariant part once per source;
           for C = (A<10 & C>5 & B=C) both splits are proper. *)
        let db = example_4_1_db () in
        List.iter
          (fun alias ->
            let split = split_for db (example_4_1_expr ()) alias in
            match split.Screening.per_disjunct with
            | [ (invariant, variant) ] ->
              Alcotest.(check bool)
                (alias ^ " invariant non-empty")
                true (invariant <> []);
              Alcotest.(check bool)
                (alias ^ " variant non-empty")
                true (variant <> [])
            | _ -> Alcotest.fail "expected a single disjunct")
          [ "R"; "S" ]);
    quick "example 4.1 invariant parts are the opposite source's atoms"
      (fun () ->
        let db = example_4_1_db () in
        let split = split_for db (example_4_1_expr ()) "R" in
        let invariant, variant = List.hd split.Screening.per_disjunct in
        Alcotest.(check int) "R invariant: C>5 only" 1 (List.length invariant);
        Alcotest.(check int) "R variant: A<10 and B=C" 2 (List.length variant));
    quick "an unconstrained source warns IVM010" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(
              project [ "A"; "D" ]
                (select (v "A" <% i 10) (product (base "R") (base "S"))))
        in
        Alcotest.(check (list string))
          "S flagged" [ "S" ]
          (contexts_of_code "IVM010" ds));
    quick "example 4.1 has no IVM010" (fun () ->
        let ds = diags (example_4_1_db ()) (example_4_1_expr ()) in
        Alcotest.(check bool) "clean" false (has_code "IVM010" ds));
    quick "invariantly-unsatisfiable source hints IVM011" (fun () ->
        (* C>5 & C<0 is invariant for R and unsatisfiable: no update to R
           ever matters (and the view itself is empty, IVM001). *)
        let ds =
          diags (example_4_1_db ())
            Expr.(
              project [ "A"; "D" ]
                (select
                   ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "C" <% i 0))
                   (product (base "R") (base "S"))))
        in
        Alcotest.(check bool) "IVM001" true (has_code "IVM001" ds);
        Alcotest.(check (list string))
          "R always irrelevant" [ "R" ]
          (contexts_of_code "IVM011" ds));
  ]

(* ------------------------------------------------------------------ *)
(* IVM020: hidden Cartesian products                                   *)
(* ------------------------------------------------------------------ *)

let ivm020_tests =
  [
    quick "an unlinked product warns" (fun () ->
        let ds =
          diags (example_4_1_db ())
            Expr.(
              project [ "A"; "D" ]
                (select (v "A" <% i 10) (product (base "R") (base "S"))))
        in
        Alcotest.(check bool) "IVM020" true (has_code "IVM020" ds));
    quick "a join atom connects the sources" (fun () ->
        (* Example 4.1 is syntactically a product, but B = C links it. *)
        let ds = diags (example_4_1_db ()) (example_4_1_expr ()) in
        Alcotest.(check bool) "no IVM020" false (has_code "IVM020" ds));
    quick "components partition a three-source view" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] []);
              ("S", rel [ "C"; "D" ] []);
              ("T", rel [ "E"; "F" ] []);
            ]
        in
        let lookup = lookup_of db in
        let spj =
          Query.Spj.compile lookup
            Expr.(
              select (v "B" =% v "C")
                (product (product (base "R") (base "S")) (base "T")))
        in
        let components = Query.Hypergraph.components ~lookup spj in
        Alcotest.(check int) "two components" 2 (List.length components);
        Alcotest.(check bool)
          "R with S" true
          (List.exists
             (fun c -> List.mem "R" c && List.mem "S" c)
             components));
  ]

(* ------------------------------------------------------------------ *)
(* IVM030 / IVM031: projection safety and key retention                *)
(* ------------------------------------------------------------------ *)

let spj_with_projection projection =
  {
    Query.Spj.sources = [ { Query.Spj.relation = "R"; alias = "R" } ];
    condition = F.True;
    condition_dnf = [ [] ];
    projection;
  }

let projection_tests =
  [
    quick "duplicate output names are an error" (fun () ->
        let lookup = lookup_of (example_4_1_db ()) in
        let ds =
          Analyzer.run ~lookup
            (spj_with_projection [ ("X", "R.A"); ("X", "R.B") ])
        in
        Alcotest.(check (list string))
          "X flagged" [ "X" ]
          (contexts_of_code "IVM030" ds);
        Alcotest.(check bool) "errors" true (Diagnostic.has_errors ds));
    quick "dangling qualified attributes are an error" (fun () ->
        let lookup = lookup_of (example_4_1_db ()) in
        let ds =
          Analyzer.run ~lookup (spj_with_projection [ ("A", "R.Z") ])
        in
        Alcotest.(check (list string))
          "R.Z flagged" [ "R.Z" ]
          (contexts_of_code "IVM030" ds));
    quick "example 5.1: no key retained, counters required" (fun () ->
        (* V = pi_B(R) with key A dropped: deleting (3,20) must decrement
           a counter, which is why Section 5.2 introduces them. *)
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]) ] in
        let keys = [ ("R", [ "A" ]) ] in
        let lookup = lookup_of db in
        let spj =
          Query.Spj.compile lookup Expr.(project [ "B" ] (base "R"))
        in
        (match Projection.key_retention ~keys spj with
        | Some (Projection.Counters_required [ "R" ]) -> ()
        | _ -> Alcotest.fail "expected Counters_required [R]");
        let ds = diags ~keys db Expr.(project [ "B" ] (base "R")) in
        let hints = Diagnostic.with_code "IVM031" ds in
        Alcotest.(check int) "one IVM031" 1 (List.length hints);
        Alcotest.(check bool) "hint severity" true
          ((List.hd hints).Diagnostic.severity = Diagnostic.Hint));
    quick "a retained key makes counters provably redundant" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]) ] in
        let keys = [ ("R", [ "A" ]) ] in
        let lookup = lookup_of db in
        let spj =
          Query.Spj.compile lookup Expr.(project [ "A"; "B" ] (base "R"))
        in
        (match Projection.key_retention ~keys spj with
        | Some Projection.Counters_redundant -> ()
        | _ -> Alcotest.fail "expected Counters_redundant");
        Alcotest.(check bool)
          "agrees with Keys" true
          (Query.Keys.projection_preserves_keys ~keys spj));
    quick "without declared keys there is no IVM031" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [] ) ] in
        let ds = diags db Expr.(project [ "B" ] (base "R")) in
        Alcotest.(check bool) "no IVM031" false (has_code "IVM031" ds));
  ]

(* ------------------------------------------------------------------ *)
(* IVM040: mixed-type comparisons                                      *)
(* ------------------------------------------------------------------ *)

let ivm040_tests =
  [
    quick "string-integer comparison warns with its constant truth"
      (fun () ->
        let db =
          db_of
            [
              ( "T",
                Relation.of_tuples
                  (Schema.make [ ("A", Value.Int_ty); ("N", Value.Str_ty) ])
                  [] );
            ]
        in
        let ds = diags db Expr.(select (v "N" =% i 3) (base "T")) in
        Alcotest.(check bool) "IVM040" true (has_code "IVM040" ds);
        (* The fold makes the whole condition false, so IVM001 fires too. *)
        Alcotest.(check bool) "IVM001" true (has_code "IVM001" ds));
    quick "well-typed comparisons do not warn" (fun () ->
        let ds =
          diags (example_4_1_db ()) Expr.(select (v "A" <% i 3) (base "R"))
        in
        Alcotest.(check bool) "no IVM040" false (has_code "IVM040" ds));
  ]

(* ------------------------------------------------------------------ *)
(* Manager integration: the registration gate                          *)
(* ------------------------------------------------------------------ *)

let manager_tests =
  [
    quick "error-level diagnostics reject registration" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let unsat =
          Expr.(select ((v "A" <% i 0) &&% (v "A" >% i 10)) (base "R"))
        in
        (match Manager.define_view mgr ~name:"dead" unsat with
        | _ -> Alcotest.fail "expected Rejected"
        | exception Manager.Rejected ds ->
          Alcotest.(check bool) "has errors" true (Diagnostic.has_errors ds));
        Alcotest.(check (list string)) "not registered" []
          (Manager.view_names mgr));
    quick "~force:true overrides the gate" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let unsat =
          Expr.(select ((v "A" <% i 0) &&% (v "A" >% i 10)) (base "R"))
        in
        let view = Manager.define_view mgr ~name:"dead" ~force:true unsat in
        Alcotest.(check (list string))
          "registered" [ "dead" ]
          (Manager.view_names mgr);
        Alcotest.(check int) "empty" 0
          (Relation.cardinal (View.contents view));
        (* The forced view still maintains correctly: it stays empty. *)
        ignore
          (Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 5; 5 ]) ]);
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "dead"));
    quick "clean definitions register and lint clean" (fun () ->
        let db = example_4_1_db () in
        let mgr = Manager.create db in
        let view = Manager.define_view mgr ~name:"u" (example_4_1_expr ()) in
        Alcotest.(check (list string)) "no diagnostics" []
          (codes (View.lint view)));
    quick "keys given at registration feed View.lint" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]) ] in
        let mgr = Manager.create db in
        let view =
          Manager.define_view mgr ~name:"v"
            ~keys:[ ("R", [ "A" ]) ]
            Expr.(project [ "B" ] (base "R"))
        in
        Alcotest.(check bool)
          "IVM031 present" true
          (has_code "IVM031" (View.lint view)));
  ]

(* ------------------------------------------------------------------ *)
(* IVM050-IVM054: self-maintainability                                 *)
(* ------------------------------------------------------------------ *)

module SM = Analysis.Check_self_maintain

let severity_of_code c ds =
  List.filter_map
    (fun d ->
      if String.equal d.Diagnostic.code c then Some d.Diagnostic.severity
      else None)
    ds

let self_maintain_tests =
  [
    quick "example 5.1: single-source views are fully self-maintainable"
      (fun () ->
        (* pi_B(R), the paper's Example 5.1 — p = 1, so both insertions
           and deletions are maintainable from the update tuples alone,
           without any key declaration. *)
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]) ] in
        let ds = diags db Expr.(project [ "B" ] (base "R")) in
        Alcotest.(check bool) "IVM050" true (has_code "IVM050" ds);
        Alcotest.(check bool) "IVM051" true (has_code "IVM051" ds);
        Alcotest.(check (list string)) "both anchored to R" [ "R" ]
          (List.sort_uniq String.compare
             (contexts_of_code "IVM050" ds @ contexts_of_code "IVM051" ds));
        Alcotest.(check bool) "hints, not warnings" true
          (List.for_all
             (fun s -> s = Diagnostic.Hint)
             (severity_of_code "IVM050" ds @ severity_of_code "IVM051" ds));
        let spj =
          Query.Spj.compile (lookup_of db) Expr.(project [ "B" ] (base "R"))
        in
        let cert = SM.analyze ~keys:[] ~lookup:(lookup_of db) spj in
        Alcotest.(check bool) "insert provable" true
          (SM.insert_self_maintainable cert "R");
        Alcotest.(check bool) "delete provable" true
          (SM.delete_self_maintainable cert "R"));
    quick "example 4.1 with keys: R provable by key, S a near miss"
      (fun () ->
        (* pi_{A,D}(sigma_{A<10 & C>5 & B=C}(R x S)) with keys R:A, S:C.
           The view projects A, so deletions from R drain by key; S's key
           C lives in the unprojected class {B, C}, a near miss. *)
        let ds =
          diags
            ~keys:[ ("R", [ "A" ]); ("S", [ "C" ]) ]
            (example_4_1_db ()) (example_4_1_expr ())
        in
        Alcotest.(check (list string)) "IVM051 for R" [ "R" ]
          (contexts_of_code "IVM051" ds);
        Alcotest.(check (list string)) "IVM052 names source S" [ "S" ]
          (contexts_of_code "IVM052" ds);
        Alcotest.(check bool) "near miss is a warning" true
          (severity_of_code "IVM052" ds = [ Diagnostic.Warning ]);
        Alcotest.(check bool) "no insert certificate (p = 2)" false
          (has_code "IVM050" ds));
    quick "without declared keys multi-source views stay quiet" (fun () ->
        let ds = diags (example_4_1_db ()) (example_4_1_expr ()) in
        Alcotest.(check (list string)) "no IVM05x" []
          (List.filter (fun c -> Diagnostic.code_matches ~query:"IVM05*" c)
             (codes ds)));
    quick "pinned key attributes count as recovered" (fun () ->
        (* B = 3 pins the join class {R.B, S.B}; A and C are projected,
           so both relations' full keys are recoverable off a view tuple. *)
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] [ [ 1; 3 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 3; 7 ] ]) ]
        in
        let ds =
          diags
            ~keys:[ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]
            db
            Expr.(
              project [ "A"; "C" ]
                (select (v "B" =% i 3) (join (base "R") (base "S"))))
        in
        Alcotest.(check (list string)) "both relations provable" [ "R"; "S" ]
          (List.sort String.compare (contexts_of_code "IVM051" ds));
        Alcotest.(check bool) "no near misses" false
          (has_code "IVM052" ds || has_code "IVM053" ds));
    quick "a keyless sibling relation is an IVM053 near miss" (fun () ->
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] [ [ 1; 3 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 3; 7 ] ]) ]
        in
        let ds =
          diags ~keys:[ ("R", [ "A"; "B" ]) ] db
            Expr.(join (base "R") (base "S"))
        in
        Alcotest.(check (list string)) "R provable" [ "R" ]
          (contexts_of_code "IVM051" ds);
        Alcotest.(check (list string)) "S lacks a key" [ "S" ]
          (contexts_of_code "IVM053" ds));
    quick "disjunction blocks keyed analysis with a targeted warning"
      (fun () ->
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] [ [ 1; 3 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 3; 7 ] ]) ]
        in
        let expr =
          Expr.(
            select ((v "A" <% i 5) ||% (v "C" >% i 2))
              (join (base "R") (base "S")))
        in
        let keyed = diags ~keys:[ ("R", [ "A"; "B" ]) ] db expr in
        Alcotest.(check bool) "IVM054 with keys" true
          (has_code "IVM054" keyed);
        let keyless = diags db expr in
        Alcotest.(check bool) "quiet without keys" false
          (has_code "IVM054" keyless));
    quick "IVM05* prefix query selects exactly the band" (fun () ->
        let ds =
          diags
            ~keys:[ ("R", [ "A" ]); ("S", [ "C" ]) ]
            (example_4_1_db ()) (example_4_1_expr ())
        in
        let band = Diagnostic.with_code "IVM05*" ds in
        Alcotest.(check bool) "nonempty" true (band <> []);
        Alcotest.(check bool) "only IVM05x codes" true
          (List.for_all
             (fun d ->
               String.length d.Diagnostic.code = 6
               && String.sub d.Diagnostic.code 0 5 = "IVM05")
             band);
        Alcotest.(check int) "exact query still works" 1
          (List.length (Diagnostic.with_code "IVM052" ds)));
    quick "analyzer output is deterministic and duplicate-free" (fun () ->
        let run () =
          diags
            ~keys:[ ("R", [ "A" ]); ("S", [ "C" ]) ]
            (example_4_1_db ()) (example_4_1_expr ())
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "two runs agree" true (a = b);
        Alcotest.(check int) "no duplicates" (List.length a)
          (List.length (List.sort_uniq compare a)));
  ]

(* ------------------------------------------------------------------ *)
(* IVM060-IVM063: aggregates and view towers                           *)
(* ------------------------------------------------------------------ *)

let agg func output = { Query.Aggregate.func; output }

let mixed_db () =
  db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ] ]) ]

let string_db () =
  let schema =
    Schema.make [ ("A", Value.Int_ty); ("NAME", Value.Str_ty) ]
  in
  let db = Database.create () in
  Database.register db "P" (Relation.of_tuples schema []);
  db

let severity_of_code' c ds =
  List.filter_map
    (fun d ->
      if String.equal d.Diagnostic.code c then Some d.Diagnostic.severity
      else None)
    ds

let aggregate_tests =
  [
    quick "a clean grouped view lints clean" (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "B" ]
                [ agg Query.Aggregate.Count "cnt";
                  agg (Query.Aggregate.Sum "A") "sum_a" ]
                (base "R"))
        in
        Alcotest.(check (list string)) "no IVM06x errors" []
          (codes (List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds)));
    quick "IVM060: aggregate over a missing attribute is an error" (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "B" ]
                [ agg (Query.Aggregate.Sum "Z") "sum_z" ]
                (base "R"))
        in
        Alcotest.(check bool) "IVM060" true (has_code "IVM060" ds);
        Alcotest.(check (list string)) "names the attribute" [ "Z" ]
          (contexts_of_code "IVM060" ds);
        Alcotest.(check bool) "error severity" true
          (severity_of_code' "IVM060" ds = [ Diagnostic.Error ]));
    quick "IVM060: SUM over a string attribute is an error, MIN is not"
      (fun () ->
        let bad =
          diags (string_db ())
            Expr.(
              group_by ~keys:[]
                [ agg (Query.Aggregate.Sum "NAME") "sum_name" ]
                (base "P"))
        in
        Alcotest.(check bool) "SUM(NAME) is IVM060" true
          (has_code "IVM060" bad);
        let fine =
          diags (string_db ())
            Expr.(
              group_by ~keys:[]
                [ agg (Query.Aggregate.Min "NAME") "min_name" ]
                (base "P"))
        in
        Alcotest.(check bool) "MIN(NAME) folds in an order monoid" false
          (has_code "IVM060" fine));
    quick "IVM061: a group key the inner expression drops is an error"
      (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "B" ]
                [ agg Query.Aggregate.Count "cnt" ]
                (project [ "A" ] (base "R")))
        in
        Alcotest.(check bool) "IVM061" true (has_code "IVM061" ds);
        Alcotest.(check (list string)) "names the key" [ "B" ]
          (contexts_of_code "IVM061" ds));
    quick "IVM061: colliding output columns are an error" (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "B" ]
                [ agg Query.Aggregate.Count "B" ]
                (base "R"))
        in
        Alcotest.(check (list string)) "names the collision" [ "B" ]
          (contexts_of_code "IVM061" ds));
    quick "IVM062: a self-referencing definition is an error" (fun () ->
        let db = mixed_db () in
        let lookup name =
          if String.equal name "loop" then Helpers.int_schema [ "A" ]
          else lookup_of db name
        in
        let ds =
          Analyzer.run_expr ~view_name:"loop" ~lookup
            Expr.(project [ "A" ] (base "loop"))
        in
        Alcotest.(check bool) "IVM062" true (has_code "IVM062" ds);
        Alcotest.(check bool) "error severity" true
          (severity_of_code' "IVM062" ds = [ Diagnostic.Error ]);
        (* The cycle short-circuits compilation: no spurious IVM000. *)
        Alcotest.(check bool) "no IVM000" false (has_code "IVM000" ds));
    quick "IVM063: MIN/MAX carry the rescan hint, COUNT/SUM do not"
      (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "B" ]
                [ agg (Query.Aggregate.Min "A") "min_a";
                  agg (Query.Aggregate.Sum "A") "sum_a" ]
                (base "R"))
        in
        Alcotest.(check (list string)) "hint names the target" [ "min_a" ]
          (contexts_of_code "IVM063" ds);
        Alcotest.(check bool) "hint severity" true
          (severity_of_code' "IVM063" ds = [ Diagnostic.Hint ]);
        Alcotest.(check bool) "analyzer still ok" true (Analyzer.ok ds));
    quick "IVM06* prefix query selects exactly the band" (fun () ->
        let ds =
          diags (mixed_db ())
            Expr.(
              group_by ~keys:[ "Z" ]
                [ agg (Query.Aggregate.Max "Q") "Z" ]
                (base "R"))
        in
        let band = Diagnostic.with_code "IVM06*" ds in
        Alcotest.(check bool) "nonempty" true (band <> []);
        Alcotest.(check bool) "only IVM06x codes" true
          (List.for_all
             (fun d ->
               String.length d.Diagnostic.code = 6
               && String.sub d.Diagnostic.code 0 5 = "IVM06")
             band));
    quick "manager gate: IVM060 errors reject the definition" (fun () ->
        let mgr = Manager.create (mixed_db ()) in
        (match
           Manager.define_view mgr ~name:"bad"
             Expr.(
               group_by ~keys:[ "B" ]
                 [ agg (Query.Aggregate.Sum "Z") "sum_z" ]
                 (base "R"))
         with
        | _ -> Alcotest.fail "IVM060 definition was accepted"
        | exception Manager.Rejected ds ->
          Alcotest.(check bool) "carries IVM060" true (has_code "IVM060" ds));
        Alcotest.(check (list string)) "nothing registered" []
          (Manager.view_names mgr));
    quick "manager gate: the DAG is enforced by definition order" (fun () ->
        (* A definition can only reference already-registered names and a
           name registers exactly once, so the single representable cycle
           is a self-reference (IVM062 at the analyzer); every other
           shape dies on the name check before any evaluation. *)
        let mgr = Manager.create (mixed_db ()) in
        ignore
          (Manager.define_view mgr ~name:"loop"
             Expr.(project [ "A" ] (base "R")));
        Alcotest.check_raises "redefinition is rejected"
          (Invalid_argument "Manager.define_view: \"loop\" already exists")
          (fun () ->
            ignore
              (Manager.define_view mgr ~name:"loop"
                 Expr.(project [ "A" ] (base "loop")))));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: Satisfiability never answers Unsat on a conjunction a       *)
(* brute-force enumerator can satisfy (IVM001 soundness guard)         *)
(* ------------------------------------------------------------------ *)

let vars = [| "w"; "x"; "y"; "z" |]

let gen_atom =
  QCheck.Gen.(
    let* left = map (fun i -> F.O_var vars.(i)) (int_bound 3) in
    let* cmp = oneofl [ F.Eq; F.Neq; F.Lt; F.Leq; F.Gt; F.Geq ] in
    let* use_var = bool in
    if use_var then
      let* right = map (fun i -> F.O_var vars.(i)) (int_bound 3) in
      let* shift = int_range (-2) 2 in
      return (F.atom left cmp ~shift right)
    else
      let* c = int_range (-4) 4 in
      return (F.atom left cmp (F.O_const (Value.Int c))))

let gen_conjunction = QCheck.Gen.(list_size (int_range 1 5) gen_atom)

let print_conjunction atoms =
  Format.asprintf "%a" F.pp (F.of_dnf [ atoms ])

(* Exhaustive search over the box [-6, 6]^4; finding a witness there
   proves satisfiability over the integers. *)
let brute_force_satisfiable atoms =
  let lo = -6 and hi = 6 in
  let rec go i env =
    if i = Array.length vars then
      F.eval_conjunction
        (fun a -> Value.Int (List.assoc a env))
        atoms
    else
      let rec try_value value =
        value <= hi
        && (go (i + 1) ((vars.(i), value) :: env) || try_value (value + 1))
      in
      try_value lo
  in
  go 0 []

let unsat_is_sound =
  QCheck.Test.make ~count:300 ~name:"Unsat verdicts are never refuted by brute force"
    (QCheck.make ~print:print_conjunction gen_conjunction)
    (fun atoms ->
      match Sat.conjunction atoms with
      | Sat.Unsat -> not (brute_force_satisfiable atoms)
      | Sat.Sat | Sat.Unknown -> true)

let property_tests = [ QCheck_alcotest.to_alcotest unsat_is_sound ]

let () =
  Alcotest.run "analysis"
    [
      ("IVM001: satisfiability", ivm001_tests);
      ("IVM002: redundancy", ivm002_tests);
      ("IVM010/IVM011: screening", screening_tests);
      ("IVM020: join graph", ivm020_tests);
      ("IVM030/IVM031: projection", projection_tests);
      ("IVM040: typing", ivm040_tests);
      ("IVM050-IVM054: self-maintenance", self_maintain_tests);
      ("IVM060-IVM063: aggregates and towers", aggregate_tests);
      ("manager gate", manager_tests);
      ("properties", property_tests);
    ]
