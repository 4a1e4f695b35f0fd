(* Oracle-backed differential testing: the naive reference engine, the
   lockstep harness, the shrinker, and the top-level fuzz loop.

   The headline properties replay randomly generated transaction streams
   through the full maintenance stack and assert the engine never
   diverges from a from-scratch recompute — 100 streams at domains=1 and
   100 at domains=4, on top of the fixed-seed budget tools/check.sh
   runs.  The corrupt-hook tests then verify the harness actually
   detects injected bugs and that the shrinker reduces such failures to
   near-minimal counterexamples. *)

open Relalg
open Helpers
module Stream = Oracle.Stream
module Harness = Oracle.Harness
module Reference = Oracle.Reference
module Shrink = Oracle.Shrink
module Fuzz = Oracle.Fuzz
module Manager = Ivm.Manager
module View = Ivm.View

let property name ?(count = 100) law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(int_range 0 1_000_000) law)

(* ------------------------------------------------------------------ *)
(* Reference engine                                                   *)
(* ------------------------------------------------------------------ *)

let example_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 5; 2 ]; [ 9; 4 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 2; 7 ]; [ 4; 1 ] ]);
    ]

let join_expr = Query.Expr.(join (base "R") (base "S"))

let reference_tests =
  [
    quick "contents equal a fresh evaluation of the definition" (fun () ->
        let db = example_db () in
        let r = Reference.create db in
        Reference.define r ~name:"v" join_expr;
        check_rel "initial materialization"
          (Query.Eval.eval db join_expr)
          (Reference.contents r "v"));
    quick "create copies the database: later engine writes are invisible"
      (fun () ->
        let db = example_db () in
        let r = Reference.create db in
        Relation.add (Database.find db "R") (Tuple.of_ints [ 100; 100 ]);
        Alcotest.(check bool) "reference state untouched" false
          (Relation.mem
             (Database.find (Reference.database r) "R")
             (Tuple.of_ints [ 100; 100 ])));
    quick "step applies the transaction and recomputes every view" (fun () ->
        let db = example_db () in
        let r = Reference.create db in
        Reference.define r ~name:"v" join_expr;
        Reference.step r
          [
            Transaction.insert "S" (Tuple.of_ints [ 4; 9 ]);
            Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]);
          ];
        let expected =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 5; 2 ]; [ 9; 4 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 2; 7 ]; [ 4; 1 ]; [ 4; 9 ] ]);
            ]
        in
        check_rel "recomputed after step"
          (Query.Eval.eval expected join_expr)
          (Reference.contents r "v"));
    quick "apply rejects invalid operations" (fun () ->
        let db = example_db () in
        let r = Reference.create db in
        (try
           Reference.apply r
             [ Transaction.insert "R" (Tuple.of_ints [ 1; 2 ]) ];
           Alcotest.fail "duplicate insert accepted"
         with Invalid_argument _ -> ());
        try
          Reference.apply r
            [ Transaction.delete "R" (Tuple.of_ints [ 42; 42 ]) ];
          Alcotest.fail "delete of absent tuple accepted"
        with Invalid_argument _ -> ());
    quick "tuple_affects distinguishes relevant from irrelevant" (fun () ->
        let db = example_db () in
        let r = Reference.create db in
        Reference.define r ~name:"v"
          (let open Condition.Formula.Dsl in
           Query.Expr.(select (v "A" <% i 10) (base "R")));
        (* (3, 3) passes A < 10, so toggling it changes the view; (50, 3)
           fails it invariantly. *)
        Alcotest.(check bool) "satisfying insert affects" true
          (Reference.tuple_affects r ~view:"v" ~relation:"R" ~insert:true
             (Tuple.of_ints [ 3; 3 ]));
        Alcotest.(check bool) "failing insert does not" false
          (Reference.tuple_affects r ~view:"v" ~relation:"R" ~insert:true
             (Tuple.of_ints [ 50; 3 ]));
        (* The probe must leave the state untouched. *)
        Alcotest.(check bool) "probe tuple not left behind" false
          (Relation.mem
             (Database.find (Reference.database r) "R")
             (Tuple.of_ints [ 3; 3 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Stream validity filtering                                          *)
(* ------------------------------------------------------------------ *)

let filter_tests =
  [
    quick "duplicate inserts and absent deletes are dropped" (fun () ->
        let db = example_db () in
        let kept =
          Stream.filter_valid db
            [
              Transaction.insert "R" (Tuple.of_ints [ 1; 2 ]);
              (* already present *)
              Transaction.delete "R" (Tuple.of_ints [ 42; 42 ]);
              (* absent *)
              Transaction.insert "R" (Tuple.of_ints [ 8; 8 ]);
              Transaction.delete "S" (Tuple.of_ints [ 2; 7 ]);
            ]
        in
        Alcotest.(check int) "two valid operations" 2 (List.length kept));
    quick "membership evolves within the transaction" (fun () ->
        let db = example_db () in
        let kept =
          Stream.filter_valid db
            [
              Transaction.insert "R" (Tuple.of_ints [ 8; 8 ]);
              Transaction.delete "R" (Tuple.of_ints [ 8; 8 ]);
              (* valid: just inserted *)
              Transaction.delete "R" (Tuple.of_ints [ 8; 8 ]);
              (* invalid: just deleted *)
              Transaction.insert "R" (Tuple.of_ints [ 8; 8 ]);
              (* valid again *)
            ]
        in
        Alcotest.(check int) "three valid operations" 3 (List.length kept);
        Alcotest.(check bool) "database itself untouched" false
          (Relation.mem (Database.find db "R") (Tuple.of_ints [ 8; 8 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Harness + shrinker against an injected bug                          *)
(* ------------------------------------------------------------------ *)

(* Simulated maintenance bug: after every commit, smuggle a spurious
   tuple into the first view's materialization behind the engine's
   back. *)
let corrupt_first_view (s : Stream.t) mgr _index =
  match s.Stream.views with
  | [] -> ()
  | spec :: _ ->
    let view = Manager.view mgr spec.Stream.view_name in
    let width = List.length (Schema.attrs (View.schema view)) in
    Relation.add (View.contents view)
      (Tuple.of_ints (List.init width (fun _ -> 999)))

let corruption_tests =
  [
    quick "clean streams replay without divergence" (fun () ->
        let s = Stream.generate ~seed:2026 ~transactions:15 () in
        match Harness.run s with
        | None -> ()
        | Some d ->
          Alcotest.failf "unexpected %s"
            (Format.asprintf "%a" Harness.pp_divergence d));
    quick "corrupt hook is detected as a divergence" (fun () ->
        let s = Stream.generate ~seed:2026 ~transactions:15 () in
        match Harness.run ~corrupt:(corrupt_first_view s) s with
        | None -> Alcotest.fail "injected corruption went unnoticed"
        | Some d ->
          Alcotest.(check int) "caught on the first commit" 0
            d.Harness.transaction_index);
    quick "shrinker reduces the failure to a minimal stream" (fun () ->
        let s = Stream.generate ~seed:2026 ~transactions:15 () in
        let fails c = Harness.run ~corrupt:(corrupt_first_view c) c <> None in
        Alcotest.(check bool) "original fails" true (fails s);
        let m = Shrink.minimize fails s in
        Alcotest.(check bool) "minimized still fails" true (fails m);
        (* The corruption fires on any commit over any view: the minimum
           is one (possibly empty) transaction and one view, no initial
           tuples. *)
        Alcotest.(check bool)
          (Printf.sprintf "size %d <= 2" (Stream.size m))
          true
          (Stream.size m <= 2);
        Alcotest.(check int) "one transaction left" 1
          (List.length m.Stream.transactions);
        Alcotest.(check int) "one view left" 1 (List.length m.Stream.views));
    quick "corrupted aggregate payload is caught and shrunk" (fun () ->
        (* Deliberately corrupt the first GROUP BY view's rendered
           payload: bump one aggregate column of one group (or smuggle
           in a spurious group when the view is empty).  The lockstep
           compare must flag it, and the shrinker must keep an
           aggregate view while minimizing — drop_views candidates that
           orphan a tower child are rejected by Stream.well_formed. *)
        let is_aggregate (spec : Stream.view_spec) =
          Option.is_some (Query.Expr.aggregate spec.Stream.expr)
        in
        let corrupt (s : Stream.t) mgr _index =
          match List.find_opt is_aggregate s.Stream.views with
          | None -> ()
          | Some spec ->
            let view = Manager.view mgr spec.Stream.view_name in
            let contents = View.contents view in
            (match Relation.elements contents with
            | (t, _) :: _ ->
              let t' = Array.copy t in
              let last = Array.length t' - 1 in
              (t'.(last) <-
                 (match t'.(last) with
                 | Value.Int n -> Value.Int (n + 1)
                 | other -> other));
              Relation.remove contents t;
              Relation.add contents t'
            | [] ->
              let width = List.length (Schema.attrs (View.schema view)) in
              Relation.add contents
                (Tuple.of_ints (List.init width (fun _ -> 999))))
        in
        let s =
          Stream.generate ~aggregates:true ~seed:2027 ~transactions:12 ()
        in
        Alcotest.(check bool) "stream draws an aggregate view" true
          (List.exists is_aggregate s.Stream.views);
        (match Harness.run ~corrupt:(corrupt s) s with
        | None -> Alcotest.fail "corrupted aggregate payload went unnoticed"
        | Some d ->
          Alcotest.(check int) "caught on the first commit" 0
            d.Harness.transaction_index);
        let fails c =
          Stream.well_formed c && Harness.run ~corrupt:(corrupt c) c <> None
        in
        let m = Shrink.minimize fails s in
        Alcotest.(check bool) "minimized still fails" true (fails m);
        Alcotest.(check bool) "minimized keeps an aggregate view" true
          (List.exists is_aggregate m.Stream.views);
        Alcotest.(check bool)
          (Printf.sprintf "shrunk from %d to %d" (Stream.size s)
             (Stream.size m))
          true
          (Stream.size m < Stream.size s));
    quick "an end-of-stream divergence is returned, not raised" (fun () ->
        (* At this fault rate v0 stays quarantined through every heal
           round the ladder grants, which the end-of-stream check must
           report as a divergence for the shrinker. *)
        let s = Stream.generate ~domains:1 ~seed:7 ~transactions:12 () in
        match
          Harness.run ~fault_rate:0.95 ~policy:Resilience.Policy.Quarantine s
        with
        | None -> Alcotest.fail "v0 healed under saturated faults"
        | Some d ->
          Alcotest.(check string)
            "kind" "health"
            (Harness.kind_name d.Harness.kind);
          Alcotest.(check string) "view" "v0" d.Harness.view;
          Alcotest.(check int) "at end of stream" 11 d.Harness.transaction_index);
    quick "fuzz loop packages the counterexample" (fun () ->
        (* Fuzz.run generates fresh streams internally, so inject the bug
           via the harness directly and check the packaging layer through
           a clean run instead. *)
        let outcome =
          Fuzz.run ~seed:11 ~streams:3 ~transactions:8 ~domains:1 ()
        in
        Alcotest.(check int) "all streams ran" 3 outcome.Fuzz.streams_run;
        Alcotest.(check bool) "transactions counted" true
          (outcome.Fuzz.transactions_run > 0);
        Alcotest.(check bool) "no failure" true (outcome.Fuzz.failure = None));
  ]

(* ------------------------------------------------------------------ *)
(* The headline equivalence properties                                *)
(* ------------------------------------------------------------------ *)

let agrees ~domains seed =
  let s = Stream.generate ~domains ~seed ~transactions:12 () in
  match Harness.run s with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "%s@.%s"
      (Format.asprintf "%a" Harness.pp_divergence d)
      (Format.asprintf "%a" Stream.pp s)

(* Fault-injected replays: every commit must either succeed in agreement
   with the oracle, abort to a state bit-identical to the oracle's
   pre-commit copy, or quarantine views that self-heal by end of
   stream (see Harness.run's contract). *)
let survives_faults ~domains ~policy seed =
  let s = Stream.generate ~domains ~seed ~transactions:12 () in
  match Harness.run ~fault_rate:0.1 ~policy s with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "%s@.%s"
      (Format.asprintf "%a" Harness.pp_divergence d)
      (Format.asprintf "%a" Stream.pp s)

(* The aggregate arm: streams additionally draw GROUP BY views and a
   tower of dependents ({!Stream.generate}). *)
let agrees_aggregates ~domains seed =
  let s = Stream.generate ~aggregates:true ~domains ~seed ~transactions:12 () in
  match Harness.run s with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "%s@.%s"
      (Format.asprintf "%a" Harness.pp_divergence d)
      (Format.asprintf "%a" Stream.pp s)

let survives_faults_aggregates ~domains ~policy seed =
  let s = Stream.generate ~aggregates:true ~domains ~seed ~transactions:12 () in
  match Harness.run ~fault_rate:0.1 ~policy s with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "%s@.%s"
      (Format.asprintf "%a" Harness.pp_divergence d)
      (Format.asprintf "%a" Stream.pp s)

let equivalence_tests =
  [
    property "engine = oracle on random streams (domains=1)" (agrees ~domains:1);
    property "engine = oracle on random streams (domains=4)" (agrees ~domains:4);
    property ~count:60 "engine = oracle with aggregates and towers (domains=1)"
      (agrees_aggregates ~domains:1);
    property ~count:60 "engine = oracle with aggregates and towers (domains=4)"
      (agrees_aggregates ~domains:4);
    property ~count:30
      "faulted aggregate streams uphold the quarantine contract"
      (survives_faults_aggregates ~domains:2
         ~policy:Resilience.Policy.Quarantine);
    property ~count:40 "faulted streams uphold the abort contract (domains=1)"
      (survives_faults ~domains:1 ~policy:Resilience.Policy.Abort);
    property ~count:40
      "faulted streams uphold the quarantine contract (domains=4)"
      (survives_faults ~domains:4 ~policy:Resilience.Policy.Quarantine);
  ]

(* ------------------------------------------------------------------ *)
(* Crash schedule                                                     *)
(* ------------------------------------------------------------------ *)

let crash_tests =
  [
    quick "twelve crash streams kill at every WAL point" (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ivm-oracle-crash-%d" (Unix.getpid ()))
        in
        let o =
          Oracle.Crash.fuzz ~dir ~seed:1986 ~streams:12 ~transactions:10
            ~domains:1 ()
        in
        Alcotest.(check bool) "no divergence" true (o.Oracle.Crash.failure = None);
        Alcotest.(check int) "every stream died once" 12 o.Oracle.Crash.crashes;
        Alcotest.(check (list string)) "no point left unkilled" []
          (Oracle.Crash.unkilled o));
  ]

let () =
  Alcotest.run "oracle"
    [
      ("reference engine", reference_tests);
      ("stream filtering", filter_tests);
      ("corruption detection and shrinking", corruption_tests);
      ("equivalence", equivalence_tests);
      ("crash", crash_tests);
    ]
