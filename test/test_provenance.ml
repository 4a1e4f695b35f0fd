(* The observability pipeline end to end: Theorem 4.1 screening verdicts
   (Irrelevance.explain and the per-rule drop counts), the provenance
   commit record's JSON round-trip (property-tested), the always-on
   flight-recorder ring and its post-mortem dumps on aborted commits,
   OpenMetrics exposition conformance, the BENCH_IVM.json field table
   behind validate_snapshot and the bench_diff regression gate (every
   row broken against the committed baseline), and the advisor's
   deterministic reservoir sample. *)

open Relalg
open Helpers
module Irrelevance = Ivm.Irrelevance
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module View = Ivm.View
module Delta = Ivm.Delta
module Advisor = Ivm.Advisor
module Fault = Resilience.Fault
module Flight = Resilience.Flight
open Condition.Formula.Dsl

let reset_obs () =
  Obs.Control.disable ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Provenance.reset ();
  Obs.Provenance.set_recording true;
  Advisor.reset_samples ()

(* ------------------------------------------------------------------ *)
(* Irrelevance.explain: Example 4.1 verdicts                           *)
(* ------------------------------------------------------------------ *)

(* u = project[A,D] select[A<10 && C>5 && B=C] (R x S), the paper's
   Example 4.1.  Insertions into R are screened per Theorem 4.1:
   (9,10) joins S(10,20) — relevant; (11,10) fails A<10 after
   substitution; (9,3) forces C=3 against C>5, a negative cycle in the
   difference-constraint graph. *)
let example_4_1 () =
  let db =
    db_of
      [
        ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 5; 10 ] ]);
        ("S", rel [ "C"; "D" ] [ [ 2; 10 ]; [ 10; 20 ] ]);
      ]
  in
  let mgr = Manager.create db in
  Manager.define_view mgr ~name:"u"
    Query.Expr.(
      project [ "A"; "D" ]
        (select
           ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
           (product (base "R") (base "S"))))

let rule_testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Irrelevance.rule_id r))
    ( = )

let explain_tests =
  [
    quick "rule ids are stable (check.sh and dumps grep for them)" (fun () ->
        Alcotest.(check (list string)) "ids"
          [
            "IVM011:invariant-unsat"; "IVM001:substituted-false";
            "IVM001:string-conflict"; "IVM001:negative-cycle";
          ]
          (List.map Irrelevance.rule_id Irrelevance.all_rules));
    quick "example 4.1: per-tuple verdicts name the refuting rule" (fun () ->
        let view = example_4_1 () in
        let screen = View.screen_for view ~alias:"R" in
        let explain row = Irrelevance.explain screen (Tuple.of_ints row) in
        Alcotest.(check (option rule_testable)) "R(9,10) relevant" None
          (explain [ 9; 10 ]);
        Alcotest.(check (option rule_testable)) "R(11,10): A<10 fails"
          (Some Irrelevance.Substituted_false)
          (explain [ 11; 10 ]);
        Alcotest.(check (option rule_testable)) "R(9,3): B=C vs C>5 cycles"
          (Some Irrelevance.Negative_cycle)
          (explain [ 9; 3 ]));
    quick "explain agrees with relevant" (fun () ->
        let view = example_4_1 () in
        let screen = View.screen_for view ~alias:"R" in
        List.iter
          (fun row ->
            let t = Tuple.of_ints row in
            Alcotest.(check bool)
              (Printf.sprintf "agreement on (%d,%d)" (List.nth row 0)
                 (List.nth row 1))
              (Irrelevance.relevant screen t)
              (Irrelevance.explain screen t = None))
          [ [ 9; 10 ]; [ 11; 10 ]; [ 9; 3 ]; [ 0; 0 ]; [ 5; 100 ] ]);
    quick "screen_delta_explain counts drops per rule" (fun () ->
        let view = example_4_1 () in
        let screen = View.screen_for view ~alias:"R" in
        let raw =
          Delta.of_lists
            (View.qualified_schema view ~alias:"R")
            ( [
                Tuple.of_ints [ 9; 10 ]; Tuple.of_ints [ 11; 10 ];
                Tuple.of_ints [ 9; 3 ];
              ],
              [] )
        in
        let _, (kept, dropped), rules =
          Irrelevance.screen_delta_explain screen raw
        in
        Alcotest.(check int) "kept" 1 kept;
        Alcotest.(check int) "dropped" 2 dropped;
        Alcotest.(check (option int)) "one substituted-false" (Some 1)
          (List.assoc_opt Irrelevance.Substituted_false rules);
        Alcotest.(check (option int)) "one negative-cycle" (Some 1)
          (List.assoc_opt Irrelevance.Negative_cycle rules);
        Alcotest.(check int) "counts cover all drops" dropped
          (List.fold_left (fun acc (_, n) -> acc + n) 0 rules));
  ]

(* ------------------------------------------------------------------ *)
(* Provenance commit records: JSON round-trip                          *)
(* ------------------------------------------------------------------ *)

(* Random commit records.  Strings mix quotes, backslashes and newlines
   to exercise the JSON escaper; predicted costs are quarter-integers so
   the printer's integral-float shortcut (Float 3.0 prints as "3" and
   reparses as Int, which the parser must accept back as a float) and the
   fractional path are both hit. *)
let commit_gen =
  let open QCheck.Gen in
  let ( let* ) = ( >>= ) in
  let name =
    oneofl [ "v"; "orders"; "a\\b"; "say \"hi\""; "line\nbreak"; "" ]
  in
  let rule_id =
    oneofl
      [
        "IVM011:invariant-unsat"; "IVM001:substituted-false";
        "IVM001:negative-cycle"; "IVM051:keyed-drain";
      ]
  in
  let cost = map (fun k -> float_of_int k /. 4.0) (int_range 0 4000) in
  let advisor =
    let* predicted_differential = cost in
    let* predicted_recompute = cost in
    let* predicted_self_maintain = option cost in
    let* chosen = oneofl [ "differential"; "recompute"; "self-maintain" ] in
    return
      {
        Obs.Provenance.predicted_differential; predicted_recompute;
        predicted_self_maintain; chosen;
      }
  in
  let view =
    let* view = name in
    let* strategy = oneofl [ "differential"; "recompute"; "self_maintain" ] in
    let* fallback = option name in
    let* advisor = option advisor in
    let* screen_rules = list_size (int_range 0 3) (pair rule_id (int_range 1 99)) in
    let* screened_kept = int_range 0 1000 in
    let* screened_out = int_range 0 1000 in
    let* rows_evaluated = int_range 0 1000 in
    let* delta_inserts = int_range 0 100 in
    let* delta_deletes = int_range 0 100 in
    let* groups_touched = int_range 0 100 in
    let* rescans = int_range 0 20 in
    let* screen_ns = int_range 0 1_000_000 in
    let* eval_ns = int_range 0 1_000_000 in
    let* apply_ns = int_range 0 1_000_000 in
    let* total_ns = int_range 0 10_000_000 in
    return
      {
        Obs.Provenance.view; strategy; fallback; advisor; screen_rules;
        screened_kept; screened_out; rows_evaluated; delta_inserts;
        delta_deletes; groups_touched; rescans; screen_ns; eval_ns; apply_ns;
        total_ns;
      }
  in
  let event =
    let* phase = oneofl [ "maintain"; "apply-deletes"; "recompute" ] in
    let* kind = oneofl [ "fault"; "rollback"; "quarantine"; "abort" ] in
    let* detail = name in
    return { Obs.Provenance.phase; kind; detail }
  in
  let* seq = int_range 0 10_000 in
  let* kind = oneofl [ "commit"; "refresh" ] in
  let* outcome = oneofl [ "committed"; "aborted"; "degraded" ] in
  let* failing_phase = option (oneofl [ "maintain"; "apply-inserts" ]) in
  let* domains = int_range 1 8 in
  let* net =
    list_size (int_range 0 3)
      (pair name (pair (int_range 0 50) (int_range 0 50)))
  in
  let* views = list_size (int_range 0 3) view in
  let* events = list_size (int_range 0 3) event in
  let* journal_bytes = option (int_range 0 100_000) in
  let* total_ns = int_range 0 10_000_000 in
  return
    {
      Obs.Provenance.seq; kind; outcome; failing_phase; domains; net; views;
      events; journal_bytes; total_ns;
    }

let commit_print c = Obs.Json.to_string (Obs.Provenance.commit_to_json c)

let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"commit record survives to_json |> print |> parse |> of_json"
         (QCheck.make ~print:commit_print commit_gen)
         (fun c ->
           let printed = commit_print c in
           match Obs.Json.parse printed with
           | Error m -> QCheck.Test.fail_report m
           | Ok doc -> (
             match Obs.Provenance.commit_of_json doc with
             | Error m -> QCheck.Test.fail_report m
             | Ok c' -> c' = c)));
    quick "of_json names the offending field" (fun () ->
        match
          Obs.Provenance.commit_of_json
            (Obs.Json.Obj [ ("seq", Obs.Json.Str "one") ])
        with
        | Ok _ -> Alcotest.fail "accepted a malformed record"
        | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions seq: %s" m)
            true
            (String.length m > 0
            && (let rec has i =
                  i + 3 <= String.length m
                  && (String.sub m i 3 = "seq" || has (i + 1))
                in
                has 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Flight recorder: ring bounds and the post-mortem dump               *)
(* ------------------------------------------------------------------ *)

let dummy_commit seq =
  {
    Obs.Provenance.seq;
    kind = "commit";
    outcome = "committed";
    failing_phase = None;
    domains = 1;
    net = [ ("R", (1, 0)) ];
    views = [];
    events = [];
    journal_bytes = None;
    total_ns = 42;
  }

(* A scratch directory for dump files; [Filename.temp_file] reserves a
   unique name, which then becomes the directory. *)
let temp_dir () =
  let path = Filename.temp_file "ivm-flight-test" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let recorder_tests =
  [
    quick "ring keeps the newest capacity records, counts all" (fun () ->
        reset_obs ();
        let capacity = Obs.Provenance.recorder_capacity in
        for seq = 1 to capacity + 10 do
          Obs.Provenance.record (dummy_commit seq)
        done;
        let recent = Obs.Provenance.recent () in
        Alcotest.(check int) "bounded" capacity (List.length recent);
        Alcotest.(check int) "lifetime count" (capacity + 10)
          (Obs.Provenance.recorded ());
        Alcotest.(check int) "oldest survivor" 11
          (List.hd recent).Obs.Provenance.seq;
        Alcotest.(check int) "newest last" (capacity + 10)
          (List.nth recent (capacity - 1)).Obs.Provenance.seq;
        reset_obs ());
    quick "recording off: ring stays empty, nothing counted" (fun () ->
        reset_obs ();
        Obs.Provenance.set_recording false;
        Obs.Provenance.record (dummy_commit 1);
        Alcotest.(check int) "empty" 0 (List.length (Obs.Provenance.recent ()));
        Alcotest.(check int) "uncounted" 0 (Obs.Provenance.recorded ());
        reset_obs ());
    quick "aborted commit dumps the ring; last record names the phase"
      (fun () ->
        reset_obs ();
        let dir = temp_dir () in
        Flight.set_dir (Some dir);
        Flight.set_limit 8;
        Fun.protect
          ~finally:(fun () ->
            Flight.set_dir None;
            Fault.disable ();
            rm_rf dir)
          (fun () ->
            let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ] ]) ] in
            let mgr = Manager.create ~domains:1 db in
            ignore
              (Manager.define_view mgr ~name:"over_r"
                 Query.Expr.(project [ "A" ] (base "R")));
            (* One healthy commit first, so the dump shows history
               leading up to the failure. *)
            ignore
              (Manager.commit mgr
                 [ Transaction.insert "R" (Tuple.of_ints [ 2; 3 ]) ]);
            Fault.configure ~only:[ "apply" ] ~rate:1.0 ();
            (match
               Manager.commit mgr
                 [ Transaction.insert "R" (Tuple.of_ints [ 4; 5 ]) ]
             with
            | _ -> Alcotest.fail "the injected fault must abort the commit"
            | exception Manager.Commit_failed { phase; _ } ->
              Alcotest.(check string) "failing phase" "apply-deletes" phase);
            Fault.disable ();
            let path =
              match Flight.last_dump () with
              | Some p -> p
              | None -> Alcotest.fail "no flight dump was written"
            in
            Alcotest.(check bool) "dump file exists" true (Sys.file_exists path);
            let doc =
              match
                Obs.Json.parse
                  (In_channel.with_open_bin path In_channel.input_all)
              with
              | Ok doc -> doc
              | Error m -> Alcotest.fail m
            in
            (match Obs.Json.member "reason" doc with
            | Some (Obs.Json.Str reason) ->
              Alcotest.(check string) "reason names the phase"
                "commit-failed-apply-deletes" reason
            | _ -> Alcotest.fail "dump has no reason");
            let records =
              match Obs.Json.member "records" doc with
              | Some (Obs.Json.List rs) -> rs
              | _ -> Alcotest.fail "dump has no records array"
            in
            Alcotest.(check int) "healthy commit plus the abort" 2
              (List.length records);
            match
              Obs.Provenance.commit_of_json (List.nth records 1)
            with
            | Error m -> Alcotest.fail m
            | Ok last ->
              Alcotest.(check string) "outcome" "aborted"
                last.Obs.Provenance.outcome;
              Alcotest.(check (option string)) "failing phase recorded"
                (Some "apply-deletes") last.Obs.Provenance.failing_phase);
        reset_obs ());
  ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let exposition_lines text = String.split_on_char '\n' text

let sample_value line =
  match String.rindex_opt line ' ' with
  | None -> Alcotest.fail ("unparseable sample line: " ^ line)
  | Some i ->
    int_of_string (String.sub line (i + 1) (String.length line - i - 1))

let openmetrics_tests =
  [
    quick "counters, gauges, escaping and the EOF terminator" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        Obs.Metrics.add "ivm_test_total"
          ~labels:[ ("view", "a\\b\"c\nd") ]
          3;
        Obs.Metrics.set_gauge "ivm_gauge" 2.5;
        let text = Obs.Metrics.to_openmetrics () in
        reset_obs ();
        Alcotest.(check bool) "ends with # EOF" true
          (String.ends_with ~suffix:"# EOF\n" text);
        let has line = List.mem line (exposition_lines text) in
        (* The counter family strips _total; the sample keeps it, with
           backslash, quote and newline escaped per the spec. *)
        Alcotest.(check bool) "counter TYPE line" true
          (has "# TYPE ivm_test counter");
        Alcotest.(check bool) "escaped counter sample" true
          (has "ivm_test_total{view=\"a\\\\b\\\"c\\nd\"} 3");
        Alcotest.(check bool) "gauge TYPE line" true
          (has "# TYPE ivm_gauge gauge");
        Alcotest.(check bool) "gauge sample" true (has "ivm_gauge 2.5"));
    quick "histograms: cumulative buckets, +Inf = count, exact sum"
      (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        (* 90 observations in bucket 3 (le 15) and 10 in bucket 13
           (le 16383). *)
        for _ = 1 to 90 do
          Obs.Metrics.observe "ivm_hist" 10
        done;
        for _ = 1 to 10 do
          Obs.Metrics.observe "ivm_hist" 10_000
        done;
        let text = Obs.Metrics.to_openmetrics () in
        reset_obs ();
        let lines = exposition_lines text in
        Alcotest.(check bool) "TYPE line" true
          (List.mem "# TYPE ivm_hist histogram" lines);
        let buckets =
          List.filter
            (String.starts_with ~prefix:"ivm_hist_bucket{")
            lines
        in
        let values = List.map sample_value buckets in
        Alcotest.(check (list int)) "cumulative series" [ 90; 100; 100 ]
          values;
        Alcotest.(check bool) "monotone" true
          (List.sort compare values = values);
        let last_bucket = List.nth buckets (List.length buckets - 1) in
        Alcotest.(check bool) "+Inf closes the series" true
          (String.starts_with ~prefix:"ivm_hist_bucket{le=\"+Inf\"}"
             last_bucket);
        let find prefix =
          sample_value
            (List.find (String.starts_with ~prefix) lines)
        in
        Alcotest.(check int) "+Inf equals _count" (find "ivm_hist_count")
          (sample_value last_bucket);
        Alcotest.(check int) "exact sum" 100_900 (find "ivm_hist_sum"));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot diff: the bench_diff regression gate                       *)
(* ------------------------------------------------------------------ *)

(* A miniature but complete BENCH_IVM.json covering every field class
   the gate compares. *)
let sample_snapshot () =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 5);
      ( "views",
        Obs.Json.List
          [
            Obs.Json.Obj
              [
                ("name", Obs.Json.Str "v");
                ("commits", Obs.Json.Int 100);
                ("screened_kept", Obs.Json.Int 10);
                ("screened_out", Obs.Json.Int 90);
                ("p50_ns", Obs.Json.Int 1_000);
                ("p95_ns", Obs.Json.Int 2_000);
              ];
          ] );
      ( "advisor",
        Obs.Json.Obj
          [
            ("pairs", Obs.Json.List [ Obs.Json.Obj [] ]);
            ("calibration", Obs.Json.Obj [ ("samples", Obs.Json.Int 50) ]);
          ] );
      ( "parallel",
        Obs.Json.Obj
          [
            ("cores_available", Obs.Json.Int 8);
            ("speedup_at_2", Obs.Json.Float 1.5);
            ("speedup_at_4", Obs.Json.Float 2.5);
            ("speedup_at_8", Obs.Json.Float 3.0);
          ] );
      ( "provenance",
        Obs.Json.Obj [ ("recorder_overhead_pct", Obs.Json.Float 1.0) ] );
      ( "self_maintenance",
        Obs.Json.Obj
          [
            ("commits", Obs.Json.Int 60);
            ("self_maintained_commits", Obs.Json.Int 60);
            ("eval_reduction", Obs.Json.Float 8.0);
          ] );
      ( "aggregate",
        Obs.Json.Obj
          [
            ("commits", Obs.Json.Int 60);
            ("groups_touched", Obs.Json.Int 700);
            ("rescans", Obs.Json.Int 17);
            ("speedup", Obs.Json.Float 25.0);
          ] );
    ]

let diff_tests =
  let open Obs.Snapshot_diff in
  [
    quick "identical snapshots pass" (fun () ->
        let s = sample_snapshot () in
        let o = compare_snapshots default ~baseline:s ~current:s in
        Alcotest.(check (list string)) "no regressions" [] o.regressions;
        Alcotest.(check bool) "fields were compared" true (o.compared > 5));
    quick "degraded snapshot fails on every deterministic class" (fun () ->
        let s = sample_snapshot () in
        let o = compare_snapshots default ~baseline:s ~current:(degrade s) in
        let caught fragment =
          Alcotest.(check bool)
            (Printf.sprintf "a regression mentions %S" fragment)
            true
            (List.exists
               (fun r ->
                 let rec has i =
                   i + String.length fragment <= String.length r
                   && (String.sub r i (String.length fragment) = fragment
                      || has (i + 1))
                 in
                 has 0)
               o.regressions)
        in
        caught "commits";
        caught "screening ratio";
        caught "advisor.pairs";
        caught "coverage broke";
        caught "eval_reduction";
        caught "aggregate.groups_touched";
        caught "aggregate.speedup");
    quick "timing drift is a note by default, a regression when checked"
      (fun () ->
        let s = sample_snapshot () in
        let d = degrade s in
        let unchecked = compare_snapshots default ~baseline:s ~current:d in
        Alcotest.(check bool) "p50 drift noted" true
          (List.exists
             (fun n -> String.starts_with ~prefix:"views.v.p50_ns" n)
             unchecked.notes);
        let checked =
          compare_snapshots
            { default with check_timing = true }
            ~baseline:s ~current:d
        in
        Alcotest.(check bool) "p50 drift gates under check_timing" true
          (List.exists
             (fun r -> String.starts_with ~prefix:"views.v.p50_ns" r)
             checked.regressions));
  ]

(* The committed baseline against the field table, one row at a time. *)

let baseline_snapshot =
  lazy
    (let path =
       Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         (Filename.concat "bench" "BENCH_IVM.baseline.json")
     in
     match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all)
     with
     | Ok json -> json
     | Error m -> Alcotest.fail m)

(* [edit path f json] replaces the field at [path] — in every element of
   a [list[]] step — by [f] of its value, or removes it on [None]. *)
let edit path f json =
  let rec go steps json =
    match (steps, json) with
    | [ last ], Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k <> last then Some (k, v)
             else Option.map (fun v -> (k, v)) (f v))
           fields)
    | step :: rest, Obs.Json.Obj fields ->
      let each = String.ends_with ~suffix:"[]" step in
      let key =
        if each then String.sub step 0 (String.length step - 2) else step
      in
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | _ when k <> key -> (k, v)
             | Obs.Json.List items when each ->
               (k, Obs.Json.List (List.map (go rest) items))
             | v -> (k, if each then v else go rest v))
           fields)
    | _, other -> other
  in
  go (String.split_on_char '.' path) json

let set_at path v = edit path (fun _ -> Some v)

let mentions needle message =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length message
    && (String.sub message i n = needle || at (i + 1))
  in
  at 0

let scale factor = function
  | Obs.Json.Int i -> Obs.Json.Int (int_of_float (float_of_int i *. factor))
  | Obs.Json.Float x -> Obs.Json.Float (x *. factor)
  | other -> other

(* A message reports [row] when it names every piece of its path around
   the list steps: "views[].p50_ns" is reported as
   "views.dashboard.p50_ns ...". *)
let reports (row : Obs.Snapshot_diff.row) messages =
  let pieces =
    List.filter (( <> ) "") (String.split_on_char '[' row.path)
    |> List.map (fun p ->
           if String.starts_with ~prefix:"]" p then
             String.sub p 1 (String.length p - 1)
           else p)
  in
  List.exists (fun m -> List.for_all (fun p -> mentions p m) pieces) messages

(* Each way to break [row]: its field removed, wrongly typed, past its
   gate, or past its compare class. *)
let breakages (row : Obs.Snapshot_diff.row) =
  let open Obs.Snapshot_diff in
  let retype =
    match row.need with
    | Present -> []
    | Text -> [ ("wrongly typed", set_at row.path (Obs.Json.Int 1)) ]
    | _ -> [ ("wrongly typed", set_at row.path (Obs.Json.Str "x")) ]
  in
  let past_gate =
    match row.gate with
    | None -> []
    | Some (Budget pct) -> [ set_at row.path (Obs.Json.Float (pct *. 2.0)) ]
    | Some (Must_beat floor) ->
      [ set_at row.path (Obs.Json.Float (floor /. 2.0)) ]
    | Some (Scaling { floor; _ }) ->
      [
        (fun json ->
          json
          |> set_at "parallel.cores_available" (Obs.Json.Int 8)
          |> set_at row.path (Obs.Json.Float ((floor /. 2.0) -. 0.5)));
      ]
    | Some (Equal_to _) -> [ edit row.path (fun v -> Some (scale 0.5 v)) ]
    | Some (At_least n) -> [ set_at row.path (Obs.Json.Int (n - 1)) ]
  in
  let past_compare =
    match row.compare with
    | None -> []
    | Some (Drift | Never_lower) ->
      [ edit row.path (fun v -> Some (scale 0.5 v)) ]
    | Some (Share_of _) -> [ set_at row.path (Obs.Json.Int 0) ]
    | Some Timing_higher -> [ edit row.path (fun v -> Some (scale 10.0 v)) ]
    | Some Timing_lower -> [ edit row.path (fun v -> Some (scale 0.1 v)) ]
  in
  (("missing", edit row.path (fun _ -> None)) :: retype)
  @ List.map (fun f -> ("past its gate", f)) past_gate
  @ List.map (fun f -> ("past its compare class", f)) past_compare

let table_tests =
  let open Obs.Snapshot_diff in
  [
    quick "the committed baseline passes the table" (fun () ->
        let report = validate (Lazy.force baseline_snapshot) in
        Alcotest.(check (list string)) "no errors" [] report.errors;
        Alcotest.(check bool) "gated values summarised" true
          (report.summary <> []));
    quick "every broken row is reported by both gates" (fun () ->
        let baseline = Lazy.force baseline_snapshot in
        List.iter
          (fun row ->
            List.iter
              (fun (how, break) ->
                let broken = break baseline in
                let what = Printf.sprintf "%s %s" row.path how in
                let report = validate broken in
                if how <> "past its compare class" then
                  Alcotest.(check bool)
                    (what ^ ": validate reports it")
                    true
                    (reports row (report.errors @ report.warnings));
                let o = compare_snapshots default ~baseline ~current:broken in
                Alcotest.(check bool)
                  (what ^ ": compare_snapshots reports it")
                  true
                  (reports row (o.regressions @ o.notes)))
              (breakages row))
          rows);
    quick "E23 and the four later gates broken: five errors" (fun () ->
        let broken =
          Lazy.force baseline_snapshot
          |> set_at "parallel.cores_available" (Obs.Json.Int 2)
          |> set_at "parallel.sharded.speedup_at_2" (Obs.Json.Float 0.51)
          |> set_at "self_maintenance.eval_reduction" (Obs.Json.Float 0.2)
          |> set_at "provenance.recorder_overhead_pct" (Obs.Json.Float 50.0)
          |> set_at "aggregate.speedup" (Obs.Json.Float 0.1)
          |> set_at "durability.wal_overhead_pct" (Obs.Json.Float 99.0)
        in
        let report = validate broken in
        Alcotest.(check int) "five errors" 5 (List.length report.errors);
        List.iter
          (fun path ->
            Alcotest.(check bool) path true
              (List.exists (mentions path) report.errors))
          [
            "parallel.sharded.speedup_at_2"; "self_maintenance.eval_reduction";
            "provenance.recorder_overhead_pct"; "aggregate.speedup";
            "durability.wal_overhead_pct";
          ]);
    quick "a snapshot failing E23 at 2 cores passes against itself"
      (fun () ->
        let s =
          Lazy.force baseline_snapshot
          |> set_at "parallel.cores_available" (Obs.Json.Int 2)
          |> set_at "parallel.sharded.speedup_at_2" (Obs.Json.Float 0.51)
        in
        Alcotest.(check bool) "validate fails E23" true
          ((validate s).errors <> []);
        List.iter
          (fun opts ->
            let o = compare_snapshots opts ~baseline:s ~current:s in
            Alcotest.(check (list string)) "no regressions" [] o.regressions)
          [ default; { default with check_timing = true } ]);
  ]

(* ------------------------------------------------------------------ *)
(* Advisor reservoir sample                                            *)
(* ------------------------------------------------------------------ *)

let record_samples n =
  for k = 1 to n do
    let cost = float_of_int (100 * k) in
    Advisor.record ~view:"v" ~used:Advisor.Differential
      ~actual_ns:(700 * k)
      {
        Advisor.differential_cost = cost;
        recompute_cost = cost *. 10.0;
        self_maintain_cost = None;
        choose = Advisor.Differential;
      }
  done

let reservoir_tests =
  [
    quick "bounded at k and deterministic for a fixed seed" (fun () ->
        reset_obs ();
        record_samples 500;
        let once () = Obs.Json.to_string (Advisor.reservoir_json ()) in
        let first = once () in
        Alcotest.(check string) "same workload, same sample" first (once ());
        (match Advisor.reservoir_json () with
        | Obs.Json.List pairs ->
          Alcotest.(check int) "capped at the default k" 64 (List.length pairs)
        | _ -> Alcotest.fail "reservoir is not a JSON array");
        (match Advisor.reservoir_json ~k:10 () with
        | Obs.Json.List pairs ->
          Alcotest.(check int) "custom k" 10 (List.length pairs)
        | _ -> Alcotest.fail "reservoir is not a JSON array");
        reset_obs ());
    quick "fewer samples than k: all of them, in order" (fun () ->
        reset_obs ();
        record_samples 3;
        (match Advisor.reservoir_json () with
        | Obs.Json.List pairs ->
          Alcotest.(check int) "all three" 3 (List.length pairs)
        | _ -> Alcotest.fail "reservoir is not a JSON array");
        reset_obs ());
  ]

let () =
  Alcotest.run "provenance"
    [
      ("explain (theorem 4.1 rules)", explain_tests);
      ("commit json round-trip", roundtrip_tests);
      ("flight recorder", recorder_tests);
      ("openmetrics", openmetrics_tests);
      ("snapshot diff", diff_tests @ table_tests);
      ("advisor reservoir", reservoir_tests);
    ]
