(* Telemetry subsystem: histogram bucketing and percentiles, span
   nesting, JSON round-trips, advisor calibration, and an integration
   test asserting that one commit over the Example 5.5 SPJ view produces
   spans for every Algorithm 5.1 phase with metrics that agree with
   Irrelevance.screen_delta_stats. *)

open Relalg
open Helpers
module Delta = Ivm.Delta
module Irrelevance = Ivm.Irrelevance
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Advisor = Ivm.Advisor
open Condition.Formula.Dsl

let reset_obs () =
  Obs.Control.disable ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Clock.set_source None;
  Advisor.reset_samples ()

(* ------------------------------------------------------------------ *)
(* Metrics: bucketing and percentiles                                 *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    quick "log2 bucketing" (fun () ->
        List.iter
          (fun (v, bucket) ->
            Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) bucket
              (Obs.Metrics.bucket_of v))
          [
            (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
            (1023, 9); (1024, 10); (max_int, 61);
          ]);
    quick "bucket estimates are geometric midpoints" (fun () ->
        Alcotest.(check (float 1e-9)) "bucket 0" 1.0 (Obs.Metrics.bucket_estimate 0);
        Alcotest.(check (float 1e-9)) "bucket 9" 768.0 (Obs.Metrics.bucket_estimate 9);
        Alcotest.(check (float 1e-9)) "bucket 10" 1536.0 (Obs.Metrics.bucket_estimate 10));
    quick "single-bucket histogram: all percentiles at the midpoint" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        (* 100 observations near 1000 ns all land in bucket 9 = [512, 1024). *)
        for i = 1 to 100 do
          Obs.Metrics.observe "h" (900 + i)
        done;
        let s = Option.get (Obs.Metrics.histogram "h") in
        Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
        Alcotest.(check (float 1e-9)) "p50" 768.0 s.Obs.Metrics.p50;
        Alcotest.(check (float 1e-9)) "p95" 768.0 s.Obs.Metrics.p95;
        Alcotest.(check (float 1e-9)) "p99" 768.0 s.Obs.Metrics.p99;
        Alcotest.(check int) "max exact" 1000 s.Obs.Metrics.max;
        Alcotest.(check int) "min exact" 901 s.Obs.Metrics.min;
        reset_obs ());
    quick "two-bucket histogram: percentiles split at the rank" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        (* 90 fast observations (bucket 3 = [8,16)) and 10 slow ones
           (bucket 13 = [8192,16384)): p50 sits in the fast bucket, p95
           and p99 in the slow one. *)
        for _ = 1 to 90 do
          Obs.Metrics.observe "h" 10
        done;
        for _ = 1 to 10 do
          Obs.Metrics.observe "h" 10_000
        done;
        let s = Option.get (Obs.Metrics.histogram "h") in
        Alcotest.(check (float 1e-9)) "p50" 12.0 s.Obs.Metrics.p50;
        Alcotest.(check (float 1e-9)) "p90" 12.0 s.Obs.Metrics.p90;
        Alcotest.(check (float 1e-9)) "p95" 12288.0 s.Obs.Metrics.p95;
        Alcotest.(check (float 1e-9)) "p99" 12288.0 s.Obs.Metrics.p99;
        reset_obs ());
    quick "counters and gauges, label canonicalization" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        Obs.Metrics.add "c" ~labels:[ ("b", "2"); ("a", "1") ] 3;
        Obs.Metrics.add "c" ~labels:[ ("a", "1"); ("b", "2") ] 4;
        Alcotest.(check int) "label order irrelevant" 7
          (Obs.Metrics.counter_value "c" ~labels:[ ("b", "2"); ("a", "1") ]);
        Obs.Metrics.set_gauge "g" 1.5;
        Obs.Metrics.set_gauge "g" 2.5;
        Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5)
          (Obs.Metrics.gauge_value "g");
        reset_obs ());
    quick "disabled registry ignores writes" (fun () ->
        reset_obs ();
        Obs.Metrics.add "c" 5;
        Obs.Metrics.observe "h" 100;
        Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value "c");
        Alcotest.(check bool) "histogram absent" true
          (Obs.Metrics.histogram "h" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Spans: nesting, args-after-body, disabled mode                     *)
(* ------------------------------------------------------------------ *)

let span_tests =
  [
    quick "nesting: depths and containment" (fun () ->
        reset_obs ();
        (* Deterministic clock: every read advances 10 ns. *)
        let ticks = ref 0 in
        Obs.Clock.set_source
          (Some
             (fun () ->
               ticks := !ticks + 10;
               !ticks));
        Obs.Control.enable ();
        Obs.Span.with_span "outer" (fun () ->
            Obs.Span.with_span "inner" (fun () -> ()));
        let spans = Obs.Span.drain () in
        reset_obs ();
        Alcotest.(check int) "two spans" 2 (List.length spans);
        let find name = List.find (fun s -> s.Obs.Span.name = name) spans in
        let outer = find "outer" and inner = find "inner" in
        Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
        Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
        Alcotest.(check bool) "inner starts after outer" true
          (inner.Obs.Span.start_ns >= outer.Obs.Span.start_ns);
        Alcotest.(check bool) "inner contained in outer" true
          (inner.Obs.Span.start_ns + inner.Obs.Span.dur_ns
          <= outer.Obs.Span.start_ns + outer.Obs.Span.dur_ns);
        Alcotest.(check bool) "children drain before parents" true
          (List.map (fun s -> s.Obs.Span.name) spans = [ "inner"; "outer" ]));
    quick "args thunk reads results computed inside the body" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        let result = ref 0 in
        Obs.Span.with_span "s"
          ~args:(fun () -> [ ("result", Obs.Json.Int !result) ])
          (fun () -> result := 41);
        let spans = Obs.Span.drain () in
        reset_obs ();
        Alcotest.(check bool) "arg saw the body's write" true
          ((List.hd spans).Obs.Span.args = [ ("result", Obs.Json.Int 41) ]));
    quick "disabled tracer records nothing and still runs the body" (fun () ->
        reset_obs ();
        let ran = ref false in
        let v = Obs.Span.with_span "s" (fun () -> ran := true; 7) in
        Alcotest.(check int) "value" 7 v;
        Alcotest.(check bool) "ran" true !ran;
        Alcotest.(check int) "no spans" 0 (Obs.Span.length ()));
    quick "exceptions close the span" (fun () ->
        reset_obs ();
        Obs.Control.enable ();
        (try Obs.Span.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        let after = Obs.Span.with_span "after" (fun () -> ()) in
        ignore after;
        let spans = Obs.Span.drain () in
        reset_obs ();
        Alcotest.(check (list string)) "both recorded at depth 0"
          [ "boom"; "after" ]
          (List.map (fun s -> s.Obs.Span.name) spans);
        List.iter
          (fun s -> Alcotest.(check int) "depth" 0 s.Obs.Span.depth)
          spans);
  ]

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let json_tests =
  let roundtrip t = Obs.Json.parse (Obs.Json.to_string t) in
  [
    quick "round-trip of a nested document" (fun () ->
        let doc =
          Obs.Json.Obj
            [
              ("s", Obs.Json.Str "a\"b\\c\nd");
              ("i", Obs.Json.Int (-42));
              ("x", Obs.Json.Float 1.5);
              ("b", Obs.Json.Bool true);
              ("n", Obs.Json.Null);
              ( "l",
                Obs.Json.List
                  [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.Str "v") ] ]
              );
              ("e", Obs.Json.Obj []);
            ]
        in
        Alcotest.(check bool) "parse (print doc) = doc" true
          (roundtrip doc = Ok doc));
    quick "integral floats print without exponent and reparse" (fun () ->
        Alcotest.(check string) "print" "{\"ts\":123456789}"
          (Obs.Json.to_string (Obs.Json.Obj [ ("ts", Obs.Json.Float 123456789.0) ])));
    quick "parse errors carry an offset" (fun () ->
        match Obs.Json.parse "{\"a\": }" with
        | Ok _ -> Alcotest.fail "accepted malformed JSON"
        | Error m ->
          Alcotest.(check bool) "mentions offset" true
            (contains_substring m "offset"));
    quick "unicode escapes decode to UTF-8" (fun () ->
        Alcotest.(check bool) "snowman" true
          (Obs.Json.parse "\"\\u2603\"" = Ok (Obs.Json.Str "\xe2\x98\x83")));
  ]

(* Random JSON documents for the round-trip property.  Floats are drawn
   as k + 0.5: exact in binary and never integral, so neither the
   printer's integral-float shortcut (which re-parses as Int) nor the
   %.12g rendering can change the value.  Strings mix quotes,
   backslashes, control characters and plain text to exercise every
   escaping path. *)
let json_gen =
  let open QCheck.Gen in
  let json_char = oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '\t'; '\x01'; '/' ] in
  let json_string = string_size ~gen:json_char (int_range 0 8) in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (int_range (-1_000_000) 1_000_000);
        map
          (fun k -> Obs.Json.Float (float_of_int k +. 0.5))
          (int_range (-1000) 1000);
        map (fun s -> Obs.Json.Str s) json_string;
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map
              (fun l -> Obs.Json.List l)
              (list_size (int_range 0 4) (tree (depth - 1))) );
          ( 1,
            map
              (fun kvs -> Obs.Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair json_string (tree (depth - 1)))) );
        ]
  in
  tree 3

let json_property_tests =
  let property name law =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name
         (QCheck.make ~print:Obs.Json.to_string json_gen)
         law)
  in
  [
    property "print then parse is the identity" (fun doc ->
        Obs.Json.parse (Obs.Json.to_string doc) = Ok doc);
    property "printing is stable across one round-trip" (fun doc ->
        let printed = Obs.Json.to_string doc in
        match Obs.Json.parse printed with
        | Error m -> QCheck.Test.fail_report m
        | Ok reparsed -> Obs.Json.to_string reparsed = printed);
  ]

(* ------------------------------------------------------------------ *)
(* Advisor calibration                                                *)
(* ------------------------------------------------------------------ *)

let advisor_tests =
  [
    quick "perfectly linear model calibrates with zero error" (fun () ->
        reset_obs ();
        let decision cost =
          {
            Advisor.differential_cost = cost;
            recompute_cost = cost *. 10.0;
            self_maintain_cost = None;
            choose = Advisor.Differential;
          }
        in
        List.iter
          (fun cost ->
            Advisor.record ~view:"v" ~used:Advisor.Differential
              ~actual_ns:(int_of_float (cost *. 7.0))
              (decision cost))
          [ 100.0; 200.0; 400.0 ];
        let c = Advisor.calibrate () in
        Alcotest.(check int) "samples" 3 c.Advisor.n_samples;
        Alcotest.(check int) "agreements" 3 c.Advisor.agreements;
        Alcotest.(check (option (float 1e-6))) "scale = 7 ns/unit" (Some 7.0)
          c.Advisor.scale_differential;
        Alcotest.(check (option (float 1e-6))) "no recompute samples" None
          c.Advisor.scale_recompute;
        Alcotest.(check (option (float 1e-6))) "zero error" (Some 0.0)
          c.Advisor.mean_abs_rel_error;
        reset_obs ());
    quick "disagreements are counted" (fun () ->
        reset_obs ();
        let d =
          {
            Advisor.differential_cost = 1.0;
            recompute_cost = 2.0;
            self_maintain_cost = None;
            choose = Advisor.Differential;
          }
        in
        Advisor.record ~view:"v" ~used:Advisor.Recompute ~actual_ns:10 d;
        Advisor.record ~view:"v" ~used:Advisor.Differential ~actual_ns:10 d;
        let c = Advisor.calibrate () in
        Alcotest.(check int) "samples" 2 c.Advisor.n_samples;
        Alcotest.(check int) "agreements" 1 c.Advisor.agreements;
        reset_obs ());
  ]

(* ------------------------------------------------------------------ *)
(* Integration: Example 5.5 commit under full telemetry               *)
(* ------------------------------------------------------------------ *)

(* V = pi_A(sigma_{C>10}(R |x| S)) over R(A,B), S(B,C) — the paper's
   Example 5.5 shape. *)
let example_5_5 () =
  let db =
    db_of
      [
        ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ]);
        ("S", rel [ "B"; "C" ] [ [ 10; 5 ]; [ 20; 15 ] ]);
      ]
  in
  let mgr = Manager.create db in
  let view =
    Manager.define_view mgr ~name:"v"
      Query.Expr.(
        project [ "A" ] (select (v "C" >% i 10) (join (base "R") (base "S"))))
  in
  (db, mgr, view)

let integration_tests =
  [
    quick "one commit produces spans for every Algorithm 5.1 phase" (fun () ->
        reset_obs ();
        let _db, mgr, _view = example_5_5 () in
        Obs.Control.enable ();
        (* (30, 5): C = 5 fails C > 10 invariantly — provably irrelevant.
           (20, 25): joins (2, 20) with C = 25 > 10 — relevant. *)
        let reports =
          Manager.commit mgr
            [
              Transaction.insert "S" (Tuple.of_ints [ 30; 5 ]);
              Transaction.insert "S" (Tuple.of_ints [ 20; 25 ]);
            ]
        in
        Obs.Control.disable ();
        let spans = Obs.Span.drain () in
        let names = List.map (fun s -> s.Obs.Span.name) spans in
        List.iter
          (fun phase ->
            Alcotest.(check bool)
              (Printf.sprintf "span %S present" phase)
              true (List.mem phase names))
          [ "commit"; "net"; "screen"; "eval"; "row"; "apply" ];
        (* The report agrees with the trace: one screened-out tuple, and
           the view gained A = 2. *)
        let r = List.hd reports in
        Alcotest.(check int) "screened out" 1 r.Maintenance.screened_out;
        Alcotest.(check int) "screened kept" 1 r.Maintenance.screened_kept;
        Alcotest.(check int) "view inserts" 1 r.Maintenance.delta_inserts;
        Alcotest.(check bool) "timing measured" true (r.Maintenance.total_ns > 0);
        Alcotest.(check bool) "advisor attached" true
          (r.Maintenance.advisor <> None);
        reset_obs ());
    quick "screen metrics match Irrelevance.screen_delta_stats" (fun () ->
        reset_obs ();
        let _db, mgr, view = example_5_5 () in
        Obs.Control.enable ();
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "S" (Tuple.of_ints [ 30; 5 ]);
               Transaction.insert "S" (Tuple.of_ints [ 20; 25 ]);
             ]);
        Obs.Control.disable ();
        let dropped = Obs.Metrics.counter_value "ivm_screen_dropped_total" in
        let kept = Obs.Metrics.counter_value "ivm_screen_kept_total" in
        (* Replay the same screen directly (telemetry off, so the direct
           call does not double-count). *)
        let qualified = View.qualified_schema view ~alias:"S" in
        let raw =
          Delta.of_lists qualified
            ([ Tuple.of_ints [ 30; 5 ]; Tuple.of_ints [ 20; 25 ] ], [])
        in
        let _, (direct_kept, direct_dropped) =
          Irrelevance.screen_delta_stats (View.screen_for view ~alias:"S") raw
        in
        Alcotest.(check int) "dropped agrees" direct_dropped dropped;
        Alcotest.(check int) "kept agrees" direct_kept kept;
        reset_obs ());
    quick "manager records the advisor even under a forced strategy" (fun () ->
        reset_obs ();
        let _db, mgr, _view = example_5_5 () in
        (* Default options force Differential; the decision must be
           recorded anyway so the cost model gathers calibration data. *)
        ignore
          (Manager.commit mgr
             [ Transaction.insert "S" (Tuple.of_ints [ 20; 25 ]) ]);
        let stats = Manager.stats mgr "v" in
        Alcotest.(check int) "decision recorded" 1
          stats.Manager.advisor_decisions;
        Alcotest.(check bool) "maintenance timed" true
          (stats.Manager.maintenance_ns > 0);
        Alcotest.(check bool) "predicted costs accumulated" true
          (stats.Manager.predicted_recompute_cost > 0.0);
        Alcotest.(check int) "calibration sample taken" 1
          (Advisor.calibrate ()).Advisor.n_samples;
        reset_obs ());
    quick "untouched views take no calibration sample" (fun () ->
        reset_obs ();
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]);
              ("T", rel [ "E"; "F" ] [ [ 7; 8 ] ]);
            ]
        in
        let mgr = Manager.create db in
        ignore
          (Manager.define_view mgr ~name:"over_r"
             Query.Expr.(project [ "A" ] (base "R")));
        ignore
          (Manager.commit mgr
             [ Transaction.insert "T" (Tuple.of_ints [ 9; 9 ]) ]);
        Alcotest.(check int) "no sample for an untouched view" 0
          (Advisor.calibrate ()).Advisor.n_samples;
        reset_obs ());
    quick "chrome trace export is valid and carries the phases" (fun () ->
        reset_obs ();
        let _db, mgr, _view = example_5_5 () in
        Obs.Control.enable ();
        ignore
          (Manager.commit mgr
             [ Transaction.insert "S" (Tuple.of_ints [ 20; 25 ]) ]);
        Obs.Control.disable ();
        let json = Obs.Trace_export.to_json (Obs.Span.drain ()) in
        reset_obs ();
        (* Round-trip through the parser, as tools/validate_snapshot
           does. *)
        match Obs.Json.parse (Obs.Json.to_string json) with
        | Error m -> Alcotest.fail m
        | Ok doc ->
          let events =
            match Obs.Json.member "traceEvents" doc with
            | Some (Obs.Json.List events) -> events
            | _ -> Alcotest.fail "no traceEvents"
          in
          Alcotest.(check bool) "non-empty" true (events <> []);
          let names =
            List.filter_map
              (fun e ->
                match Obs.Json.member "name" e with
                | Some (Obs.Json.Str n) -> Some n
                | _ -> None)
              events
          in
          List.iter
            (fun phase ->
              Alcotest.(check bool) (phase ^ " present") true
                (List.mem phase names))
            [ "net"; "screen"; "row"; "apply" ]);
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("spans", span_tests);
      ("json", json_tests);
      ("json round-trip properties", json_property_tests);
      ("advisor calibration", advisor_tests);
      ("integration (example 5.5)", integration_tests);
    ]
