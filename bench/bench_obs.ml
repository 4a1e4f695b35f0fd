(* E17: telemetry-driven perf snapshot.

   Runs a canonical mixed workload (the orders dashboard plus a two-view
   pair workload, adaptive strategy) with the metrics registry on, then
   reports per-view maintenance latency percentiles and the advisor's
   predicted-vs-actual calibration.  [write_snapshot] serializes the same
   data as BENCH_IVM.json so successive PRs can be compared by tools
   rather than by reading tables. *)

module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Advisor = Ivm.Advisor
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng

let snapshot_path = "BENCH_IVM.json"

(* The canonical workload: deterministic, a few hundred commits, covers
   both advisor outcomes (small batches keep differential winning, the
   churn phase pushes past the crossover into recomputation). *)
let run_canonical_workload ?policy () =
  let rng = Rng.make 900 in
  let adaptive =
    { Maintenance.default_options with strategy = Maintenance.Adaptive }
  in
  let open Condition.Formula.Dsl in
  let sc = Scenario.orders ~rng ~customers:200 ~orders:4_000 in
  let db = sc.Scenario.db in
  let mgr = Manager.create ?policy db in
  ignore
    (Manager.define_view mgr ~name:"dashboard" ~options:adaptive
       Query.Expr.(
         project
           [ "oid"; "cid"; "amount" ]
           (select
              ((v "amount" >% i 900) &&% (v "region" =% s "north"))
              (join (base "orders") (base "customers")))));
  ignore
    (Manager.define_view mgr ~name:"hot_orders" ~options:adaptive
       Query.Expr.(
         project [ "oid"; "amount" ] (select (v "amount" >% i 950) (base "orders"))));
  let columns = Scenario.columns_of sc "orders" in
  (* Steady phase: small batches, differential territory. *)
  for _ = 1 to 150 do
    let txn = Generate.transaction rng db "orders" ~columns ~inserts:4 ~deletes:4 in
    ignore (Manager.commit mgr txn)
  done;
  (* Churn phase: batches past the E9 crossover, recompute territory. *)
  for _ = 1 to 10 do
    let txn =
      Generate.transaction rng db "orders" ~columns ~inserts:400 ~deletes:400
    in
    ignore (Manager.commit mgr txn)
  done;
  mgr

(* E20: happy-path journaling overhead.  The same canonical workload under
   the default Abort policy (every commit journaled for rollback) and under
   Unprotected (no journal), telemetry off.  The two policies run in
   interleaved pairs and the reported overhead is the median of the
   per-pair ratios: machine-load drift hits both members of a pair alike
   and cancels in the ratio, which a min-of-N over separate phases does
   not survive (the snapshot gate holds this to 5%, so the measurement
   must be robust, not just fast). *)
let measure_resilience ?(pairs = 7) () =
  Bench_util.overhead_pairs ~pairs
    ~off:(fun () ->
      ignore (run_canonical_workload ~policy:Resilience.Policy.Unprotected ()))
    ~on:(fun () ->
      ignore (run_canonical_workload ~policy:Resilience.Policy.Abort ()))
    ()

let resilience_json () =
  let protected_, unprotected, overhead_pct = measure_resilience () in
  Obs.Json.Obj
    [
      ("policy", Obs.Json.Str (Resilience.Policy.name Resilience.Policy.Abort));
      ("protected_ns", Obs.Json.Int (int_of_float (protected_ *. 1e9)));
      ("unprotected_ns", Obs.Json.Int (int_of_float (unprotected *. 1e9)));
      ("journal_overhead_pct", Obs.Json.Float overhead_pct);
    ]

(* E22: flight-recorder overhead.  The provenance ring is always on, so
   its cost must be demonstrably negligible; same interleaved-pairs
   median methodology as E20 — recorder-off and recorder-on runs
   alternate, so load drift cancels in the per-pair ratio. *)
let measure_recorder ?(pairs = 7) () =
  let once recording () =
    Obs.Provenance.set_recording recording;
    Fun.protect
      ~finally:(fun () -> Obs.Provenance.set_recording true)
      (fun () -> ignore (run_canonical_workload ()))
  in
  Bench_util.overhead_pairs ~pairs ~off:(once false) ~on:(once true) ()

let provenance_json () =
  let on, off, overhead_pct = measure_recorder () in
  Obs.Json.Obj
    [
      ("capacity", Obs.Json.Int Obs.Provenance.recorder_capacity);
      ("recorded", Obs.Json.Int (Obs.Provenance.recorded ()));
      ("recorder_on_ns", Obs.Json.Int (int_of_float (on *. 1e9)));
      ("recorder_off_ns", Obs.Json.Int (int_of_float (off *. 1e9)));
      ("recorder_overhead_pct", Obs.Json.Float overhead_pct);
    ]

let with_fresh_registry f =
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Advisor.reset_samples ();
  Obs.Control.with_enabled f

let view_entry mgr name =
  let stats = Manager.stats mgr name in
  let hist = Obs.Metrics.histogram ~labels:[ ("view", name) ] "ivm_maintenance_ns" in
  let latency =
    match hist with
    | None -> []
    | Some h ->
      [
        ("p50_ns", Obs.Json.Float h.Obs.Metrics.p50);
        ("p95_ns", Obs.Json.Float h.Obs.Metrics.p95);
        ("p99_ns", Obs.Json.Float h.Obs.Metrics.p99);
        ("mean_ns", Obs.Json.Float h.Obs.Metrics.mean);
        ("max_ns", Obs.Json.Int h.Obs.Metrics.max);
      ]
  in
  Obs.Json.Obj
    ([
       ("name", Obs.Json.Str name);
       ("commits", Obs.Json.Int stats.Manager.commits);
       ("recomputations", Obs.Json.Int stats.Manager.recomputations);
       ("self_maintained", Obs.Json.Int stats.Manager.self_maintained);
       ("rows_evaluated", Obs.Json.Int stats.Manager.rows_evaluated);
       ("screened_out", Obs.Json.Int stats.Manager.screened_out);
       ("screened_kept", Obs.Json.Int stats.Manager.screened_kept);
       ("maintenance_ns", Obs.Json.Int stats.Manager.maintenance_ns);
     ]
    @ latency)

let snapshot_json mgr =
  Obs.Json.Obj
    [
      ("benchmark", Obs.Json.Str "ivm-maintenance");
      (* the layout, and its version history, live with the field
         table in Obs.Snapshot_diff *)
      ("schema_version", Obs.Json.Int Obs.Snapshot_diff.schema_version);
      ("generator", Obs.Json.Str "bench/main.exe");
      ( "views",
        Obs.Json.List
          (List.map (fun name -> view_entry mgr name) (Manager.view_names mgr))
      );
      ( "advisor",
        Obs.Json.Obj
          [
            ("calibration", Advisor.calibration_json ());
            ("pairs", Advisor.reservoir_json ());
          ] );
      ("metrics", Obs.Metrics.snapshot ());
      ("parallel", Bench_parallel.scaling_json ());
      ("resilience", resilience_json ());
      ("self_maintenance", Bench_selfmaint.e21_json ());
      ("aggregate", Bench_aggregate.e24_json ());
      ("durability", Bench_durability.e25_json ());
      ("provenance", provenance_json ());
    ]

(* Always runs the canonical workload fresh so the snapshot is
   self-contained no matter which bench sections ran before it. *)
let write_snapshot () =
  let mgr = with_fresh_registry (fun () -> run_canonical_workload ()) in
  Obs.Json.to_file snapshot_path (snapshot_json mgr);
  Printf.printf "\nwrote %s (per-view latency percentiles + advisor \
                 predicted-vs-actual pairs)\n"
    snapshot_path

let run () =
  Bench_util.section "E17: telemetry snapshot (lib/obs metrics registry)";
  let mgr = with_fresh_registry (fun () -> run_canonical_workload ()) in
  Bench_util.banner "per-view maintenance latency (from ivm_maintenance_ns)";
  let rows =
    List.map
      (fun name ->
        let stats = Manager.stats mgr name in
        let fmt_of p =
          match
            Obs.Metrics.histogram ~labels:[ ("view", name) ] "ivm_maintenance_ns"
          with
          | None -> "-"
          | Some h ->
            Bench_util.fmt_time
              (p h *. 1e-9)
        in
        [
          name;
          string_of_int stats.Manager.commits;
          string_of_int stats.Manager.recomputations;
          fmt_of (fun h -> h.Obs.Metrics.p50);
          fmt_of (fun h -> h.Obs.Metrics.p95);
          fmt_of (fun h -> h.Obs.Metrics.p99);
          Bench_util.fmt_time (float_of_int stats.Manager.maintenance_ns *. 1e-9);
        ])
      (Manager.view_names mgr)
  in
  Bench_util.print_table
    ~header:[ "view"; "commits"; "recomputed"; "p50"; "p95"; "p99"; "total" ]
    rows;
  Bench_util.banner "advisor calibration (predicted cost units vs measured ns)";
  Format.printf "%a@." Advisor.pp_calibration (Advisor.calibrate ());
  let agreements_by_outcome =
    let samples = Advisor.samples () in
    List.map
      (fun arm ->
        let of_kind =
          List.filter (fun (s : Advisor.sample) -> s.Advisor.used = arm) samples
        in
        [ Advisor.arm_name arm; string_of_int (List.length of_kind) ])
      [ Advisor.Differential; Advisor.Recompute; Advisor.Self_maintain ]
  in
  Bench_util.print_table ~header:[ "strategy used"; "samples" ]
    agreements_by_outcome;
  Bench_util.banner "E20: commit journaling overhead (abort policy vs unprotected)";
  let protected_, unprotected, overhead_pct = measure_resilience () in
  Bench_util.print_table
    ~header:[ "policy"; "elapsed"; "overhead" ]
    [
      [ "unprotected"; Bench_util.fmt_time unprotected; "-" ];
      [
        "abort (journaled)";
        Bench_util.fmt_time protected_;
        Printf.sprintf "%+.2f%%" overhead_pct;
      ];
    ];
  Bench_util.banner
    "E22: flight-recorder overhead (provenance ring on vs off)";
  let on, off, recorder_pct = measure_recorder () in
  Bench_util.print_table
    ~header:[ "recorder"; "elapsed"; "overhead" ]
    [
      [ "off"; Bench_util.fmt_time off; "-" ];
      [ "on"; Bench_util.fmt_time on; Printf.sprintf "%+.2f%%" recorder_pct ];
    ];
  Printf.printf
    "\nThe snapshot of this section is what main.exe serializes to %s;\n\
     compare it across PRs with tools/validate_snapshot.exe, or against a\n\
     committed baseline with tools/bench_diff.exe.\n"
    snapshot_path
