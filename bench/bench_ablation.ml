(* E8b-E8e, E12: ablations of the design choices DESIGN.md calls out. *)

open Relalg
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Delta = Ivm.Delta
module Delta_eval = Ivm.Delta_eval
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng
open Bechamel

(* Time Maintenance.view_delta under given options for a fixed prepared
   net (deletions applied), leaving the database unchanged afterwards. *)
let time_view_delta ~db ~view ~net options =
  Maintenance.apply_deletes db net;
  let t =
    Bench_util.time_trials ~repeats:5 (fun _ ->
        ignore (Maintenance.view_delta ~options view ~db ~net))
  in
  (* Undo the deletions to restore the pre-state. *)
  List.iter
    (fun (name, (_, deletes)) ->
      let r = Database.find db name in
      List.iter (fun t -> Relation.add r t) deletes)
    net;
  t

let e8b () =
  Bench_util.banner
    "E8b: shared sub-join prefixes across truth-table rows (reuse on/off)";
  let rng = Rng.make 800 in
  let scenario, names = Scenario.chain ~rng ~p:3 ~size:10_000 ~key_range:3_000 in
  let db = scenario.Scenario.db in
  let view =
    View.define ~name:"chain" ~db
      Query.Expr.(join_all (List.map Query.Expr.base names))
  in
  let rows =
    List.map
      (fun batch ->
        let txn =
          Generate.mixed_transaction rng db
            (List.map
               (fun name ->
                 (name, Scenario.columns_of scenario name, batch, batch))
               names)
        in
        let net = Transaction.net_effect db txn in
        let greedy =
          time_view_delta ~db ~view ~net
            { Maintenance.default_options with reuse = false; order = `Greedy }
        in
        let fixed =
          time_view_delta ~db ~view ~net
            {
              Maintenance.default_options with
              reuse = false;
              order = `Declaration;
            }
        in
        let reused =
          time_view_delta ~db ~view ~net
            { Maintenance.default_options with reuse = true }
        in
        [
          Printf.sprintf "k=3, %d ins + %d del per relation" batch batch;
          Bench_util.fmt_time fixed;
          Bench_util.fmt_time reused;
          Bench_util.fmt_speedup (fixed /. reused);
          Bench_util.fmt_time greedy;
        ])
      [ 5; 50; 500 ]
  in
  Bench_util.print_table
    ~header:
      [
        "workload";
        "fixed order";
        "fixed + reuse";
        "reuse speedup";
        "greedy (no reuse)";
      ]
    rows;
  Printf.printf
    "\nReuse helps against its like-for-like baseline (fixed join order),\n\
     but the greedy delta-first order avoids the large old|x|old prefixes\n\
     altogether and wins overall - the join-order effect the paper hints\n\
     at dominates the subexpression-sharing effect it conjectures.\n"

let e8c () =
  Bench_util.banner
    "E8c: join order - greedy (delta first) vs declaration order";
  (* Delta on the LAST source: declaration order joins the two full
     relations first, greedy starts from the delta. *)
  let rng = Rng.make 810 in
  let scenario, names = Scenario.chain ~rng ~p:3 ~size:10_000 ~key_range:3_000 in
  let db = scenario.Scenario.db in
  let view =
    View.define ~name:"chain" ~db
      Query.Expr.(join_all (List.map Query.Expr.base names))
  in
  let last = List.nth names 2 in
  let rows =
    List.map
      (fun batch ->
        let txn =
          Generate.mixed_transaction rng db
            [ (last, Scenario.columns_of scenario last, batch, batch) ]
        in
        let net = Transaction.net_effect db txn in
        let greedy =
          time_view_delta ~db ~view ~net
            { Maintenance.default_options with order = `Greedy }
        in
        let declaration =
          time_view_delta ~db ~view ~net
            { Maintenance.default_options with order = `Declaration }
        in
        [
          Printf.sprintf "delta=%d on %s" (2 * batch) last;
          Bench_util.fmt_time greedy;
          Bench_util.fmt_time declaration;
          Bench_util.fmt_speedup (declaration /. greedy);
        ])
      [ 5; 50 ]
  in
  Bench_util.print_table
    ~header:[ "workload"; "greedy"; "declaration"; "greedy speedup" ]
    rows

let e8d () =
  Bench_util.banner
    "E8d: literal tagged evaluator vs insert/delete pair evaluator";
  let rng = Rng.make 820 in
  let scenario, db, view =
    Bench_data.join_setup ~rng ~size_r:300 ~size_s:300 ~key_range:30
  in
  let txn =
    Generate.mixed_transaction rng db
      [
        ("R", Scenario.columns_of scenario "R", 5, 5);
        ("S", Scenario.columns_of scenario "S", 5, 5);
      ]
  in
  let net = Transaction.net_effect db txn in
  Maintenance.apply_deletes db net;
  let spj = View.spj view in
  let inputs_pair, inputs_tagged =
    List.split
      (List.map
         (fun (s : Query.Spj.source) ->
           let q = View.qualified_schema view ~alias:s.Query.Spj.alias in
           let old_part = Relation.reschema (Database.find db s.Query.Spj.relation) q in
           let delta =
             match List.assoc_opt s.Query.Spj.relation net with
             | Some entry -> Delta.of_lists q entry
             | None -> Delta.empty q
           in
           ( { Delta_eval.alias = s.Query.Spj.alias; old_part; delta = Some delta },
             ( s.Query.Spj.alias,
               Ivm.Tagged_eval.of_parts ~old_part ~delta ) ))
         spj.Query.Spj.sources)
  in
  let pair_time =
    Bench_util.time_trials ~repeats:5 (fun _ ->
        ignore (Delta_eval.eval ~spj ~inputs:inputs_pair ()))
  in
  let tagged_time =
    Bench_util.time_trials ~repeats:5 (fun _ ->
        ignore (Ivm.Tagged_eval.eval_spj ~spj ~inputs:inputs_tagged))
  in
  List.iter
    (fun (name, (_, deletes)) ->
      let r = Database.find db name in
      List.iter (fun t -> Relation.add r t) deletes)
    net;
  Bench_util.print_table
    ~header:[ "evaluator"; "time (|R|=|S|=300, delta=20)" ]
    [
      [ "pair (production)"; Bench_util.fmt_time pair_time ];
      [ "tagged (reference)"; Bench_util.fmt_time tagged_time ];
      [
        "pair speedup";
        Bench_util.fmt_speedup (tagged_time /. pair_time);
      ];
    ]

let e8e () =
  Bench_util.banner "E8e: hash join vs nested-loop join (micro)";
  let rng = Rng.make 830 in
  let scenario = Scenario.pair ~rng ~size_r:2000 ~size_s:2000 ~key_range:200 in
  let db = scenario.Scenario.db in
  let r = Database.find db "R" and s = Database.find db "S" in
  let s_renamed = Ops.rename (fun a -> "s." ^ a) s in
  let keys = [ ("B", "s.B") ] in
  let results =
    Bench_util.run_bechamel ~quota:0.5
      (Test.make_grouped ~name:"e8e" ~fmt:"%s/%s"
         [
           Test.make ~name:"hash join"
             (Staged.stage (fun () -> ignore (Ops.equijoin r s_renamed ~keys)));
           Test.make ~name:"nested loop"
             (Staged.stage (fun () ->
                  ignore (Ops.nested_loop_join r s_renamed ~keys)));
         ])
  in
  Bench_util.print_table
    ~header:[ "join (2k x 2k)"; "time/run" ]
    (List.map
       (fun (name, ns) -> [ name; Bench_util.fmt_time (ns *. 1e-9) ])
       results)

let e12 () =
  Bench_util.banner
    "E12: tableau join minimization - redundant self-join folded at define time";
  let rng = Rng.make 840 in
  let scenario = Scenario.pair ~rng ~size_r:10_000 ~size_s:10_000 ~key_range:5_000 in
  let db = scenario.Scenario.db in
  let expr = Query.Expr.(join (base "S") (base "S")) in
  let minimized = View.define ~name:"min" ~db expr in
  let unminimized = View.define ~minimize:false ~name:"raw" ~db expr in
  let txn =
    Generate.transaction rng db "S"
      ~columns:(Scenario.columns_of scenario "S") ~inserts:20 ~deletes:20
  in
  let net = Transaction.net_effect db txn in
  let t_min = time_view_delta ~db ~view:minimized ~net Maintenance.default_options
  in
  let t_raw =
    time_view_delta ~db ~view:unminimized ~net Maintenance.default_options
  in
  Bench_util.print_table
    ~header:[ "view"; "sources"; "delta time"; "" ]
    [
      [
        "minimized";
        string_of_int (List.length (View.spj minimized).Query.Spj.sources);
        Bench_util.fmt_time t_min;
        "";
      ];
      [
        "unminimized";
        string_of_int (List.length (View.spj unminimized).Query.Spj.sources);
        Bench_util.fmt_time t_raw;
        Printf.sprintf "minimization speedup %s"
          (Bench_util.fmt_speedup (t_raw /. t_min));
      ];
    ]

let e14 () =
  Bench_util.banner
    "E14: Yannakakis semijoin reduction vs binary hash joins (adversarial chain)";
  (* Every pairwise join explodes (hot keys on both ends of the chain) but
     the full join is almost empty; full reduction prunes the hot groups
     before any join materializes. *)
  let n = 2_000 in
  let db = Database.create () in
  let schema2 a b = Schema.make [ (a, Value.Int_ty); (b, Value.Int_ty) ] in
  let r1 = Relation.create (schema2 "A" "B") in
  let r2 = Relation.create (schema2 "B" "C") in
  let r3 = Relation.create (schema2 "C" "D") in
  for k = 0 to (n / 2) - 1 do
    (* R1: hot B = 0. *)
    Relation.add r1 (Tuple.of_ints [ k; 0 ]);
    (* R2: group 1 joins R1's hot side but has cold C; group 2 has cold B
       and hot C = 0. *)
    Relation.add r2 (Tuple.of_ints [ 0; 2_000_000 + k ]);
    Relation.add r2 (Tuple.of_ints [ 1_000_000 + k; 0 ]);
    (* R3: hot C = 0. *)
    Relation.add r3 (Tuple.of_ints [ 0; k ])
  done;
  (* One witness path so the output is non-empty. *)
  Relation.add r1 (Tuple.of_ints [ 999; 555_000 ]);
  Relation.add r2 (Tuple.of_ints [ 555_000; 555_001 ]);
  Relation.add r3 (Tuple.of_ints [ 555_001; 999 ]);
  Database.register db "R1" r1;
  Database.register db "R2" r2;
  Database.register db "R3" r3;
  let lookup name = Relation.schema (Database.find db name) in
  let spj =
    Query.Spj.compile lookup
      Query.Expr.(join_all [ base "R1"; base "R2"; base "R3" ])
  in
  let sources =
    List.map
      (fun (s : Query.Spj.source) ->
        ( s.Query.Spj.alias,
          Relation.reschema
            (Database.find db s.Query.Spj.relation)
            (Query.Spj.qualified_schema lookup s) ))
      spj.Query.Spj.sources
  in
  let planner_time =
    Bench_util.time_trials ~repeats:3 (fun _ ->
        ignore
          (Query.Planner.run ~sources ~condition_dnf:spj.Query.Spj.condition_dnf
             ~projection:spj.Query.Spj.projection ()))
  in
  let yannakakis_time =
    Bench_util.time_trials ~repeats:3 (fun _ ->
        ignore (Query.Hypergraph.eval ~lookup ~sources spj))
  in
  Bench_util.print_table
    ~header:[ "evaluator"; "time (3-way chain, |Ri| ~ 2k, 1 result)" ]
    [
      [ "greedy binary hash joins"; Bench_util.fmt_time planner_time ];
      [ "Yannakakis (full reduction)"; Bench_util.fmt_time yannakakis_time ];
      [
        "reduction speedup";
        Bench_util.fmt_speedup (planner_time /. yannakakis_time);
      ];
    ]

let e15 () =
  Bench_util.banner
    "E15: maintained secondary index on the join key (probe vs scan)";
  (* Differential maintenance of R |x| S joins the tiny R-delta against
     all of S; without an index every truth-table row rebuilds a hash of
     one side and scans the other. *)
  let rows =
    List.map
      (fun indexed ->
        let rng = Rng.make 850 in
        let scenario, db, view =
          Bench_data.join_setup ~rng ~size_r:100_000 ~size_s:100_000
            ~key_range:50_000
        in
        if indexed then begin
          ignore (Relation.index (Database.find db "R") ~positions:[| 1 |]);
          ignore (Relation.index (Database.find db "S") ~positions:[| 0 |])
        end;
        let txn =
          Generate.mixed_transaction rng db
            [ ("R", Scenario.columns_of scenario "R", 5, 5) ]
        in
        let net = Transaction.net_effect db txn in
        let t = time_view_delta ~db ~view ~net Maintenance.default_options in
        [
          (if indexed then "indexed S.B (maintained)" else "no index");
          Bench_util.fmt_time t;
        ])
      [ false; true ]
  in
  Bench_util.print_table
    ~header:[ "configuration"; "view delta (|R|=|S|=100k, delta=10)" ]
    rows

let e16 () =
  Bench_util.banner
    "E16: telemetry overhead on the hot screening loop (disabled vs enabled)";
  (* The --no-obs guard: with telemetry off, every instrumentation point
     in the screening path must cost no more than an atomic load and a
     branch.  Screen a large update set through the Theorem 4.1 screen
     with the registry disabled and enabled and compare. *)
  let rng = Rng.make 860 in
  let scenario = Scenario.pair ~rng ~size_r:1_000 ~size_s:1_000 ~key_range:100 in
  let db = scenario.Scenario.db in
  (* A condition the screen must actually test per tuple (Example
     4.1-shaped: the B = C join atom links the delta to the condition). *)
  let open Condition.Formula.Dsl in
  let view =
    View.define ~name:"screened" ~db
      Query.Expr.(
        project [ "A"; "C" ]
          (select ((v "A" <% i 500_000) &&% (v "C" >% i 50))
             (join (base "R") (base "S"))))
  in
  let screen = View.screen_for view ~alias:"R" in
  let qualified = View.qualified_schema view ~alias:"R" in
  let tuples =
    List.init 20_000 (fun _ ->
        Generate.tuple rng (Scenario.columns_of scenario "R"))
  in
  let delta = Ivm.Delta.of_lists qualified (tuples, []) in
  (* Each timed arm screens the delta several times so a single
     measurement is long enough to mean something; the disabled and
     enabled arms run as interleaved pairs and the reported overhead is
     the median of the per-pair ratios (Bench_util.overhead_pairs), the
     same methodology as E22 — separate-phase timing was showing
     ±8% phantom "overheads" that were pure load drift. *)
  let screen_batch () =
    for _ = 1 to 10 do
      ignore (Ivm.Irrelevance.screen_delta_stats screen delta)
    done
  in
  Obs.Control.disable ();
  let enabled, disabled, overhead_pct =
    Bench_util.overhead_pairs
      ~off:(fun () ->
        Obs.Control.disable ();
        screen_batch ())
      ~on:(fun () -> Obs.Control.with_enabled screen_batch)
      ()
  in
  Obs.Control.with_enabled (fun () -> Obs.Metrics.reset ());
  Bench_util.print_table
    ~header:[ "telemetry"; "screen 10 x 20k tuples"; "overhead (median of 5 pairs)" ]
    [
      [ "disabled (--no-obs)"; Bench_util.fmt_time disabled; "baseline" ];
      [
        "enabled";
        Bench_util.fmt_time enabled;
        Printf.sprintf "%+.1f%%" overhead_pct;
      ];
    ];
  Printf.printf
    "\nCounter updates are batched per screen_delta call (two adds per\n\
     delta, not per tuple), so even the enabled registry stays within\n\
     noise; the disabled path is one atomic load and a branch, the <5%%\n\
     guard the instrumentation budget requires.\n"

let run () =
  Bench_util.section "Ablations (E8b-E8e, E12, E14, E15, E16)";
  e8b ();
  e8c ();
  e8d ();
  e8e ();
  e12 ();
  e14 ();
  e15 ();
  e16 ()
