(* Command-line interface to the library: inspect paper artifacts, run
   randomized self-checks, and explore maintenance interactively on the
   built-in scenarios. *)

open Cmdliner
open Relalg
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Rng = Workload.Rng
module Generate = Workload.Generate
module Scenario = Workload.Scenario

(* ------------------------------------------------------------------ *)
(* ivm-cli example                                                     *)
(* ------------------------------------------------------------------ *)

let run_example () =
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples
       (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
       [ Tuple.of_ints [ 1; 2 ]; Tuple.of_ints [ 5; 10 ] ]);
  Database.register db "S"
    (Relation.of_tuples
       (Schema.make [ ("C", Value.Int_ty); ("D", Value.Int_ty) ])
       [ Tuple.of_ints [ 2; 10 ]; Tuple.of_ints [ 10; 20 ]; Tuple.of_ints [ 12; 15 ] ]);
  let mgr = Manager.create db in
  let open Condition.Formula.Dsl in
  let view =
    Manager.define_view mgr ~name:"u"
      Query.Expr.(
        project [ "A"; "D" ]
          (select
             ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
             (product (base "R") (base "S"))))
  in
  Printf.printf "view definition:\n  %s\n\n"
    (Format.asprintf "%a" Query.Spj.pp (View.spj view));
  Printf.printf "materialization:\n%s\n\n"
    (Relation.to_ascii (View.contents view));
  let screen = View.screen_for view ~alias:"R" in
  List.iter
    (fun (a, b) ->
      Printf.printf "insert (%d,%d) into R: %s\n" a b
        (if Ivm.Irrelevance.relevant screen (Tuple.of_ints [ a; b ]) then
           "relevant"
         else "irrelevant"))
    [ (9, 10); (11, 10) ];
  ignore
    (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]) ]);
  Printf.printf "\nafter inserting (9,10):\n%s\n"
    (Relation.to_ascii (View.contents view));
  0

(* ------------------------------------------------------------------ *)
(* ivm-cli stream                                                      *)
(* ------------------------------------------------------------------ *)

(* The deterministic durable workload shared by `stream --wal` and
   `recover`: the same seed rebuilds the same initial database and view,
   so a recovery in a fresh process starts from the state the logged
   records expect. *)
let durability_config ~wal ~fsync_every ~checkpoint_every =
  Option.map
    (fun dir ->
      let fsync =
        if fsync_every <= 0 then Durability.Config.Never
        else if fsync_every = 1 then Durability.Config.Always
        else Durability.Config.Every fsync_every
      in
      Durability.Config.make ~fsync ~checkpoint_every dir)
    wal

let stream_manager ~seed ~screen ~domains ~durability =
  let rng = Rng.make seed in
  let scenario = Scenario.orders ~rng ~customers:200 ~orders:5_000 in
  let db = scenario.Scenario.db in
  let mgr = Manager.create ?domains ?durability db in
  let open Condition.Formula.Dsl in
  let options = { Maintenance.default_options with screen } in
  ignore
    (Manager.define_view mgr ~name:"dashboard" ~options
       Query.Expr.(
         project
           [ "oid"; "cid"; "amount" ]
           (select
              ((v "amount" >% i 900) &&% (v "region" =% s "north"))
              (join (base "orders") (base "customers")))));
  (mgr, scenario, rng)

let print_recovery (info : Manager.recovery) =
  Printf.printf
    "recovered: checkpoint seq %d (lsn %d), %d records replayed, now at \
     seq %d (lsn %d)%s\n"
    info.Manager.checkpoint_seq info.Manager.checkpoint_lsn
    info.Manager.records_replayed info.Manager.last_seq info.Manager.last_lsn
    (if info.Manager.torn_bytes > 0 then
       Printf.sprintf "; %d torn bytes truncated" info.Manager.torn_bytes
     else "")

let run_stream seed transactions batch screen domains wal fsync_every
    checkpoint_every =
  let durability = durability_config ~wal ~fsync_every ~checkpoint_every in
  match stream_manager ~seed ~screen ~domains ~durability with
  | exception Durability.Incompatible_wal msg ->
    Printf.eprintf "incompatible wal: %s\n" msg;
    1
  | mgr, scenario, rng ->
  let db = Manager.database mgr in
  (* A WAL directory left by an earlier run holds durable state; recover
     uniformly (a fresh directory recovers trivially) so this run's
     commits append after it. *)
  if Option.is_some durability then print_recovery (Manager.recover mgr);
  let total_ns = ref 0 in
  let screened = ref 0 and kept = ref 0 in
  for _ = 1 to transactions do
    let txn =
      Generate.transaction rng db "orders"
        ~columns:(Scenario.columns_of scenario "orders")
        ~inserts:(batch / 2)
        ~deletes:(batch - (batch / 2))
    in
    (* Wall time, so fsync waits count. *)
    let t0 = Obs.Clock.now_ns () in
    let reports = Manager.commit mgr txn in
    total_ns := !total_ns + Obs.Clock.now_ns () - t0;
    List.iter
      (fun r ->
        screened := !screened + r.Maintenance.screened_out;
        kept := !kept + r.Maintenance.screened_kept)
      reports
  done;
  Printf.printf
    "%d transactions (batch %d) in %.1f ms; screening %s: %d/%d tuples \
     proven irrelevant; consistent: %b\n"
    transactions batch (float_of_int !total_ns /. 1e6)
    (if screen then "on" else "off")
    !screened (!screened + !kept)
    (Manager.all_consistent mgr);
  0

(* ------------------------------------------------------------------ *)
(* ivm-cli recover                                                     *)
(* ------------------------------------------------------------------ *)

let run_recover seed screen domains wal fsync_every checkpoint_every =
  let durability =
    durability_config ~wal:(Some wal) ~fsync_every ~checkpoint_every
  in
  (* [Manager.create] already opens the log, so a foreign or corrupt
     file surfaces there, not just in [recover]. *)
  match
    let mgr, _scenario, _rng =
      stream_manager ~seed ~screen ~domains ~durability
    in
    let info = Manager.recover mgr in
    (info, Manager.all_consistent mgr)
  with
  | info, ok ->
    print_recovery info;
    Printf.printf "consistent: %b\n" ok;
    if ok then 0 else 1
  | exception Durability.Incompatible_wal msg ->
    Printf.eprintf "incompatible wal: %s\n" msg;
    1
  | exception Durability.Corrupt msg ->
    Printf.eprintf "corrupt durable state: %s\n" msg;
    1

(* ------------------------------------------------------------------ *)
(* ivm-cli query                                                       *)
(* ------------------------------------------------------------------ *)

let run_query dir statement materialize =
  match
    let db = Csv.load_database ~dir in
    let lookup name = Relation.schema (Database.find db name) in
    let expr = Query.Parser.view ~lookup statement in
    if materialize then begin
      (* Register it as a maintained view and show the compiled form. *)
      let view = View.define ~name:"query" ~db expr in
      Printf.printf "compiled: %s\n\n"
        (Format.asprintf "%a" Query.Spj.pp (View.spj view));
      Printf.printf "%s\n" (Relation.to_ascii (View.contents view))
    end
    else Printf.printf "%s\n" (Relation.to_ascii (Query.Eval.eval db expr))
  with
  | () -> 0
  | exception Query.Parser.Parse_error message ->
    Printf.eprintf "parse error: %s\n" message;
    1
  | exception Query.Spj.Compile_error message ->
    Printf.eprintf "compile error: %s\n" message;
    1
  | exception Csv.Parse_error message ->
    Printf.eprintf "csv error: %s\n" message;
    1
  | exception Sys_error message ->
    Printf.eprintf "%s\n" message;
    1

(* ------------------------------------------------------------------ *)
(* ivm-cli lint                                                        *)
(* ------------------------------------------------------------------ *)

(* Built-in view definitions covering the paper's worked examples and the
   workload scenarios the other subcommands exercise; `lint
   --all-scenarios` doubles as a self-test of the analyzer and a CI gate
   (tools/check.sh). *)
let builtin_scenarios () =
  let open Condition.Formula.Dsl in
  let lookup_of db name = Relation.schema (Database.find db name) in
  let example_4_1 () =
    let db = Database.create () in
    Database.register db "R"
      (Relation.of_tuples
         (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
         []);
    Database.register db "S"
      (Relation.of_tuples
         (Schema.make [ ("C", Value.Int_ty); ("D", Value.Int_ty) ])
         []);
    db
  in
  let rng = Rng.make 42 in
  let pair = Scenario.pair ~rng ~size_r:10 ~size_s:10 ~key_range:5 in
  let orders = Scenario.orders ~rng ~customers:10 ~orders:20 in
  [
    ( "example-4.1",
      lookup_of (example_4_1 ()),
      Query.Expr.(
        project [ "A"; "D" ]
          (select
             ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
             (product (base "R") (base "S")))),
      [] );
    ( "example-5.1",
      lookup_of (example_4_1 ()),
      Query.Expr.(project [ "B" ] (base "R")),
      [ ("R", [ "A" ]) ] );
    ( "pair-join",
      lookup_of pair.Scenario.db,
      Query.Expr.(join (base "R") (base "S")),
      [] );
    ( "pair-project",
      lookup_of pair.Scenario.db,
      Query.Expr.(project [ "B" ] (base "R")),
      [] );
    ( "pair-filtered-join",
      lookup_of pair.Scenario.db,
      Query.Expr.(
        project [ "A"; "C" ]
          (select ((v "C" <% i 1500) ||% (v "A" >% i 100))
             (join (base "R") (base "S")))),
      [] );
    ( "orders-dashboard",
      lookup_of orders.Scenario.db,
      Query.Expr.(
        project
          [ "oid"; "cid"; "amount" ]
          (select
             ((v "amount" >% i 900) &&% (v "region" =% s "north"))
             (join (base "orders") (base "customers")))),
      [ ("orders", [ "oid" ]); ("customers", [ "cid" ]) ] );
  ]

let parse_key_spec spec =
  (* "R:A,B" -> ("R", ["A"; "B"]) *)
  match String.index_opt spec ':' with
  | None ->
    Printf.eprintf "bad --key %S (expected RELATION:ATTR[,ATTR...])\n" spec;
    exit 2
  | Some i ->
    let relation = String.sub spec 0 i in
    let attrs =
      String.split_on_char ','
        (String.sub spec (i + 1) (String.length spec - i - 1))
    in
    let attrs = List.filter (fun a -> a <> "") (List.map String.trim attrs) in
    if relation = "" || attrs = [] then begin
      Printf.eprintf "bad --key %S (expected RELATION:ATTR[,ATTR...])\n" spec;
      exit 2
    end;
    (relation, attrs)

let lint_one ~quiet ~code (label, lookup, expr, keys) =
  let diagnostics = Analysis.Analyzer.run_expr ~keys ~lookup expr in
  let failed = Analysis.Diagnostic.has_errors diagnostics in
  let shown =
    match code with
    | None -> diagnostics
    | Some query -> Analysis.Diagnostic.with_code query diagnostics
  in
  if shown = [] then begin
    if not quiet then Printf.printf "== %s ==\nok\n" label
  end
  else
    Printf.printf "== %s ==\n%s\n" label
      (Format.asprintf "%a"
         (fun ppf ds -> Analysis.Diagnostic.pp_report ppf ds)
         shown);
  failed

let severity_name = function
  | Analysis.Diagnostic.Error -> "error"
  | Analysis.Diagnostic.Warning -> "warning"
  | Analysis.Diagnostic.Hint -> "hint"

(* Machine-readable report: one object per definition, stable field
   names, and a summary block — tools/check.sh feeds this to
   tools/validate_snapshot.exe as a CI gate.  Exit code contract is the
   same as the human mode: 0 clean, 1 any Error-level diagnostic, 2
   usage problems. *)
let lint_json ~code targets =
  let definition (label, lookup, expr, keys) =
    let diagnostics = Analysis.Analyzer.run_expr ~keys ~lookup expr in
    let shown =
      match code with
      | None -> diagnostics
      | Some query -> Analysis.Diagnostic.with_code query diagnostics
    in
    let diag (d : Analysis.Diagnostic.t) =
      let opt = function None -> Obs.Json.Null | Some s -> Obs.Json.Str s in
      Obs.Json.Obj
        [
          ("code", Obs.Json.Str d.Analysis.Diagnostic.code);
          ("severity", Obs.Json.Str (severity_name d.Analysis.Diagnostic.severity));
          ("message", Obs.Json.Str d.Analysis.Diagnostic.message);
          ("context", opt d.Analysis.Diagnostic.context);
          ("paper", opt d.Analysis.Diagnostic.paper);
        ]
    in
    ( Obs.Json.Obj
        [
          ("label", Obs.Json.Str label);
          ("diagnostics", Obs.Json.List (List.map diag shown));
        ],
      diagnostics )
  in
  let entries = List.map definition targets in
  let all = List.concat_map snd entries in
  let count severity =
    List.length
      (List.filter
         (fun (d : Analysis.Diagnostic.t) ->
           d.Analysis.Diagnostic.severity = severity)
         all)
  in
  let errors = count Analysis.Diagnostic.Error in
  let doc =
    Obs.Json.Obj
      [
        ("version", Obs.Json.Int 1);
        ("definitions", Obs.Json.List (List.map fst entries));
        ( "summary",
          Obs.Json.Obj
            [
              ("definitions", Obs.Json.Int (List.length targets));
              ("errors", Obs.Json.Int errors);
              ("warnings", Obs.Json.Int (count Analysis.Diagnostic.Warning));
              ("hints", Obs.Json.Int (count Analysis.Diagnostic.Hint));
            ] );
      ]
  in
  print_endline (Obs.Json.to_string doc);
  if errors > 0 then 1 else 0

let run_lint all_scenarios dir file keys quiet json code statements =
  let keys = List.map parse_key_spec keys in
  let from_statements =
    match statements, file with
    | [], None -> []
    | _ ->
      let dir =
        match dir with
        | Some dir -> dir
        | None ->
          Printf.eprintf
            "lint: statements need --dir DIR to resolve base schemas\n";
          exit 2
      in
      let db = Csv.load_database ~dir in
      let lookup name = Relation.schema (Database.find db name) in
      let file_statements =
        match file with
        | None -> []
        | Some path ->
          let ic = open_in path in
          let rec lines acc =
            match input_line ic with
            | line -> lines (line :: acc)
            | exception End_of_file ->
              close_in ic;
              List.rev acc
          in
          List.filter
            (fun line ->
              let line = String.trim line in
              line <> ""
              && (not (String.length line >= 1 && line.[0] = '#'))
              && not (String.length line >= 2 && String.sub line 0 2 = "--"))
            (lines [])
      in
      List.mapi
        (fun i statement ->
          let label = Printf.sprintf "statement %d: %s" (i + 1) statement in
          match Query.Parser.view ~lookup statement with
          | expr -> (label, lookup, expr, keys)
          | exception Query.Parser.Parse_error message ->
            Printf.eprintf "parse error in %s: %s\n" label message;
            exit 2)
        (statements @ file_statements)
  in
  let targets =
    (if all_scenarios then
       List.map
         (fun (label, lookup, expr, ks) -> (label, lookup, expr, ks @ keys))
         (builtin_scenarios ())
     else [])
    @ from_statements
  in
  if targets = [] then begin
    Printf.eprintf
      "lint: nothing to lint (pass statements, --file or --all-scenarios)\n";
    exit 2
  end;
  if json then lint_json ~code targets
  else begin
    let failures =
      List.filter Fun.id (List.map (lint_one ~quiet ~code) targets)
    in
    if failures = [] then begin
      if not quiet then
        Printf.printf "lint: %d definition(s), no errors\n"
          (List.length targets);
      0
    end
    else begin
      Printf.printf "lint: %d of %d definition(s) carry errors\n"
        (List.length failures) (List.length targets);
      1
    end
  end

(* ------------------------------------------------------------------ *)
(* ivm-cli fuzz                                                        *)
(* ------------------------------------------------------------------ *)

let run_crash_fuzz ~seed ~streams ~transactions ~domains ~fault_rate
    ~aggregates ~quiet =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivm-crash-%d" seed)
  in
  let progress k =
    if (not quiet) && k mod 5 = 0 then begin
      Printf.printf "crash fuzz: %d/%d streams clean\n" k streams;
      flush stdout
    end
  in
  let outcome =
    Oracle.Crash.fuzz ~progress ~fault_rate ~aggregates ~dir ~seed ~streams
      ~transactions ~domains ()
  in
  let kills =
    String.concat ", "
      (List.map
         (fun (point, n) -> Printf.sprintf "%s %d" point n)
         outcome.Oracle.Crash.kills)
  in
  match (outcome.Oracle.Crash.failure, Oracle.Crash.unkilled outcome) with
  | None, [] ->
    Printf.printf
      "crash fuzz passed: %d streams x %d transactions at domains=%d, seed \
       %d; %d kills (%d with torn tails), %d WAL records replayed, %d \
       deferred refreshes; every recovery was bit-identical to the durable \
       frontier and idempotent\nkills per point: %s\n"
      outcome.Oracle.Crash.streams_run transactions domains seed
      outcome.Oracle.Crash.crashes outcome.Oracle.Crash.torn
      outcome.Oracle.Crash.replayed outcome.Oracle.Crash.refreshes kills;
    0
  | None, unkilled ->
    Printf.printf
      "crash fuzz FAILED: %d streams never killed at %s\nkills per point: %s\n"
      outcome.Oracle.Crash.streams_run
      (String.concat ", " unkilled)
      kills;
    1
  | Some (stream, divergence), _ ->
    Printf.printf "crash fuzz FAILED on stream %d of %d (seed %d):\n\n"
      outcome.Oracle.Crash.streams_run streams stream.Oracle.Stream.seed;
    Format.printf "%a@." Oracle.Harness.pp_divergence divergence;
    Printf.printf
      "\nreplay: ivm-cli fuzz --crash --seed %d --streams 1 --transactions \
       %d --domains %d --fault-rate %g%s\n"
      stream.Oracle.Stream.seed transactions domains fault_rate
      (if aggregates then " --aggregates" else "");
    1

let run_fuzz seed streams transactions domains fault_rate aggregates crash
    quiet =
  (* Fault-injected fuzzing aborts thousands of commits on purpose; each
     abort would rewrite the same post-mortem dump over and over. *)
  Resilience.Flight.set_dir None;
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Option.value ~default:1 (Exec.Pool.env_domains ())
  in
  if crash then
    let fault_rate = if fault_rate > 0.0 then fault_rate else 0.05 in
    run_crash_fuzz ~seed ~streams ~transactions ~domains ~fault_rate
      ~aggregates ~quiet
  else
  let progress k =
    if (not quiet) && k mod 10 = 0 then begin
      Printf.printf "fuzz: %d/%d streams clean\n" k streams;
      flush stdout
    end
  in
  let outcome =
    Oracle.Fuzz.run ~progress ~fault_rate ~aggregates ~seed ~streams
      ~transactions ~domains ()
  in
  let print_fault_summary () =
    if fault_rate > 0.0 then begin
      let s = outcome.Oracle.Fuzz.stats in
      Printf.printf
        "fault injection (rate %g): %d commits, %d clean aborts, %d \
         quarantines, %d heals, %d faults injected, %d escaped a refresh\n"
        fault_rate s.Oracle.Harness.committed s.Oracle.Harness.aborted
        s.Oracle.Harness.quarantined s.Oracle.Harness.healed
        s.Oracle.Harness.faults s.Oracle.Harness.refresh_faults
    end
  in
  match outcome.Oracle.Fuzz.failure with
  | None ->
    Printf.printf
      "fuzz passed: %d streams x %d transactions (%d committed, %d deferred \
       refreshes) at domains=%d, seed %d; engine always agreed with the \
       naive recompute oracle\n"
      outcome.Oracle.Fuzz.streams_run transactions
      outcome.Oracle.Fuzz.transactions_run
      outcome.Oracle.Fuzz.stats.Oracle.Harness.refreshed domains seed;
    print_fault_summary ();
    0
  | Some counterexample ->
    Printf.printf "fuzz FAILED on stream %d of %d (seed %d):\n\n"
      outcome.Oracle.Fuzz.streams_run streams
      (seed + outcome.Oracle.Fuzz.streams_run - 1);
    Format.printf "%a@." Oracle.Fuzz.pp_counterexample counterexample;
    print_fault_summary ();
    Printf.printf
      "\nreplay: ivm-cli fuzz --seed %d --streams 1 --transactions %d \
       --domains %d%s%s\n"
      (seed + outcome.Oracle.Fuzz.streams_run - 1)
      transactions domains
      (if fault_rate > 0.0 then Printf.sprintf " --fault-rate %g" fault_rate
       else "")
      (if aggregates then " --aggregates" else "");
    1

(* ------------------------------------------------------------------ *)
(* ivm-cli stats / trace                                               *)
(* ------------------------------------------------------------------ *)

(* Built-in workloads for the telemetry subcommands.  Each runs a Manager
   end to end (immediate adaptive views, and for "orders" a deferred view
   drained every 10 commits) so a trace shows every Algorithm 5.1 phase:
   net -> screen -> row evaluations -> apply. *)
let obs_scenario_names = [ "orders"; "pair"; "example" ]

let run_obs_scenario ~scenario ~seed ~transactions ~batch ~domains =
  let rng = Rng.make seed in
  let adaptive =
    { Maintenance.default_options with strategy = Maintenance.Adaptive }
  in
  let open Condition.Formula.Dsl in
  match scenario with
  | "orders" ->
    let sc = Scenario.orders ~rng ~customers:200 ~orders:5_000 in
    let db = sc.Scenario.db in
    let mgr = Manager.create ?domains db in
    ignore
      (Manager.define_view mgr ~name:"dashboard" ~options:adaptive
         Query.Expr.(
           project
             [ "oid"; "cid"; "amount" ]
             (select
                ((v "amount" >% i 900) &&% (v "region" =% s "north"))
                (join (base "orders") (base "customers")))));
    ignore
      (Manager.define_view mgr ~name:"audit" ~mode:Manager.Deferred
         Query.Expr.(
           project [ "oid"; "amount" ] (select (v "amount" >% i 990) (base "orders"))));
    for t = 1 to transactions do
      let txn =
        Generate.transaction rng db "orders"
          ~columns:(Scenario.columns_of sc "orders")
          ~inserts:(batch - (batch / 2))
          ~deletes:(batch / 2)
      in
      ignore (Manager.commit mgr txn);
      if t mod 10 = 0 then ignore (Manager.refresh mgr "audit")
    done;
    ignore (Manager.refresh_all mgr);
    mgr
  | "pair" ->
    let sc = Scenario.pair ~rng ~size_r:500 ~size_s:500 ~key_range:50 in
    let db = sc.Scenario.db in
    let mgr = Manager.create ?domains db in
    ignore
      (Manager.define_view mgr ~name:"joined" ~options:adaptive
         Query.Expr.(join (base "R") (base "S")));
    ignore
      (Manager.define_view mgr ~name:"filtered" ~options:adaptive
         Query.Expr.(
           project [ "A"; "C" ]
             (select ((v "C" <% i 1500) ||% (v "A" >% i 100))
                (join (base "R") (base "S")))));
    for _ = 1 to transactions do
      let txn =
        Generate.mixed_transaction rng db
          [
            ("R", Scenario.columns_of sc "R", batch / 2, batch / 2);
            ("S", Scenario.columns_of sc "S", batch / 2, batch / 2);
          ]
      in
      ignore (Manager.commit mgr txn)
    done;
    mgr
  | "example" ->
    (* Example 4.1: one relevant and one provably irrelevant insert per
       commit, so screening shows up in spans and metrics. *)
    let db = Database.create () in
    Database.register db "R"
      (Relation.of_tuples
         (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
         [ Tuple.of_ints [ 1; 2 ]; Tuple.of_ints [ 5; 10 ] ]);
    Database.register db "S"
      (Relation.of_tuples
         (Schema.make [ ("C", Value.Int_ty); ("D", Value.Int_ty) ])
         [ Tuple.of_ints [ 2; 10 ]; Tuple.of_ints [ 10; 20 ] ]);
    let mgr = Manager.create ?domains db in
    (* Forced differential: on a database this small the adaptive advisor
       would always recompute, hiding the screen/row phases the trace is
       meant to show.  The advisor's prediction is recorded either way. *)
    ignore
      (Manager.define_view mgr ~name:"u"
         Query.Expr.(
           project [ "A"; "D" ]
             (select
                ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
                (product (base "R") (base "S")))));
    for t = 1 to transactions do
      ignore
        (Manager.commit mgr
           [
             Transaction.insert "R" (Tuple.of_ints [ 9; 100 + t ]);
             Transaction.insert "R" (Tuple.of_ints [ 11; 100 + t ]);
           ])
    done;
    mgr
  | other ->
    Printf.eprintf "unknown scenario %S; available: %s\n" other
      (String.concat " " obs_scenario_names);
    exit 2

let setup_obs no_obs =
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Ivm.Advisor.reset_samples ();
  if not no_obs then Obs.Control.enable ()

let run_stats scenario seed transactions batch domains json out no_obs =
  setup_obs no_obs;
  let mgr = run_obs_scenario ~scenario ~seed ~transactions ~batch ~domains in
  Obs.Control.disable ();
  if json then begin
    let doc =
      Obs.Json.Obj
        [
          ("scenario", Obs.Json.Str scenario);
          ("transactions", Obs.Json.Int transactions);
          ("metrics", Obs.Metrics.snapshot ());
          ("advisor_calibration", Ivm.Advisor.calibration_json ());
          ("advisor_pairs", Ivm.Advisor.samples_json ~limit:50 ());
        ]
    in
    match out with
    | None -> print_endline (Obs.Json.to_string doc)
    | Some path ->
      Obs.Json.to_file path doc;
      Printf.printf "wrote %s\n" path
  end
  else begin
    List.iter
      (fun name ->
        Format.printf "%s: %a@." name Manager.pp_stats (Manager.stats mgr name))
      (Manager.view_names mgr);
    Format.printf "advisor: %a@." Ivm.Advisor.pp_calibration
      (Ivm.Advisor.calibrate ());
    if not no_obs then begin
      Printf.printf "\nmetrics:\n";
      Format.printf "%a@?" Obs.Summary.pp_metrics ()
    end
  end;
  0

let run_trace scenario seed transactions batch domains out format no_obs =
  setup_obs no_obs;
  ignore (run_obs_scenario ~scenario ~seed ~transactions ~batch ~domains);
  Obs.Control.disable ();
  let dropped = Obs.Span.dropped () in
  if dropped > 0 then
    Printf.eprintf
      "warning: span sink overflowed, %d spans dropped — the trace is \
       incomplete; trace fewer transactions or a smaller batch\n"
      dropped;
  let spans = Obs.Span.drain () in
  (match format with
  | "summary" -> Format.printf "%a@?" Obs.Summary.pp_spans spans
  | _ ->
    Obs.Trace_export.write_file ~path:out
      ~meta:
        [
          ("scenario", Obs.Json.Str scenario);
          ("transactions", Obs.Json.Int transactions);
          ("seed", Obs.Json.Int seed);
        ]
      spans;
    Printf.printf "wrote %s (%d spans%s)\n" out (List.length spans)
      (if no_obs then ", telemetry disabled" else ""));
  0

(* ------------------------------------------------------------------ *)
(* ivm-cli explain / metrics                                           *)
(* ------------------------------------------------------------------ *)

let explain_verdict screen label tuple =
  match Ivm.Irrelevance.explain screen tuple with
  | None -> Printf.printf "  %s: relevant (no Theorem 4.1 refutation)\n" label
  | Some rule ->
    Printf.printf "  %s: irrelevant [%s]\n      %s\n" label
      (Ivm.Irrelevance.rule_id rule)
      (Ivm.Irrelevance.rule_description rule)

(* The paper demo behind `explain`: Examples 4.1, 5.1 and 5.4 run end to
   end, each on its own manager, so the provenance ring afterwards holds
   one commit per maintenance situation the paper discusses — screened
   updates (with the rule that fired), a keyed self-maintained delete,
   and a certificate miss falling back to differential. *)
let run_paper_demo ~domains ~verdicts =
  let open Condition.Formula.Dsl in
  (* Example 4.1: A < 10 && C > 5 && B = C over R x S.  Forced
     differential (the advisor would recompute a database this small and
     hide the screening phase the demo is about); its three-arm
     prediction is recorded in the provenance either way. *)
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples
       (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
       [ Tuple.of_ints [ 1; 2 ]; Tuple.of_ints [ 5; 10 ] ]);
  Database.register db "S"
    (Relation.of_tuples
       (Schema.make [ ("C", Value.Int_ty); ("D", Value.Int_ty) ])
       [ Tuple.of_ints [ 2; 10 ]; Tuple.of_ints [ 10; 20 ] ]);
  let mgr = Manager.create ?domains db in
  let view_4_1 =
    Manager.define_view mgr ~name:"example_4_1"
      Query.Expr.(
        project [ "A"; "D" ]
          (select
             ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
             (product (base "R") (base "S"))))
  in
  if verdicts then begin
    Printf.printf
      "Example 4.1: u = project[A,D] select[A<10 && C>5 && B=C] (R x S)\n\
       per-tuple Theorem 4.1 verdicts for updates to R:\n";
    let screen = View.screen_for view_4_1 ~alias:"R" in
    explain_verdict screen "insert R(9,10)" (Tuple.of_ints [ 9; 10 ]);
    explain_verdict screen "insert R(11,10)" (Tuple.of_ints [ 11; 10 ]);
    explain_verdict screen "insert R(9,3)" (Tuple.of_ints [ 9; 3 ]);
    print_newline ()
  end;
  ignore
    (Manager.commit mgr
       [
         Transaction.insert "R" (Tuple.of_ints [ 9; 10 ]);
         Transaction.insert "R" (Tuple.of_ints [ 11; 10 ]);
         Transaction.insert "R" (Tuple.of_ints [ 9; 3 ]);
       ]);
  (* Example 5.1: v = project[B](R), key R:[A], r = {(1,10),(2,10),(3,20)}.
     Deleting R(1,10) drains through the key with zero base reads; the
     record shows the self_maintain strategy and the keyed-drain rule. *)
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples
       (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
       [ Tuple.of_ints [ 1; 10 ]; Tuple.of_ints [ 2; 10 ]; Tuple.of_ints [ 3; 20 ] ]);
  let mgr = Manager.create ?domains db in
  ignore
    (Manager.define_view mgr ~name:"example_5_1"
       ~keys:[ ("R", [ "A" ]) ]
       ~options:
         {
           Maintenance.default_options with
           strategy = Maintenance.Self_maintain;
         }
       Query.Expr.(project [ "B" ] (base "R")));
  ignore (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
  (* Example 5.4: R(A,B) join S(B,C) under keys.  The certificate covers
     deletions only; the insert commit records the fallback reason and
     runs differentially. *)
  let db = Database.create () in
  Database.register db "R"
    (Relation.of_tuples
       (Schema.make [ ("A", Value.Int_ty); ("B", Value.Int_ty) ])
       [ Tuple.of_ints [ 1; 10 ]; Tuple.of_ints [ 2; 20 ] ]);
  Database.register db "S"
    (Relation.of_tuples
       (Schema.make [ ("B", Value.Int_ty); ("C", Value.Int_ty) ])
       [ Tuple.of_ints [ 10; 100 ]; Tuple.of_ints [ 20; 200 ] ]);
  let mgr = Manager.create ?domains db in
  ignore
    (Manager.define_view mgr ~name:"example_5_4"
       ~keys:[ ("R", [ "A" ]); ("S", [ "B" ]) ]
       ~options:
         {
           Maintenance.default_options with
           strategy = Maintenance.Self_maintain;
         }
       Query.Expr.(join (base "R") (base "S")));
  ignore (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]) ]);
  ignore (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 20 ]) ])

let explain_scenario_names = "paper" :: obs_scenario_names

let run_explain scenario seed transactions batch domains json last =
  setup_obs false;
  Obs.Provenance.reset ();
  (match scenario with
  | "paper" -> run_paper_demo ~domains ~verdicts:(not json)
  | s -> ignore (run_obs_scenario ~scenario:s ~seed ~transactions ~batch ~domains));
  Obs.Control.disable ();
  let records = Obs.Provenance.recent () in
  let records =
    let n = List.length records in
    if n <= last then records
    else List.filteri (fun i _ -> i >= n - last) records
  in
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.List (List.map Obs.Provenance.commit_to_json records)))
  else if records = [] then
    print_endline "no provenance records (recorder disabled?)"
  else
    List.iter
      (fun c -> Format.printf "%a@." Obs.Provenance.pp_commit c)
      records;
  0

let run_metrics scenario seed transactions batch domains out =
  setup_obs false;
  ignore (run_obs_scenario ~scenario ~seed ~transactions ~batch ~domains);
  Obs.Control.disable ();
  let text = Obs.Metrics.to_openmetrics () in
  (match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path);
  0

(* ------------------------------------------------------------------ *)
(* command definitions                                                 *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Maintain views on a pool of $(docv) domains (1 = sequential).  \
           Defaults to the $(b,IVM_DOMAINS) environment variable, or 1.  \
           Results are identical at every setting; only timing changes.")

let example_cmd =
  Cmd.v
    (Cmd.info "example"
       ~doc:"Walk through the paper's Example 4.1 end to end.")
    Term.(const run_example $ const ())

let screen_arg =
  Arg.(
    value & opt bool true
    & info [ "screen" ] ~docv:"BOOL" ~doc:"Enable irrelevance screening.")

let fsync_every_arg =
  Arg.(
    value & opt int 1
    & info [ "fsync-every" ] ~docv:"N"
        ~doc:
          "Group-commit cadence: fsync the WAL every $(docv) appended \
           records (1 = every commit, 0 = never, leave syncing to the OS).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Snapshot the full state and truncate the WAL every $(docv) \
           records (0 = only the baseline checkpoint and recovery).")

let stream_cmd =
  let transactions =
    Arg.(
      value & opt int 100
      & info [ "transactions" ] ~docv:"N" ~doc:"Number of transactions.")
  in
  let batch =
    Arg.(
      value & opt int 10
      & info [ "batch" ] ~docv:"N" ~doc:"Updates per transaction.")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Arm the durable commit pipeline: append every commit to \
             $(docv)/wal.bin and checkpoint into $(docv)/checkpoint.bin.  A \
             directory holding earlier state is recovered (and replayed \
             into the view) before the stream starts; see the $(b,recover) \
             subcommand.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Maintain a dashboard view over a transaction stream and report \
             timing and screening statistics.")
    Term.(
      const run_stream $ seed_arg $ transactions $ batch $ screen_arg
      $ domains_arg $ wal $ fsync_every_arg $ checkpoint_every_arg)

let recover_cmd =
  let wal =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:"Durability directory written by $(b,stream --wal).")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover the $(b,stream) workload from a durability directory: \
          rebuild the seed-deterministic initial state, restore the \
          checkpoint, replay the WAL tail through live maintenance, write a \
          fresh checkpoint, and verify every view against full \
          re-evaluation.  Exits nonzero if any recovered view is \
          inconsistent.  Use the same $(b,--seed) the stream ran with.")
    Term.(
      const run_recover $ seed_arg $ screen_arg $ domains_arg $ wal
      $ fsync_every_arg $ checkpoint_every_arg)

let query_cmd =
  let dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:"Directory of <relation>.csv files (see Relalg.Csv).")
  in
  let statement =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SELECT" ~doc:"A SELECT ... FROM ... [WHERE ...] query.")
  in
  let materialize =
    Arg.(
      value & flag
      & info [ "materialize"; "m" ]
          ~doc:"Compile to a maintained view and show its canonical form.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate a SQL-like query over a directory of CSV relations.")
    Term.(const run_query $ dir $ statement $ materialize)

let lint_cmd =
  let all_scenarios =
    Arg.(
      value & flag
      & info [ "all-scenarios" ]
          ~doc:
            "Lint the built-in scenario view definitions (paper examples \
             and the workloads the other subcommands use).")
  in
  let dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:
            "Directory of <relation>.csv files supplying base schemas for \
             SELECT statements.")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file"; "f" ] ~docv:"FILE"
          ~doc:
            "Lint SELECT statements from $(docv), one per line; blank lines \
             and lines starting with # or -- are skipped.")
  in
  let keys =
    Arg.(
      value & opt_all string []
      & info [ "key" ] ~docv:"REL:ATTRS"
          ~doc:
            "Declare a candidate key, e.g. $(b,--key orders:oid), enabling \
             the Section 5.2 key-retention hint (IVM031).  Repeatable.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Only print definitions with diagnostics.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a machine-readable report on stdout: {version, \
             definitions: [{label, diagnostics: [{code, severity, \
             message, context, paper}]}], summary: {definitions, errors, \
             warnings, hints}}.  The summary always counts every \
             diagnostic; $(b,--code) filters only the per-definition \
             listings.")
  in
  let code =
    Arg.(
      value
      & opt (some string) None
      & info [ "code" ] ~docv:"CODE"
          ~doc:
            "Show only diagnostics matching $(docv) — an exact code \
             ($(b,IVM051)) or a band prefix ($(b,IVM05*)).  The exit code \
             still reflects all Error-level diagnostics, filtered or not.")
  in
  let statements =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SELECT" ~doc:"View definitions to lint.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze view definitions before registration: \
          unsatisfiable or redundant conditions, unscreenable sources, \
          hidden Cartesian products, projection and typing problems, and \
          self-maintainability certificates (diagnostic codes \
          IVM001-IVM059).  Exit code contract: 0 when no Error-level \
          diagnostic was found, 1 when at least one definition carries an \
          Error, 2 on usage problems (bad flags, unparseable statements, \
          nothing to lint) — making both the human and $(b,--json) modes \
          usable as CI gates.")
    Term.(
      const run_lint $ all_scenarios $ dir $ file $ keys $ quiet $ json $ code
      $ statements)

let fuzz_cmd =
  let streams =
    Arg.(
      value & opt int 25
      & info [ "streams" ] ~docv:"N"
          ~doc:"Independent random streams (stream $(i,k) uses seed + k).")
  in
  let transactions =
    Arg.(
      value & opt int 40
      & info [ "transactions" ] ~docv:"K" ~doc:"Transactions per stream.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Arm deterministic fault injection: every maintenance phase \
             boundary raises with probability $(docv).  Streams alternate \
             between the abort and quarantine failure policies, and every \
             commit must either succeed, abort cleanly (state bit-identical \
             to the oracle's pre-commit copy), or quarantine views that \
             self-heal by end of stream.")
  in
  let aggregates =
    Arg.(
      value & flag
      & info [ "aggregates" ]
          ~doc:
            "Also draw GROUP BY views (COUNT/SUM/AVG/MIN/MAX, grouped and \
             keyless) and 1-2 dependent views stacked on random parents, so \
             every stream lockstep-checks ring-valued aggregate maintenance \
             and views over views against the oracle.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Crash-recovery lockstep gate: each stream runs against a \
             write-ahead-logged manager with fault injection armed over the \
             maintenance points, and dies once at one WAL kill point (apply, \
             append, fsync, checkpoint, checkpoint seal, truncate) chosen \
             from its seed, in a commit or a deferred refresh; a run of 12 or \
             more streams must kill at every point, and prints the kills per \
             point.  A kill simulates process death — optionally tearing \
             the last WAL record at a seed-chosen byte offset — after which \
             the harness recovers into a fresh manager and requires the \
             recovered state to be bit-identical to the durable frontier \
             (quarantined and disabled views included), recovery to be \
             idempotent, and the continued stream to agree with the oracle.  \
             $(b,--fault-rate) (0.05 when unset) applies to the maintenance \
             points.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress output.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing against the naive oracle: long randomized \
          transaction streams (mixed insert/delete batches, multi-relation \
          updates, correlated deletes, no-ops, provably irrelevant updates) \
          are replayed through the full maintenance stack and through a \
          reference engine that recomputes every view from scratch after \
          each transaction.  Materializations, multiplicity counters and \
          screening decisions must agree after every commit; the first \
          divergence is shrunk to a minimal replayable counterexample and \
          printed.  With $(b,--fault-rate), commits run under injected \
          faults and the fault-tolerance contract (clean abort or \
          quarantine-then-heal) is checked instead.  Exits nonzero on \
          divergence, making it usable as a CI gate and for soak runs.")
    Term.(
      const run_fuzz $ seed_arg $ streams $ transactions $ domains_arg
      $ fault_rate $ aggregates $ crash $ quiet)

let scenario_arg =
  Arg.(
    value
    & opt string "orders"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Built-in workload to run: %s."
             (String.concat ", " obs_scenario_names)))

let obs_transactions_arg =
  Arg.(
    value & opt int 50
    & info [ "transactions" ] ~docv:"N" ~doc:"Committed transactions.")

let obs_batch_arg =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~docv:"N" ~doc:"Updates per transaction.")

let no_obs_arg =
  Arg.(
    value & flag
    & info [ "no-obs" ]
        ~doc:
          "Leave telemetry disabled: spans and metrics compile to \
           near-no-ops (one atomic load per instrumentation point).  \
           Timing fields in reports and manager statistics are still \
           measured.")

let stats_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the metrics registry and advisor calibration as JSON.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a built-in scenario under the view manager and report \
          per-view maintenance statistics (timing included), the advisor's \
          predicted-vs-actual calibration, and the metrics registry.")
    Term.(
      const run_stats $ scenario_arg $ seed_arg $ obs_transactions_arg
      $ obs_batch_arg $ domains_arg $ json $ out $ no_obs_arg)

let trace_cmd =
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Output path of the Chrome trace_event file.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", "chrome"); ("summary", "summary") ]) "chrome"
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,chrome) writes a trace_event JSON file (open in \
             chrome://tracing, Perfetto or speedscope); $(b,summary) \
             prints an aggregated per-phase table instead.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a built-in scenario with phase-level tracing on and export \
          the spans (net, screen, per-truth-table-row eval, apply, \
          recompute, refresh) as a Chrome trace_event file.")
    Term.(
      const run_trace $ scenario_arg $ seed_arg $ obs_transactions_arg
      $ obs_batch_arg $ domains_arg $ out $ format $ no_obs_arg)

let explain_cmd =
  let scenario =
    Arg.(
      value
      & opt string "paper"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Workload to explain: %s.  $(b,paper) replays the paper's \
                Examples 4.1, 5.1 and 5.4 with per-tuple screening verdicts."
               (String.concat ", " explain_scenario_names)))
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the provenance records as a JSON array (the same schema \
             the flight recorder dumps) instead of the human tree.")
  in
  let last =
    Arg.(
      value & opt int 10
      & info [ "last" ] ~docv:"N"
          ~doc:"Show only the newest $(docv) commit records.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a workload and print each commit's provenance record: the \
          screening verdict with the Theorem 4.1 rule that fired, the \
          advisor's three-arm predicted costs against the measured cost, \
          the strategy used (and why self-maintenance fell back when the \
          certificate did not cover the commit), rollback/quarantine \
          events, and per-phase wall times.")
    Term.(
      const run_explain $ scenario $ seed_arg $ obs_transactions_arg
      $ obs_batch_arg $ domains_arg $ json $ last)

let metrics_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the exposition to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a built-in scenario and print the metrics registry in \
          OpenMetrics text exposition format (counters, gauges, and \
          log2-bucketed histograms with cumulative $(b,_bucket) series), \
          ready to be scraped or pushed to a Prometheus-compatible \
          backend.")
    Term.(
      const run_metrics $ scenario_arg $ seed_arg $ obs_transactions_arg
      $ obs_batch_arg $ domains_arg $ out)

let () =
  let info =
    Cmd.info "ivm-cli" ~version:"1.0.0"
      ~doc:
        "Efficiently updating materialized views (Blakeley, Larson & Tompa, \
         SIGMOD 1986)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            example_cmd; stream_cmd; recover_cmd; query_cmd;
            lint_cmd; fuzz_cmd; stats_cmd; trace_cmd; explain_cmd;
            metrics_cmd;
          ]))
