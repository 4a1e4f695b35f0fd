(* Regression gate between two BENCH_IVM.json snapshots:

     bench_diff BASELINE CURRENT [--tolerance F] [--timing-tolerance F]
                [--check-timing] [--ignore-timing]
     bench_diff --self-test FILE

   Both files are read through the field table in Obs.Snapshot_diff,
   the one validate_snapshot checks.  A field the baseline has that the
   current snapshot lacks or mistypes regresses, and a gate regresses
   only where the baseline passes it.  Deterministic fields (commit
   counts, screening ratios, groups touched, records replayed) are
   compared with a relative [--tolerance] (default 0.30) and always
   gate.  Timing fields (latency percentiles, speedup curves) and the
   overhead budgets and scaling floors gate only with [--check-timing]
   — CI compares snapshots recorded on different hardware, so by
   default a timing drift beyond [--timing-tolerance] (default 3.0x) is
   reported as a note, not a regression.

   [--self-test FILE] proves the gate can fail: the file must pass
   against itself and must NOT pass against a degraded in-memory copy
   with every gated or compared field pushed past its check.

   Exit codes: 0 clean, 1 regression (or a self-test that failed to
   fail), 2 usage/parse problems.  The comparison logic itself lives in
   Obs.Snapshot_diff so tests can exercise it directly. *)

let usage () =
  prerr_endline
    "usage: bench_diff BASELINE CURRENT [--tolerance F] [--timing-tolerance \
     F] [--check-timing] [--ignore-timing]\n\
    \       bench_diff --self-test FILE";
  exit 2

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match Obs.Json.parse contents with
    | Ok json -> json
    | Error m ->
      Printf.eprintf "error: %s: %s\n" path m;
      exit 2)
  | exception Sys_error m ->
    Printf.eprintf "error: %s\n" m;
    exit 2

let report (outcome : Obs.Snapshot_diff.outcome) =
  List.iter (fun n -> Printf.printf "note: %s\n" n) outcome.notes;
  List.iter (fun r -> Printf.printf "REGRESSION: %s\n" r) outcome.regressions;
  Printf.printf "%d field(s) compared, %d regression(s), %d note(s)\n"
    outcome.compared
    (List.length outcome.regressions)
    (List.length outcome.notes)

let self_test path =
  let snapshot = read_json path in
  let options = Obs.Snapshot_diff.default in
  let identical =
    Obs.Snapshot_diff.compare_snapshots options ~baseline:snapshot
      ~current:snapshot
  in
  let degraded =
    Obs.Snapshot_diff.compare_snapshots options ~baseline:snapshot
      ~current:(Obs.Snapshot_diff.degrade snapshot)
  in
  let identical_ok = identical.regressions = [] in
  let degraded_ok = degraded.regressions <> [] in
  Printf.printf "identical snapshots: %s (%d fields, %d regressions)\n"
    (if identical_ok then "pass" else "FAIL — clean diff reported regressions")
    identical.compared
    (List.length identical.regressions);
  if not identical_ok then
    List.iter (fun r -> Printf.printf "  unexpected: %s\n" r)
      identical.regressions;
  Printf.printf "degraded snapshot: %s (%d regressions caught)\n"
    (if degraded_ok then "pass"
     else "FAIL — synthetic degradation slipped through")
    (List.length degraded.regressions);
  List.iter (fun r -> Printf.printf "  caught: %s\n" r) degraded.regressions;
  if identical_ok && degraded_ok then 0 else 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--self-test"; path ] | [ path; "--self-test" ] -> exit (self_test path)
  | _ ->
    let tolerance = ref Obs.Snapshot_diff.default.tolerance in
    let timing_tolerance = ref Obs.Snapshot_diff.default.timing_tolerance in
    let check_timing = ref Obs.Snapshot_diff.default.check_timing in
    let positional = ref [] in
    let rec parse = function
      | [] -> ()
      | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> tolerance := f
        | _ -> usage ());
        parse rest
      | "--timing-tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 1.0 -> timing_tolerance := f
        | _ -> usage ());
        parse rest
      | "--check-timing" :: rest ->
        check_timing := true;
        parse rest
      | "--ignore-timing" :: rest ->
        check_timing := false;
        parse rest
      | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        usage ()
      | path :: rest ->
        positional := path :: !positional;
        parse rest
    in
    parse args;
    (match List.rev !positional with
    | [ baseline_path; current_path ] ->
      let options =
        {
          Obs.Snapshot_diff.tolerance = !tolerance;
          timing_tolerance = !timing_tolerance;
          check_timing = !check_timing;
        }
      in
      let outcome =
        Obs.Snapshot_diff.compare_snapshots options
          ~baseline:(read_json baseline_path) ~current:(read_json current_path)
      in
      report outcome;
      exit (if outcome.regressions = [] then 0 else 1)
    | _ -> usage ())
