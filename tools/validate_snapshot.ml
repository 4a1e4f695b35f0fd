(* CI gate over the machine-readable telemetry artifacts:

     validate_snapshot trace FILE   — Chrome trace_event file from
                                      `ivm_cli trace`: must parse, carry a
                                      non-empty traceEvents array, and
                                      contain spans for every Algorithm
                                      5.1 phase (net, screen, row, apply);
     validate_snapshot bench FILE   — BENCH_IVM.json from bench/main.exe:
                                      must parse and meet every row of
                                      the table in Obs.Snapshot_diff;
                                      every failing row is reported;
     validate_snapshot lint FILE    — report from `ivm_cli lint --json`:
                                      must parse, carry no Error-severity
                                      diagnostics, and prove the
                                      IVM050-IVM059 analysis ran (at
                                      least one IVM05x code present).

   Exits nonzero with a reason on any violation, so tools/check.sh can
   assert that the instrumentation keeps emitting what downstream tooling
   consumes. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("error: " ^ m); exit 1) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> contents
  | exception Sys_error m -> fail "%s" m

let parse path =
  match Obs.Json.parse (read_file path) with
  | Ok json -> json
  | Error m -> fail "%s: %s" path m

let require_member name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> fail "missing top-level key %S" name

let as_list what = function
  | Obs.Json.List items -> items
  | _ -> fail "%s is not an array" what

let validate_trace path =
  let json = parse path in
  let events = as_list "traceEvents" (require_member "traceEvents" json) in
  if events = [] then fail "traceEvents is empty";
  let names =
    List.filter_map
      (fun event ->
        match Obs.Json.member "name" event with
        | Some (Obs.Json.Str name) -> Some name
        | _ -> None)
      events
  in
  List.iter
    (fun phase ->
      if not (List.mem phase names) then
        fail "no %S span in %s (Algorithm 5.1 phase missing)" phase path)
    [ "net"; "screen"; "row"; "apply" ];
  Printf.printf "ok: %s (%d events, all Algorithm 5.1 phases present)\n" path
    (List.length events)

let validate_bench path =
  let report = Obs.Snapshot_diff.validate (parse path) in
  List.iter (Printf.printf "warning: %s\n") report.warnings;
  List.iter (Printf.eprintf "error: %s\n") report.errors;
  if report.errors <> [] then exit 1;
  Printf.printf "ok: %s (%s)\n" path (String.concat ", " report.summary)

(* `ivm_cli lint --json` over the built-in scenarios: parseable, no
   Error-severity diagnostics, and the IVM05x self-maintenance band must
   be present — its silent disappearance would mean the analysis stopped
   running, which no other gate would notice. *)
let validate_lint path =
  let json = parse path in
  let definitions = as_list "definitions" (require_member "definitions" json) in
  if definitions = [] then fail "definitions is empty";
  let diagnostics =
    List.concat_map
      (fun entry ->
        match Obs.Json.member "diagnostics" entry with
        | Some (Obs.Json.List ds) -> ds
        | _ -> fail "a definitions[] entry has no diagnostics array")
      definitions
  in
  List.iter
    (fun d ->
      match (Obs.Json.member "code" d, Obs.Json.member "severity" d) with
      | Some (Obs.Json.Str code), Some (Obs.Json.Str "error") ->
        fail "unexpected Error-level diagnostic %s" code
      | Some (Obs.Json.Str _), Some (Obs.Json.Str _) -> ()
      | _ -> fail "a diagnostic lacks code or severity")
    diagnostics;
  let ivm05 =
    List.filter
      (fun d ->
        match Obs.Json.member "code" d with
        | Some (Obs.Json.Str code) ->
          String.length code >= 5 && String.sub code 0 5 = "IVM05"
        | _ -> false)
      diagnostics
  in
  if ivm05 = [] then
    fail "no IVM05x diagnostics: the self-maintainability analysis did not \
          run over the built-in scenarios";
  (match require_member "summary" json with
  | summary ->
    (match Obs.Json.member "errors" summary with
    | Some (Obs.Json.Int 0) -> ()
    | Some (Obs.Json.Int n) -> fail "summary.errors = %d" n
    | _ -> fail "summary.errors missing"));
  Printf.printf
    "ok: %s (%d definitions, %d diagnostics, %d in the IVM05x band, no \
     errors)\n"
    path (List.length definitions) (List.length diagnostics)
    (List.length ivm05)

let () =
  match Sys.argv with
  | [| _; "trace"; path |] -> validate_trace path
  | [| _; "bench"; path |] -> validate_bench path
  | [| _; "lint"; path |] -> validate_lint path
  | _ ->
    prerr_endline "usage: validate_snapshot (trace|bench|lint) FILE";
    exit 2
