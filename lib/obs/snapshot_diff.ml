(* v2: adds the E18 "parallel" domain-scaling section;
   v3: adds the E20 "resilience" journaling-overhead section;
   v4: adds the E21 "self_maintenance" eval-phase comparison, a
       "self_maintained" count per view, and the third advisor arm in
       calibration/pairs;
   v5: adds the E22 "provenance" recorder-overhead section and switches
       advisor pairs to a fixed-size deterministic reservoir sample;
   v6: splits the E18 "parallel" section into "per_view" (commit
       fan-out over independent views) and "sharded" (E23: intra-view
       hash-sharded evaluation) sub-sections, each with its own curve
       and speedup fields;
   v7: adds the E24 "aggregate" section (incremental grouped aggregate
       maintenance vs full recompute, with the groups touched and
       MIN/MAX rescan counts);
   v8: adds the E25 "durability" section (write-ahead-log overhead vs
       the in-memory pipeline, and the recovery-time curve over log
       length);
   v9: the E20 "resilience" section counts the commit undo journal
       (commits, journal bytes, bytes per commit) in place of timing it
       against a run without one. *)
let schema_version = 9

type need =
  | Present
  | Text
  | Positive_int
  | Non_negative_int
  | Number
  | Positive
  | Non_empty_array
  | Advisory of need

type gate =
  | Budget of float
  | Must_beat of float
  | Scaling of { domains : int; floor : float }
  | Equal_to of string
  | At_least of int

type compare =
  | Drift
  | Never_lower
  | Share_of of string
  | Timing_higher
  | Timing_lower

type row = {
  path : string;
  need : need;
  gate : gate option;
  compare : compare option;
  why : string;
}

let row ?gate ?compare ?(why = "") path need =
  { path; need; gate; compare; why }

let cores_path = "parallel.cores_available"

let scaling section floors =
  row (section ^ ".curve") Non_empty_array
  :: List.map
       (fun f -> row (section ^ ".curve[]." ^ f) Present)
       [ "domains"; "elapsed_ns"; "commits_per_sec"; "speedup" ]
  @ List.map
      (fun (domains, floor) ->
        row ~gate:(Scaling { domains; floor }) ~compare:Timing_lower
          (Printf.sprintf "%s.speedup_at_%d" section domains)
          Number)
      floors

let rows =
  [
    row "schema_version" Positive_int ~gate:(At_least schema_version)
      ~compare:Never_lower ~why:"older layouts lack the E18-E25 sections";
    row "views" Non_empty_array;
    row "views[].name" Text;
    row "views[].commits" Present ~compare:Drift;
    (* read by bench_diff only, so the validator merely warns *)
    row "views[].screened_out" (Advisory Non_negative_int)
      ~compare:(Share_of "screened_kept")
      ~why:"screening ratio: the Theorem 4.1 screen stopped dropping";
    row "views[].screened_kept" (Advisory Non_negative_int);
    row "views[].p50_ns" Present ~compare:Timing_higher;
    row "views[].p95_ns" Present ~compare:Timing_higher;
    row "views[].p99_ns" Present;
    row "advisor.pairs" Non_empty_array;
    row "advisor.pairs[].predicted_differential" Present;
    row "advisor.pairs[].predicted_recompute" Present;
    row "advisor.pairs[].actual_ns" Present;
    row "advisor.pairs[].used" Present;
    row "advisor.calibration" Present;
    row "advisor.calibration.samples" Positive;
    row "metrics" Present;
    row cores_path Positive_int;
  ]
  @ scaling "parallel.per_view" [ (2, 0.0); (4, 0.0); (8, 0.0) ]
  @ scaling "parallel.sharded" [ (2, 1.0); (4, 1.5); (8, 0.0) ]
  @ [
      row "resilience.commits" Positive_int;
      row "resilience.journal_bytes" Positive_int ~compare:Drift;
      row "resilience.journal_bytes_per_commit" Positive;
      row "self_maintenance.commits" Positive_int;
      row "self_maintenance.differential_eval_ns" Positive_int;
      row "self_maintenance.self_maintain_eval_ns" Positive_int;
      row "self_maintenance.self_maintained_commits" Positive_int
        ~gate:(Equal_to "commits")
        ~why:"coverage broke: every commit must take the certified path";
      row "self_maintenance.eval_reduction" Number ~gate:(Must_beat 1.0)
        ~compare:Timing_lower
        ~why:"E21: the certified arm must beat differential evaluation";
      row "provenance.capacity" Positive_int;
      row "provenance.recorded" Positive_int;
      row "provenance.recorder_on_ns" Positive_int;
      row "provenance.recorder_off_ns" Positive_int;
      row "provenance.recorder_overhead_pct" Number ~gate:(Budget 5.0)
        ~why:"E22: the flight recorder is always on";
      row "aggregate.commits" Positive_int;
      row "aggregate.differential_total_ns" Positive_int;
      row "aggregate.recompute_total_ns" Positive_int;
      row "aggregate.groups_touched" Positive_int ~compare:Drift;
      (* a MIN/MAX rescan fires only when an extremum's support drains *)
      row "aggregate.rescans" Non_negative_int;
      row "aggregate.speedup" Number ~gate:(Must_beat 1.0)
        ~compare:Timing_lower
        ~why:"E24: incremental grouping must beat full recompute";
      row "durability.fsync_every" Positive_int;
      row "durability.in_memory_ns" Positive_int;
      row "durability.wal_ns" Positive_int;
      row "durability.records_replayed_total" Positive_int ~compare:Drift;
      row "durability.wal_overhead_pct" Number ~gate:(Budget 10.0)
        ~why:"E25: group commit must stay near the in-memory pipeline";
      row "durability.recovery_curve" Non_empty_array;
      row "durability.recovery_curve[].commits" Positive_int;
      row "durability.recovery_curve[].recovery_ns" Positive_int;
      (* no mid-run checkpoints: fewer records means the log lost some,
         more means recovery applied something twice *)
      row "durability.recovery_curve[].records_replayed" Positive_int
        ~gate:(Equal_to "commits")
        ~why:"E25: recovery must replay exactly one record per commit";
      row "durability.recovery_curve[].records_per_sec" Positive;
    ]

let set key v = function
  | Json.Obj fields ->
    Json.Obj
      (List.map (fun (k, old) -> (k, if k = key then v else old)) fields)
  | other -> other

(* [visit path f json] calls [f label holder value] wherever [path]
   leads, [holder] being the object meant to carry the path's last field
   and [value] that field; where [f] returns [Some v] the field is
   replaced in the rebuilt [json].  A list step ("views[]") goes through
   each element, labelled by its "name", else by its index.  A missing
   step reaches [Json.Null]; a missing list reaches nothing. *)
let visit path f json =
  let rec go prefix json = function
    | [] -> json
    | [ last ] -> (
      match f (prefix ^ last) json (Json.member last json) with
      | Some v -> set last v json
      | None -> json)
    | step :: rest when String.ends_with ~suffix:"[]" step -> (
      let key = String.sub step 0 (String.length step - 2) in
      let element i item =
        match Json.member "name" item with
        | Some (Json.Str name) ->
          go (Printf.sprintf "%s%s.%s." prefix key name) item rest
        | _ -> go (Printf.sprintf "%s%s[%d]." prefix key i) item rest
      in
      match Json.member key json with
      | Some (Json.List items) ->
        set key (Json.List (List.mapi element items)) json
      | _ -> json)
    | step :: rest -> (
      let inner = go (prefix ^ step ^ ".") in
      match Json.member step json with
      | Some v -> set step (inner v rest) json
      | None ->
        ignore (inner Json.Null rest);
        json)
  in
  go "" json (String.split_on_char '.' path)

(* [(label, holder, value)] wherever [path] leads. *)
let reach path json =
  let found = ref [] in
  ignore (visit path (fun l h v -> found := (l, h, v) :: !found; None) json);
  List.rev !found

let num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float x) -> Some x
  | _ -> None

let cores json =
  match reach cores_path json with
  | [ (_, _, v) ] -> Option.value ~default:1.0 (num v)
  | _ -> 1.0

let checked row = row.gate <> None || row.compare <> None

(* Why [v], found at [label], fails [need], if it does. *)
let rec unmet need label v =
  let fails what =
    Some (if v = None then label ^ " is missing" else label ^ " is not " ^ what)
  in
  match (need, v) with
  | Advisory need, v -> unmet need label v
  | Present, Some _
  | Text, Some (Json.Str _)
  | Number, Some (Json.Int _ | Json.Float _)
  | Non_empty_array, Some (Json.List (_ :: _)) ->
    None
  | Positive_int, Some (Json.Int n) when n > 0 -> None
  | Non_negative_int, Some (Json.Int n) when n >= 0 -> None
  | Positive, v when Option.fold ~none:false ~some:(( < ) 0.0) (num v) -> None
  | Present, _ -> fails "present"
  | Text, _ -> fails "a string"
  | Positive_int, _ -> fails "a positive integer"
  | Non_negative_int, _ -> fails "a non-negative integer"
  | Number, _ -> fails "a number"
  | Positive, _ -> fails "a positive number"
  | Non_empty_array, _ -> fails "a non-empty array"

let explain row msg =
  if row.why = "" then msg else Printf.sprintf "%s (%s)" msg row.why

type verdict = Pass | Fail of string | Skip of int

(* [row]'s gate on the value [x] at [label] in [holder]; the scaling
   floor holds only where [cores] covers its domain count. *)
let judge ~cores row label holder x =
  let fail fmt = Printf.ksprintf (fun m -> Fail (explain row m)) fmt in
  match row.gate with
  | Some (Budget pct) when x > pct ->
    fail "%s %.2f exceeds the %g%% budget" label x pct
  | Some (Must_beat floor) when x <= floor ->
    fail "%s %.2fx does not beat %gx" label x floor
  | Some (Scaling { domains; _ }) when cores < float_of_int domains ->
    Skip domains
  | Some (Scaling { floor; _ }) when x < floor ->
    fail "%s = %.2f below the %.1fx scaling gate (%.0f cores available)"
      label x floor cores
  | Some (Scaling _) when x <= 0.0 -> fail "%s is not positive" label
  | Some (Equal_to sibling) -> (
    match num (Json.member sibling holder) with
    | Some s when s <> x -> fail "%s = %.0f but %s = %.0f" label x sibling s
    | _ -> Pass)
  | Some (At_least n) when x < float_of_int n -> fail "%s %.0f < %d" label x n
  | _ -> Pass

(* What [row] finds at one place: its need unmet, the gate's verdict on
   its number, or nothing it checks. *)
type finding = Unmet of string | Judged of float * verdict | Unchecked

let find ~cores row (label, holder, v) =
  match (unmet row.need label v, num v) with
  | Some msg, _ -> Unmet msg
  | None, Some x when checked row -> Judged (x, judge ~cores row label holder x)
  | None, _ -> Unchecked

type report = {
  errors : string list;
  warnings : string list;
  summary : string list;
}

let validate json =
  let errors = ref [] and warnings = ref [] and summary = ref [] in
  let push r fmt = Printf.ksprintf (fun m -> r := m :: !r) fmt in
  let cores = cores json in
  let check row ((label, _, v) as place) =
    match (find ~cores row place, row.need, v) with
    | Unmet msg, Advisory _, _ -> push warnings "%s; bench_diff reads it" msg
    | Unmet msg, _, _ | Judged (_, Fail msg), _, _ -> push errors "%s" msg
    | Judged (x, Skip domains), _, _ ->
      push warnings
        "%s = %.2f skipped — %.0f core(s) < %d domains, speedup not credible \
         on this machine"
        label x cores domains;
      push summary "%s %.4g (ungated)" label x
    | Judged (x, Pass), _, _ when row.gate <> None ->
      push summary "%s %.4g" label x
    | _, Non_empty_array, Some (Json.List items) ->
      push summary "%s %d entries" label (List.length items)
    | _ -> ()
  in
  List.iter (fun row -> List.iter (check row) (reach row.path json)) rows;
  {
    errors = List.rev !errors;
    warnings = List.rev !warnings;
    summary = List.rev !summary;
  }

type options = {
  tolerance : float;
  timing_tolerance : float;
  check_timing : bool;
}

let default = { tolerance = 0.30; timing_tolerance = 3.0; check_timing = false }

type outcome = {
  regressions : string list;
  notes : string list;
  compared : int;
}

let compare_snapshots opts ~baseline ~current =
  let regressions = ref [] and notes = ref [] and compared = ref 0 in
  let regress fmt =
    Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt
  in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let timing fmt =
    Printf.ksprintf
      (fun m ->
        if opts.check_timing then regress "%s" m
        else note "%s (timing; not gated against this baseline)" m)
      fmt
  in
  let cores = Float.min (cores baseline) (cores current) in
  let beyond = opts.timing_tolerance in
  (* The baseline's place first: what it does not meet is not compared; a
     gate counts only where it passes there; then the compare class. *)
  let compare_at row current_reach ((label, bh, _) as place) =
    let found = List.find_opt (fun (l, _, _) -> l = label) current_reach in
    let ((_, ch, _) as current_place) =
      Option.value found ~default:(label, Json.Null, None)
    in
    (* NaN where a share is undefined, which no comparison finds collapsed *)
    let share holder x =
      match row.compare with
      | Some (Share_of sibling) ->
        x /. (x +. Option.value ~default:nan (num (Json.member sibling holder)))
      | _ -> nan
    in
    match (find ~cores row place, find ~cores row current_place) with
    | _ when found = None && String.contains label '[' ->
      () (* an element labelled by its index has no identity to lose *)
    | Unmet _, _ ->
      (* the version tells two files apart: both must carry it *)
      if row.compare = Some Never_lower then
        regress "baseline snapshot has no %s" label
    | _, Unmet msg -> regress "%s" msg
    | Judged _, Unchecked -> regress "%s is not a number" label
    | Unchecked, _ -> ()
    | Judged (base, base_verdict), Judged (cur, verdict) -> (
      incr compared;
      let drift =
        if base = 0.0 then Float.abs cur
        else Float.abs (cur -. base) /. Float.abs base
      in
      match (verdict, base_verdict, row.gate, row.compare) with
      | Skip domains, _, _, _ ->
        note
          "%s: %.2f -> %.2f skipped (cores_available %.0f < %d domains on \
           at least one machine)"
          label base cur cores domains
      | Fail msg, Fail _, _, _ -> note "%s (the baseline fails it too)" msg
      | Fail msg, _, Some (Budget _ | Scaling _), _ -> timing "%s" msg
      | Fail msg, _, _, _ -> regress "%s" msg
      | Pass, _, _, Some Drift when drift > opts.tolerance ->
        regress "%s: %.4g -> %.4g (drift %.0f%% > %.0f%% tolerance)" label
          base cur (drift *. 100.0) (opts.tolerance *. 100.0)
      | Pass, _, _, Some Never_lower when cur < base ->
        regress "%s went backwards: %.0f -> %.0f" label base cur
      | Pass, _, _, Some (Share_of _)
        when share bh base -. share ch cur > opts.tolerance ->
        regress "%s"
          (explain row
             (Printf.sprintf "%s: %.2f -> %.2f" label (share bh base)
                (share ch cur)))
      | Pass, _, _, Some (Timing_higher | Timing_lower)
        when if row.compare = Some Timing_higher then
               base > 0.0 && cur > base *. beyond
             else cur <= 0.0 || base > cur *. beyond ->
        timing "%s: %.4g -> %.4g (beyond %.1fx timing tolerance)" label base
          cur beyond
      | Pass, _, _, _ -> ())
  in
  List.iter
    (fun row ->
      List.iter
        (compare_at row (reach row.path current))
        (reach row.path baseline))
    rows;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    compared = !compared;
  }

(* Every gated or compared row is pushed past its check, keeping the
   value's type; a list whose elements nothing checks is emptied. *)
let degrade json =
  let scale f = function
    | Json.Int i -> Json.Int (int_of_float (float_of_int i *. f))
    | Json.Float x -> Json.Float (x *. f)
    | other -> other
  in
  let under list r = String.starts_with ~prefix:(list.path ^ "[]") r.path in
  let break row v =
    match (row.gate, row.compare) with
    | Some (Budget pct), _ -> Json.Float (pct *. 10.0)
    | Some (Must_beat floor), _ -> Json.Float (floor /. 2.0)
    | _, Some (Share_of _) -> Json.Int 0
    | _, Some Timing_higher -> scale 10.0 v
    | _, Some Timing_lower -> scale 0.1 v
    | Some _, _ | _, Some _ -> scale 0.5 v
    | None, None ->
      if row.need = Non_empty_array
         && not (List.exists (fun r -> checked r && under row r) rows)
      then Json.List []
      else v
  in
  List.fold_left
    (fun json row ->
      visit row.path (fun _ _ v -> Option.map (break row) v) json)
    json rows
