(* End-to-end IVM benchmark.

     dune exec bench/e2e/ivm_bench.exe -- --seed 1986

   runs every workload, each in a fresh process, prints every metric as
   [workload metric value unit], writes the same data as JSON under
   bench/e2e/out/, and exits non-zero when a correctness check fails.
   With [--workload NAME] it runs that one workload in this process and
   ends its output with one JSON line {correct, attempted, failed,
   metrics}: the end-to-end metrics, or with [--trace] the per-layer
   ones.  [--seconds S], the length of the timed stream, defaults to
   "run_seconds" in BENCHMARK.json.  [--repeat K] runs seeds
   seed..seed+K-1 and prints each metric's median and spread against
   the bounds in BENCHMARK.json; [--smoke] runs every workload at tiny
   sizes, traced. *)

module W = Workloads

type args = {
  workload : string option;
  seed : int;
  seconds : float option;  (** default: "run_seconds" in BENCHMARK.json *)
  trace : bool;
  repeat : int;
  smoke : bool;
  out : string;
}

let usage =
  "usage: ivm_bench [--workload oltp|batch|durable|refresh] [--seed N] \
   [--seconds S] [--trace [0|1]] [--repeat K] [--smoke] [--out DIR]"

let parse argv =
  let n = Array.length argv in
  let value i = if i + 1 < n then argv.(i + 1) else raise Exit in
  let rec go i a =
    if i >= n then a
    else
      match argv.(i) with
      | "--workload" -> go (i + 2) { a with workload = Some (value i) }
      | "--seed" -> go (i + 2) { a with seed = int_of_string (value i) }
      | "--seconds" -> go (i + 2) { a with seconds = Some (float_of_string (value i)) }
      | "--repeat" -> go (i + 2) { a with repeat = max 1 (int_of_string (value i)) }
      | "--out" -> go (i + 2) { a with out = value i }
      | "--smoke" -> go (i + 1) { a with smoke = true }
      | "--trace" -> (
        match if i + 1 < n then argv.(i + 1) else "" with
        | "0" -> go (i + 2) { a with trace = false }
        | "1" -> go (i + 2) { a with trace = true }
        | _ -> go (i + 1) { a with trace = true })
      | _ -> raise Exit
  in
  let defaults =
    {
      workload = None;
      seed = 1986;
      seconds = None;
      trace = false;
      repeat = 1;
      smoke = false;
      out = "bench/e2e/out";
    }
  in
  match go 1 defaults with
  | { workload = Some name; _ } when W.find name = None ->
    Error ("unknown workload " ^ name)
  | a -> Ok a
  | exception (Exit | Failure _) -> Error usage

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let us ns = ns /. 1e3
let ms ns = ns /. 1e6

(* Commit latency percentiles are exact order statistics of raw
   per-call samples within consecutive blocks of [Workloads.block]
   commits (a p99 block holds at least 1,000), reported for the fastest
   block: outside interference only ever adds time, and a slow spell of
   the machine then moves the slower blocks, not the figure.  Because a
   regression confined to part of the stream, or one that grows with
   it, can miss the fastest block, throughput and the maintenance cost
   per update are totals over every measured commit; the latter counts
   refreshes with the commits they follow, so work moved from commit to
   refresh leaves it in place.  Recovery repeats the same work at each
   pause and reports its fastest sample; set-up reports the median. *)
let e2e_metrics (w : W.t) (s : E2e.stream) =
  let fastest_block size q =
    List.fold_left
      (fun acc b -> Float.min acc (Quantile.percentile b q))
      infinity
      (Quantile.blocks s.E2e.commit_ns ~size)
  in
  let n = float_of_int (Quantile.length s.E2e.commit_ns) in
  [
    m "commit_p50_us" "us" (us (fastest_block w.W.block 0.5));
    m "commit_p99_us" "us" (us (fastest_block (max w.W.block 1000) 0.99));
    m "commits_per_s" "1/s" (n /. (float_of_int (Quantile.sum s.E2e.commit_ns) /. 1e9));
    m "maintenance_us_per_update" "us"
      (us (float_of_int (Quantile.sum s.E2e.maintain_ns) /. (n *. float_of_int w.W.batch)));
    m "recover_ms" "ms" (ms (List.fold_left Float.min infinity s.E2e.recover_ns));
    m "setup_s" "s" (Quantile.median s.E2e.setup_ns /. 1e9);
    m "live_heap_mb" "MB" s.E2e.live_heap_mb;
  ]

(* Printed and saved, not gated: sample counts, and figures that exist
   on some workloads only (see README.md).  Percentiles here are over
   the whole stream. *)
let extra_metrics (env : E2e.env) (s : E2e.stream) =
  let n = Quantile.length s.E2e.commit_ns in
  let reads = Quantile.length s.E2e.read_ns in
  let commits = Quantile.sorted s.E2e.commit_ns in
  let read = Quantile.sorted s.E2e.read_ns in
  [
    m "commit_samples" "count" (float_of_int n);
    m "refresh_samples" "count" (float_of_int reads);
    m "recover_samples" "count" (float_of_int (List.length s.E2e.recover_ns));
    m "setup_samples" "count" (float_of_int (List.length s.E2e.setup_ns));
    m "refresh_p50_ms" "ms" (ms (Quantile.percentile read 0.5));
  ]
  @ (if Quantile.supported ~n:reads 0.99 then
       [ m "refresh_p99_ms" "ms" (ms (Quantile.percentile read 0.99)) ]
     else [])
  @ (if Quantile.supported ~n 0.999 then
       [ m "commit_p999_us" "us" (us (Quantile.percentile commits 0.999)) ]
     else [])
  @
  match s.E2e.dir with
  | Some dir ->
    [ m "storage_bytes_per_update" "B" (E2e.storage_bytes_per_update env dir) ]
  | None -> []

(* Replays the stream's first [commits] commits through the traced
   pipeline and checks it lands on the manager's image of that point.
   Set-up runs three times (median); the last one is kept. *)
let traced_replay (env : E2e.env) ~commits ~image =
  let w = env.E2e.w and p = env.E2e.p in
  let setups =
    List.init 3 (fun _ ->
        let db = Relalg.Database.copy env.E2e.pristine in
        (db, Traced.define db w))
  in
  let db, (catalog, entries, _, _) = List.nth setups 2 in
  let median f =
    Quantile.median (List.map (fun (_, d) -> float_of_int (f d)) setups)
  in
  let lint = median (fun (_, _, l, _) -> l) in
  let materialize = median (fun (_, _, _, m) -> m) in
  let wal =
    if not w.W.durable then None
    else begin
      let dir = Filename.concat env.E2e.tmp "traced-wal" in
      E2e.mkdir_p dir;
      Some
        (fst
           (Durability.Wal.open_
              ~fsync:(Durability.Config.Every p.W.fsync_every)
              (Filename.concat dir "wal.bin")))
    end
  in
  let t = Traced.create ~db ~catalog ~entries ~wal in
  let gen = E2e.generator env in
  let warmup = min p.W.warmup (commits / 4) in
  let inserts = w.W.batch / 2 in
  let since_read = ref 0 in
  for i = 1 to commits do
    t.Traced.measuring <- i > warmup;
    Traced.commit t ~seq:i (Gen.next gen ~inserts ~deletes:(w.W.batch - inserts));
    since_read := !since_read + w.W.batch;
    if !since_read >= p.W.read_every then begin
      since_read := 0;
      Traced.refresh t
    end
  done;
  Option.iter
    (fun d -> E2e.fail env "traced pipeline differs from the manager: %s" d)
    (Traced.diff t image);
  Traced.pool_probe t
    (List.init p.W.pool_probe (fun _ ->
         Gen.next gen ~inserts ~deletes:(w.W.batch - inserts)));
  (t, lint, materialize)

(* The per-layer table.  Unless the unit says otherwise a value is per
   measured commit ([refresh.*]: per read; [exec.pool.*]: per
   transaction of the pool probe).  The unaccounted remainder
   is the untraced commit mean minus every traced commit layer (and,
   when durable, the amortized checkpoint): the manager's own work
   outside these calls — heal loop, provenance, stats, spans. *)
let layer_metrics (env : E2e.env) (s : E2e.stream) (t : Traced.t) ~lint
    ~materialize ~timer_ns (pr : E2e.probe) =
  let w = env.E2e.w and p = env.E2e.p in
  let c = t.Traced.c and l = t.Traced.l in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let pc (x : Traced.layer) = us (per c.Traced.commits (float_of_int x.Traced.ns)) in
  let pr_ (x : Traced.layer) =
    us (per c.Traced.refreshes (float_of_int x.Traced.ns))
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let traced =
    List.fold_left
      (fun acc x -> acc +. pc x)
      0.0
      [
        l.Traced.net;
        l.Traced.commit.Traced.advisor;
        l.Traced.base_apply;
        l.Traced.commit.Traced.screen;
        l.Traced.commit.Traced.row_eval;
        l.Traced.commit.Traced.view_apply;
        l.Traced.commit.Traced.rewind;
        l.Traced.self_maintain;
        l.Traced.recompute;
        l.Traced.accumulate;
        l.Traced.wal_append;
        l.Traced.wal_fsync;
      ]
  in
  let checkpoint =
    if w.W.durable then
      us ((pr.E2e.capture_ns +. pr.E2e.write_ns) /. float_of_int p.W.checkpoint_every)
    else 0.0
  in
  let mean =
    us (per (Quantile.length s.E2e.commit_ns) (float_of_int (Quantile.sum s.E2e.commit_ns)))
  in
  let unaccounted = mean -. traced -. checkpoint in
  let measured = float_of_int (max 1 (Quantile.length s.E2e.commit_ns)) in
  let seq = l.Traced.pool_seq.Traced.ns and pooled = l.Traced.pool_pooled.Traced.ns in
  [
    m "relalg.net.us" "us" (pc l.Traced.net);
    m "core.advisor.us" "us" (pc l.Traced.commit.Traced.advisor);
    m "relalg.base_apply.us" "us" (pc l.Traced.base_apply);
    m "manager.unaccounted.us" "us" unaccounted;
    m "manager.unaccounted.share" "ratio" (unaccounted /. mean);
    m "core.screen.us" "us" (pc l.Traced.commit.Traced.screen);
    m "core.screen.drop_ratio" "ratio" (ratio l.Traced.commit.Traced.dropped l.Traced.commit.Traced.screened);
    m "core.row_eval.us" "us" (pc l.Traced.commit.Traced.row_eval);
    m "core.row_eval.rows" "count" (per c.Traced.commits (float_of_int l.Traced.commit.Traced.rows));
    m "core.row_eval.words" "words" (per c.Traced.commits l.Traced.commit.Traced.words);
    m "core.self_maintain.us" "us" (pc l.Traced.self_maintain);
    m "core.view_apply.us" "us" (pc l.Traced.commit.Traced.view_apply);
    m "core.grouped.groups_touched" "count"
      (per c.Traced.commits (float_of_int l.Traced.commit.Traced.groups_touched));
    m "core.grouped.rescans" "count"
      (per c.Traced.commits (float_of_int l.Traced.commit.Traced.rescans));
    m "core.recompute.us" "us" (pc l.Traced.recompute);
    m "core.recompute.share" "ratio" (ratio c.Traced.recomputes c.Traced.tasks);
    m "core.rewind.us" "us" (pc l.Traced.commit.Traced.rewind);
    m "core.accumulate.us" "us" (pc l.Traced.accumulate);
    m "refresh.screen.us" "us" (pr_ l.Traced.refresh.Traced.screen);
    m "refresh.row_eval.us" "us" (pr_ l.Traced.refresh.Traced.row_eval);
    m "refresh.view_apply.us" "us" (pr_ l.Traced.refresh.Traced.view_apply);
    m "refresh.rewind.us" "us" (pr_ l.Traced.refresh.Traced.rewind);
    m "exec.pool.row_eval_seq_us" "us"
      (us (per c.Traced.probed (float_of_int seq)));
    m "exec.pool.speedup" "ratio" (ratio seq pooled);
    m "resilience.journal.bytes" "B"
      (per c.Traced.commits (float_of_int c.Traced.journal_bytes));
    m "resilience.journal.entries" "count"
      (per c.Traced.commits (float_of_int c.Traced.journal_entries));
    m "durability.wal.encode.us" "us" (pc l.Traced.wal_encode);
    m "durability.wal.append.us" "us" (pc l.Traced.wal_append);
    m "durability.wal.fsync.us" "us" (pc l.Traced.wal_fsync);
    m "durability.wal.bytes" "B" (per c.Traced.commits (float_of_int c.Traced.wal_bytes));
    m "durability.checkpoint.capture_ms" "ms" (ms pr.E2e.capture_ns);
    m "durability.checkpoint.write_ms" "ms" (ms pr.E2e.write_ns);
    m "durability.checkpoint.bytes" "B" (float_of_int pr.E2e.checkpoint_bytes);
    m "durability.recovery.load_ms" "ms" (ms pr.E2e.load_ns);
    m "durability.recovery.scan_ms" "ms" (ms pr.E2e.scan_ns);
    m "durability.recovery.install_ms" "ms"
      (ms (pr.E2e.restore_ns -. pr.E2e.load_ns -. pr.E2e.rewrite_ns));
    m "durability.recovery.replay_us" "us"
      (if pr.E2e.records = 0 then 0.0
       else us ((pr.E2e.full_ns -. pr.E2e.restore_ns) /. float_of_int pr.E2e.records));
    m "durability.recovery.rewrite_ms" "ms" (ms pr.E2e.rewrite_ns);
    m "durability.recovery.records" "count" (float_of_int pr.E2e.records);
    m "durability.storage_bytes_per_update" "B"
      (match s.E2e.dir with
       | Some dir -> E2e.storage_bytes_per_update env dir
       | None -> 0.0);
    m "setup.lint_ms" "ms" (ms lint);
    m "setup.materialize_ms" "ms" (ms materialize);
    m "gc.minor_words" "words/1k" (s.E2e.minor_words /. measured *. 1e3);
    m "gc.major_collections" "count/1k"
      (float_of_int s.E2e.major_collections /. float_of_int (max 1 s.E2e.commits) *. 1e3);
    m "trace.timer_ns" "ns" timer_ns;
  ]

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun x ->
         (x.name, Obs.Json.Obj [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.Str x.unit) ]))
       ms)

let print_metrics workload ms =
  List.iter (fun x -> Printf.printf "%s %s %.12g %s\n" workload x.name x.value x.unit) ms

let run_one args ~seconds (w : W.t) =
  let p = if args.smoke then W.smoke else W.full ~seconds in
  let w = if args.smoke then W.shrink w else w in
  let tag = Printf.sprintf "%s-%d%s" w.W.name args.seed (if args.trace then "-trace" else "") in
  let tmp = Filename.concat args.out (Printf.sprintf "tmp-%s-%d" tag (Unix.getpid ())) in
  E2e.rm_rf tmp;
  E2e.mkdir_p tmp;
  let env = E2e.make_env w p ~seed:args.seed ~tmp in
  let s, extra, layers =
    Fun.protect
      ~finally:(fun () -> E2e.rm_rf tmp)
      (fun () ->
        let s = E2e.stream env ~capture_prefix:args.trace in
        let layers =
          if not args.trace then []
          else begin
            let timer_ns = Timer.pair_cost_ns () in
            let src, image = E2e.crash env s.E2e.mgr s.E2e.dir in
            let probe = E2e.probe env s ~src ~image in
            let commits, prefix = Option.get s.E2e.prefix in
            let t, lint, materialize = traced_replay env ~commits ~image:prefix in
            Obs.Trace_export.write_file
              ~path:(Filename.concat args.out (tag ^ ".chrome.json"))
              ~meta:[ ("workload", Obs.Json.Str w.W.name); ("seed", Obs.Json.Int args.seed) ]
              t.Traced.spans;
            layer_metrics env s t ~lint ~materialize ~timer_ns probe
          end
        in
        let extra = extra_metrics env s in
        E2e.gate env s;
        (s, extra, layers))
  in
  let e2e = e2e_metrics w s in
  let failures = List.rev env.E2e.failures in
  let attempted = s.E2e.commits + s.E2e.reads + List.length s.E2e.recover_ns in
  let failed = List.length failures in
  let correct = failures = [] in
  if w.W.durable then
    Printf.printf
      "# %s: WAL group commit, one fsync per %d records; checkpoint every %d \
       records; crash %d records past a checkpoint\n"
      w.W.name p.W.fsync_every p.W.checkpoint_every p.W.crash_tail;
  print_metrics w.W.name (e2e @ extra @ layers);
  Printf.printf "%s failed_share %.12g ratio\n" w.W.name
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun f -> Printf.eprintf "%s FAILED: %s\n%!" w.W.name f) failures;
  let result =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ("metrics", metrics_json (if args.trace then layers else e2e));
      ]
  in
  Obs.Json.to_file
    (Filename.concat args.out (tag ^ ".json"))
    (Obs.Json.Obj
       [
         ("workload", Obs.Json.Str w.W.name);
         ("why", Obs.Json.Str w.W.why);
         ("seed", Obs.Json.Int args.seed);
         ("seconds", Obs.Json.Float p.W.seconds);
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("failures", Obs.Json.List (List.map (fun f -> Obs.Json.Str f) failures));
         ("end_to_end", metrics_json e2e);
         ("extra", metrics_json extra);
         ("per_layer", metrics_json layers);
         ( "samples",
           Obs.Json.Obj
             [
               ("recover_ns", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) s.E2e.recover_ns));
               ("setup_ns", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) s.E2e.setup_ns));
             ] );
       ]);
  print_endline (Obs.Json.to_string result);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Several workloads or repeats: one fresh process per run.            *)

let child args ~seconds ~workload ~seed =
  let argv =
    [|
      Sys.executable_name;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--seconds";
      Printf.sprintf "%g" seconds;
      "--trace";
      (if args.trace then "1" else "0");
      "--out";
      args.out;
    |]
  in
  let argv = if args.smoke then Array.append argv [| "--smoke" |] else argv in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  let last = List.nth_opt lines (List.length lines - 1) in
  List.iter print_endline (List.filter (fun l -> Some l <> last) lines);
  flush stdout;
  let parsed = Option.map Obs.Json.parse last in
  let metrics, correct =
    match parsed with
    | Some (Ok json) ->
      let metrics =
        match Obs.Json.member "metrics" json with
        | Some (Obs.Json.Obj fields) ->
          List.filter_map
            (fun (name, v) ->
              match Obs.Json.member "value" v with
              | Some (Obs.Json.Float x) -> Some (name, x)
              | Some (Obs.Json.Int x) -> Some (name, float_of_int x)
              | _ -> None)
            fields
        | _ -> []
      in
      (metrics, Obs.Json.member "correct" json = Some (Obs.Json.Bool true))
    | Some (Error _) | None -> ([], false)
  in
  (metrics, correct && status = Unix.WEXITED 0)

(* BENCHMARK.json in the working directory (the repository root) holds
   the run length, "run_seconds", and each gated metric's bound. *)
let benchmark =
  lazy
    (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> Result.to_option (Obs.Json.parse text))

let number = function
  | Some (Obs.Json.Float x) -> Some x
  | Some (Obs.Json.Int x) -> Some (float_of_int x)
  | _ -> None

let run_seconds () =
  Option.bind (Lazy.force benchmark) (fun json ->
      number (Obs.Json.member "run_seconds" json))

let bounds () =
  match Option.bind (Lazy.force benchmark) (Obs.Json.member "end_to_end") with
  | Some (Obs.Json.List entries) ->
    List.filter_map
      (fun e ->
        match (Obs.Json.member "name" e, number (Obs.Json.member "bound" e)) with
        | Some (Obs.Json.Str n), Some b -> Some (n, b)
        | _ -> None)
      entries
  | _ -> []

(* Median, interquartile range and max - min of each metric over the
   repeats, both as shares of the median; a bounded metric passes when
   its interquartile share is below its bound. *)
let noise runs =
  let bounds = bounds () in
  let ok = ref true in
  List.iter
    (fun (w : W.t) ->
      let mine = List.filter (fun (n, _, _, _) -> n = w.W.name) runs in
      match mine with
      | [] -> ()
      | (_, _, first, _) :: _ ->
        List.iter
          (fun (metric, _) ->
            let values =
              List.filter_map (fun (_, _, ms, _) -> List.assoc_opt metric ms) mine
            in
            let median = Quantile.median values in
            let q1, q3 = Quantile.quartiles values in
            let share x = if median = 0.0 then 0.0 else x /. Float.abs median in
            let iqr = share (q3 -. q1) in
            let spread =
              share (List.fold_left max neg_infinity values -. List.fold_left min infinity values)
            in
            let verdict =
              match List.assoc_opt metric bounds with
              | None -> "-"
              | Some b when iqr < b /. 3.0 -> Printf.sprintf "ok (bound %.0f%%)" (b *. 100.0)
              | Some b when iqr < b -> Printf.sprintf "within (bound %.0f%%)" (b *. 100.0)
              | Some b ->
                ok := false;
                Printf.sprintf "OVER (bound %.0f%%)" (b *. 100.0)
            in
            Printf.printf "spread %s %s median=%.6g iqr=%.2f%% max=%.2f%% n=%d %s\n"
              w.W.name metric median (iqr *. 100.0) (spread *. 100.0)
              (List.length values) verdict)
          first)
    W.all;
  !ok

let run_all args ~seconds =
  let names =
    match args.workload with
    | Some n -> [ n ]
    | None -> List.map (fun (w : W.t) -> w.W.name) W.all
  in
  let runs =
    List.concat
      (List.init args.repeat (fun r ->
           List.map
             (fun workload ->
               let seed = args.seed + r in
               let metrics, ok = child args ~seconds ~workload ~seed in
               (workload, seed, metrics, ok))
             names))
  in
  let all_ok = List.for_all (fun (_, _, _, ok) -> ok) runs in
  Obs.Json.to_file
    (Filename.concat args.out "summary.json")
    (Obs.Json.List
       (List.map
          (fun (workload, seed, metrics, ok) ->
            Obs.Json.Obj
              [
                ("workload", Obs.Json.Str workload);
                ("seed", Obs.Json.Int seed);
                ("ok", Obs.Json.Bool ok);
                ( "metrics",
                  Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Float v)) metrics) );
              ])
          runs));
  let steady = args.repeat < 2 || noise runs in
  if not all_ok then prerr_endline "ivm_bench: a correctness check failed";
  if all_ok && steady then 0 else 1

let () =
  match parse Sys.argv with
  | Error msg ->
    prerr_endline msg;
    exit 2
  | Ok args -> (
    let args = if args.smoke then { args with trace = true } else args in
    let seconds =
      match args.seconds with
      | Some s -> Some s
      | None when args.smoke -> Some W.smoke.W.seconds
      | None -> run_seconds ()
    in
    match seconds with
    | None ->
      prerr_endline "ivm_bench: no --seconds and no run_seconds in ./BENCHMARK.json";
      exit 2
    | Some seconds ->
      E2e.mkdir_p args.out;
      let code =
        match args.workload with
        | Some name when args.repeat = 1 ->
          run_one args ~seconds (Option.get (W.find name))
        | _ -> run_all args ~seconds
      in
      exit code)
