(* E10: immediate maintenance vs deferred snapshot refresh [AL80].
   Identical 100-transaction streams; the deferred manager refreshes
   every k transactions.  Banking nets overlapping churn, which makes
   deferred cheaper, at the cost of staleness between refreshes.  Each
   arm runs [repeats] fresh streams and reports the median and range of
   the time spent in commits and refreshes. *)

module Manager = Ivm.Manager
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng

let repeats = 5

let run_stream ~mode ~refresh_every seed =
  let rng = Rng.make seed in
  let scenario = Scenario.pair ~rng ~size_r:10_000 ~size_s:10_000 ~key_range:5_000
  in
  let db = scenario.Scenario.db in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"v" ~mode
       Query.Expr.(join (Query.Expr.base "R") (Query.Expr.base "S")));
  let specs =
    [
      ("R", Scenario.columns_of scenario "R", 3, 3);
      ("S", Scenario.columns_of scenario "S", 2, 2);
    ]
  in
  let rng = Rng.make (seed * 7) in
  let elapsed = ref 0.0 in
  for idx = 1 to 100 do
    (* The generator samples deletions from the live state, so each
       transaction is drawn just before its commit, outside the timer;
       both modes see the same base states, hence the same stream. *)
    let txn = Generate.mixed_transaction rng db specs in
    elapsed :=
      !elapsed
      +. Bench_util.time_once (fun () ->
             ignore (Manager.commit mgr txn);
             if mode = Manager.Deferred && idx mod refresh_every = 0 then
               ignore (Manager.refresh mgr "v"))
  done;
  ignore (Manager.refresh mgr "v");
  assert (Manager.consistent mgr "v");
  !elapsed

(* Median and range of [repeats] fresh streams. *)
let measure ~mode ~refresh_every =
  let times =
    Array.init repeats (fun _ -> run_stream ~mode ~refresh_every 1000)
  in
  Array.sort Float.compare times;
  (times.(repeats / 2), times.(0), times.(repeats - 1))

let run () =
  Bench_util.section "E10: immediate vs deferred snapshot refresh";
  let row label (median, lo, hi) speedup =
    [
      label;
      Bench_util.fmt_time median;
      Printf.sprintf "%s - %s" (Bench_util.fmt_time lo) (Bench_util.fmt_time hi);
      speedup;
    ]
  in
  let ((immediate, _, _) as imm) =
    measure ~mode:Manager.Immediate ~refresh_every:1
  in
  let rows =
    row "immediate (every txn)" imm "1.0x"
    :: List.map
         (fun period ->
           let ((t, _, _) as m) =
             measure ~mode:Manager.Deferred ~refresh_every:period
           in
           row
             (Printf.sprintf "deferred, refresh every %d" period)
             m
             (Bench_util.fmt_speedup (immediate /. t)))
         [ 1; 10; 100 ]
  in
  Bench_util.print_table
    ~header:
      [
        "strategy";
        Printf.sprintf "100-txn stream (median of %d)" repeats;
        "range";
        "vs immediate";
      ]
    rows
