(* E18/E23: multicore scaling of the maintenance engine, along both
   axes the executor offers.

   E18 (per_view): eight independent select/join views over
   customers ⋈ orders replayed through managers configured with 1, 2, 4
   and 8 domains.  Views are data-independent (Manager.commit fans them
   out over the lib/exec pool), so the curve measures how far commit
   throughput scales with view-level parallelism alone.

   E23 (sharded): ONE view over a larger customers ⋈ orders join, same
   domain sweep.  With a single view there is nothing to fan out, so
   any speedup must come from inside the view: Delta_eval hash-shards
   each truth-table row's largest operand (customers, above the
   shard_min threshold) across the pool and merges the per-shard
   results — the multiset merge is bit-identical to the sequential
   evaluation, so the curve isolates the intra-view axis.

   Both seeds fix scenario and stream, so every domain count processes
   identical work.  Each transaction is drawn just before its commit and
   outside the timer, so a curve times the commits alone, and each point
   is the median of [repeats] fresh replays.  [scaling_json] re-runs
   smaller versions of both sweeps and serializes the curves into the
   BENCH_IVM.json snapshot (schema_version 6). *)

module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng

let view_count = 8
let domain_counts = [ 1; 2; 4; 8 ]
let repeats = 5

let define_dashboard_views mgr =
  let open Condition.Formula.Dsl in
  let regions = [| "north"; "south"; "east"; "west" |] in
  for k = 0 to view_count - 1 do
    let region = regions.(k mod Array.length regions) in
    let threshold = 400 + (50 * k) in
    ignore
      (Manager.define_view mgr
         ~name:(Printf.sprintf "dash%d" k)
         Query.Expr.(
           project
             [ "oid"; "cid"; "amount" ]
             (select
                ((v "amount" >% i threshold) &&% (v "region" =% s region))
                (join (base "orders") (base "customers")))))
  done

(* Seconds spent in [transactions] commits on [orders].  The generator
   lists and shuffles the whole relation on every call, so each
   transaction is drawn just before its commit, outside the timer. *)
let timed_commits mgr rng sc ~transactions ~batch =
  let db = sc.Scenario.db in
  let columns = Scenario.columns_of sc "orders" in
  let elapsed = ref 0.0 in
  for _ = 1 to transactions do
    let txn =
      Generate.transaction rng db "orders" ~columns
        ~inserts:(batch / 2)
        ~deletes:(batch - (batch / 2))
    in
    elapsed :=
      !elapsed +. Bench_util.time_once (fun () -> ignore (Manager.commit mgr txn))
  done;
  !elapsed

(* One full E18 replay: build the scenario, define the eight views,
   drive the transaction stream, return the seconds spent in commits. *)
let run_per_view ~domains ~orders ~transactions ~batch seed =
  let rng = Rng.make seed in
  let sc = Scenario.orders ~rng ~customers:300 ~orders in
  let mgr = Manager.create ~domains sc.Scenario.db in
  define_dashboard_views mgr;
  timed_commits mgr rng sc ~transactions ~batch

(* One full E23 replay: a single wide join view, so the only available
   parallelism is the intra-view sharding inside Delta_eval.  The
   customers side is the largest operand of every surviving truth-table
   row and sits well above Delta_eval.default_shard_min, so each row is
   split into pool-size hash shards. *)
let run_sharded ~domains ~customers ~orders ~transactions ~batch seed =
  let rng = Rng.make seed in
  let sc = Scenario.orders ~rng ~customers ~orders in
  let mgr = Manager.create ~domains sc.Scenario.db in
  let open Condition.Formula.Dsl in
  ignore
    (Manager.define_view mgr ~name:"big_join"
       Query.Expr.(
         project
           [ "oid"; "cid"; "amount"; "region" ]
           (select (v "amount" >% i 100)
              (join (base "orders") (base "customers")))));
  timed_commits mgr rng sc ~transactions ~batch

(* Each point is the median of [repeats] fresh replays of one seed. *)
let curve run =
  List.map
    (fun domains ->
      let times = Array.init repeats (fun _ -> run ~domains) in
      Array.sort Float.compare times;
      (domains, times.(repeats / 2)))
    domain_counts

let speedup_at ~base results domains =
  match List.assoc_opt domains results with
  | Some t when t > 0.0 -> base /. t
  | Some _ | None -> 0.0

let scenario_json ~scenario ~views ~transactions ~batch results =
  let base = List.assoc 1 results in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str scenario);
      ("views", Obs.Json.Int views);
      ("transactions", Obs.Json.Int transactions);
      ("batch", Obs.Json.Int batch);
      ( "curve",
        Obs.Json.List
          (List.map
             (fun (domains, elapsed) ->
               Obs.Json.Obj
                 [
                   ("domains", Obs.Json.Int domains);
                   ("elapsed_ns", Obs.Json.Int (int_of_float (elapsed *. 1e9)));
                   ( "commits_per_sec",
                     Obs.Json.Float (float_of_int transactions /. elapsed) );
                   ("speedup", Obs.Json.Float (base /. elapsed));
                 ])
             results) );
      ("speedup_at_2", Obs.Json.Float (speedup_at ~base results 2));
      ("speedup_at_4", Obs.Json.Float (speedup_at ~base results 4));
      ("speedup_at_8", Obs.Json.Float (speedup_at ~base results 8));
    ]

let scaling_json () =
  let pv_transactions = 30 and pv_batch = 16 in
  let per_view =
    curve (fun ~domains ->
        run_per_view ~domains ~orders:4_000 ~transactions:pv_transactions
          ~batch:pv_batch 7_700)
  in
  let sh_transactions = 8 and sh_batch = 256 in
  let sharded =
    curve (fun ~domains ->
        run_sharded ~domains ~customers:6_000 ~orders:8_000
          ~transactions:sh_transactions ~batch:sh_batch 7_710)
  in
  Obs.Json.Obj
    [
      ("experiment", Obs.Json.Str "E18");
      ("cores_available", Obs.Json.Int (Domain.recommended_domain_count ()));
      ( "per_view",
        scenario_json ~scenario:"orders" ~views:view_count
          ~transactions:pv_transactions ~batch:pv_batch per_view );
      ( "sharded",
        scenario_json ~scenario:"orders-wide" ~views:1
          ~transactions:sh_transactions ~batch:sh_batch sharded );
    ]

let print_curve ~transactions results =
  let base = List.assoc 1 results in
  Bench_util.print_table
    ~header:[ "domains"; "elapsed"; "commits/s"; "speedup" ]
    (List.map
       (fun (domains, elapsed) ->
         [
           string_of_int domains;
           Bench_util.fmt_time elapsed;
           Printf.sprintf "%.1f" (float_of_int transactions /. elapsed);
           Bench_util.fmt_speedup (base /. elapsed);
         ])
       results)

let run () =
  Bench_util.section
    "E18/E23: domain-pool scaling (per-view fan-out vs intra-view sharding)";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores available: %d (Domain.recommended_domain_count)\n" cores;
  let max_domains = List.fold_left max 1 domain_counts in
  if cores < max_domains then
    Printf.printf
      "note: only %d hardware core(s) for up to %d domains — speedups at \
       oversubscribed domain counts are not credible on this machine and \
       are recorded, not gated.\n"
      cores max_domains;
  let transactions = 60 and batch = 16 in
  Bench_util.banner
    (Printf.sprintf
       "E18 per-view: commit throughput, %d txns x %d views, batch %d \
        (median of %d)"
       transactions view_count batch repeats);
  print_curve ~transactions
    (curve (fun ~domains ->
         run_per_view ~domains ~orders:6_000 ~transactions ~batch 7_700));
  let sh_transactions = 10 and sh_batch = 256 in
  Bench_util.banner
    (Printf.sprintf
       "E23 sharded: 1 wide join view, %d txns, batch %d, |customers|=6k \
        (median of %d)"
       sh_transactions sh_batch repeats);
  print_curve ~transactions:sh_transactions
    (curve (fun ~domains ->
         run_sharded ~domains ~customers:6_000 ~orders:8_000
           ~transactions:sh_transactions ~batch:sh_batch 7_710));
  Printf.printf
    "\nPer-view: views are maintained as independent pool tasks, so the\n\
     curve tops out at min(views, domains).  Sharded: a single view has\n\
     no task-level parallelism at all — the speedup comes from\n\
     Delta_eval hash-sharding each truth-table row's largest operand\n\
     across the pool, with a merge that is bit-identical to the\n\
     sequential result.  With a single hardware core both curves stay\n\
     flat and the extra domains only add scheduling overhead — the\n\
     engine falls back to inline execution at domains=1.\n"
