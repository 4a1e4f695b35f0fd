(* E24: incremental aggregate maintenance vs full recompute.

   A grouped revenue rollup gamma[cid; COUNT, SUM(amount), MIN(amount)]
   over the orders table is maintained across identical mixed
   insert/delete streams twice: once forced [Differential] (per-group
   ring deltas, MIN rescans only when an extremum's support drains) and
   once forced [Recompute] (re-evaluate the whole grouping every
   commit).  The comparison is whole-commit maintenance time (total_ns
   summed over the stream): for aggregates the win is in the apply path
   too — the differential arm touches only the groups the batch hits,
   the recompute arm rebuilds every accumulator.

   Like E21/E22, the two arms run in interleaved pairs and the reported
   ratio is the median of per-pair ratios, so machine-load drift cancels
   instead of biasing one arm. *)

open Relalg
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Generate = Workload.Generate
module Rng = Workload.Rng

let commits = 60
let batch = 12
let order_count = 4_000
let customer_count = 200

let order_columns =
  [
    Generate.Uniform (0, (order_count * 10) + 100);
    Generate.Uniform (0, customer_count - 1);
    Generate.Uniform (1, 1000);
    Generate.Uniform (0, 5);
  ]

let build_db rng =
  let order_schema =
    Schema.make
      [
        ("oid", Value.Int_ty);
        ("cid", Value.Int_ty);
        ("amount", Value.Int_ty);
        ("priority", Value.Int_ty);
      ]
  in
  let orders = Relation.create order_schema in
  for _ = 1 to order_count do
    Relation.add orders
      (Array.of_list (List.map (Generate.value rng) order_columns))
  done;
  let db = Database.create () in
  Database.register db "orders" orders;
  db

let rollup_expr =
  Query.Expr.(
    group_by ~keys:[ "cid" ]
      [
        { Query.Aggregate.func = Count; output = "n_orders" };
        { Query.Aggregate.func = Sum "amount"; output = "revenue" };
        { Query.Aggregate.func = Min "amount"; output = "min_amount" };
      ]
      (base "orders"))

type arm_result = {
  total_ns : int;
  eval_ns : int;  (** screen + delta-evaluation phases *)
  groups_touched : int;
  rescans : int;
}

let run_arm strategy =
  let rng = Rng.make 1986 in
  let db = build_db rng in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"revenue"
       ~options:{ Maintenance.default_options with strategy }
       rollup_expr);
  let total_ns = ref 0
  and eval_ns = ref 0
  and groups = ref 0
  and rescans = ref 0 in
  for _ = 1 to commits do
    let txn =
      Generate.transaction rng db "orders" ~columns:order_columns
        ~inserts:(batch / 2) ~deletes:(batch / 2)
    in
    List.iter
      (fun (r : Maintenance.report) ->
        total_ns := !total_ns + r.Maintenance.total_ns;
        eval_ns := !eval_ns + r.Maintenance.screen_ns + r.Maintenance.eval_ns;
        groups := !groups + r.Maintenance.groups_touched;
        rescans := !rescans + r.Maintenance.rescans)
      (Manager.commit mgr txn)
  done;
  assert (Manager.all_consistent mgr);
  {
    total_ns = !total_ns;
    eval_ns = !eval_ns;
    groups_touched = !groups;
    rescans = !rescans;
  }

let measure ?(pairs = 5) () =
  (* Warm-up pair, then interleaved measured pairs; median ratio. *)
  ignore (run_arm Maintenance.Differential);
  ignore (run_arm Maintenance.Recompute);
  let samples =
    List.init pairs (fun _ ->
        let differential = run_arm Maintenance.Differential in
        let recompute = run_arm Maintenance.Recompute in
        (differential, recompute))
  in
  let ratio (d, r) =
    float_of_int r.total_ns /. float_of_int (max 1 d.total_ns)
  in
  let sorted =
    List.sort (fun a b -> Float.compare (ratio a) (ratio b)) samples
  in
  List.nth sorted (pairs / 2)

let e24_json () =
  let differential, recompute = measure () in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str "orders revenue rollup, mixed batches");
      ("commits", Obs.Json.Int commits);
      ("batch", Obs.Json.Int batch);
      ("differential_total_ns", Obs.Json.Int differential.total_ns);
      ("recompute_total_ns", Obs.Json.Int recompute.total_ns);
      ( "speedup",
        Obs.Json.Float
          (float_of_int recompute.total_ns
          /. float_of_int (max 1 differential.total_ns)) );
      ("differential_eval_ns", Obs.Json.Int differential.eval_ns);
      ("recompute_eval_ns", Obs.Json.Int recompute.eval_ns);
      ("groups_touched", Obs.Json.Int differential.groups_touched);
      ("rescans", Obs.Json.Int differential.rescans);
    ]

let run () =
  Bench_util.section
    "E24: incremental aggregates vs recompute (orders revenue rollup)";
  let differential, recompute = measure () in
  Bench_util.print_table
    ~header:[ "strategy"; "eval phase"; "total"; "groups"; "rescans" ]
    [
      [
        "differential";
        Bench_util.fmt_time (float_of_int differential.eval_ns *. 1e-9);
        Bench_util.fmt_time (float_of_int differential.total_ns *. 1e-9);
        string_of_int differential.groups_touched;
        string_of_int differential.rescans;
      ];
      [
        "recompute";
        Bench_util.fmt_time (float_of_int recompute.eval_ns *. 1e-9);
        Bench_util.fmt_time (float_of_int recompute.total_ns *. 1e-9);
        string_of_int recompute.groups_touched;
        string_of_int recompute.rescans;
      ];
    ];
  Printf.printf
    "\nmaintenance speedup: %.2fx over %d mixed commits (batch %d); the \
     differential arm touches only the groups each batch hits and rescans a \
     group only when a MIN extremum's support drains to zero\n"
    (float_of_int recompute.total_ns
    /. float_of_int (max 1 differential.total_ns))
    commits batch
