(* E21: what the self-maintenance certificate buys at commit time.

   The orders dashboard (join + selection, projecting both candidate
   keys) is maintained over identical delete-only streams twice: once
   forced [Differential] (screen + truth-table evaluation against the
   base relations) and once forced [Self_maintain] (key-indexed drain of
   the materialization, zero base-relation reads — enforced by the
   Database read probe inside the engine).  The comparison is the
   maintenance evaluation phase (screen_ns + eval_ns summed over the
   stream), the part the certificate eliminates; apply time is identical
   work in both runs.

   Like E22, the two arms run in interleaved pairs and the reported
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

(* Scenario.orders draws oids uniformly, so duplicates are possible; the
   keyed-drain certificate needs oid to really be a candidate key.  Build
   the same shape with sequential oids (and Scenario's distinct-cid
   customers idea) instead.  Delete-only streams keep both keys keys. *)
let build_db rng =
  let regions = [| "north"; "south"; "east"; "west" |] in
  let customer_schema =
    Schema.make
      [ ("cid", Value.Int_ty); ("region", Value.Str_ty); ("status", Value.Int_ty) ]
  in
  let order_schema =
    Schema.make
      [
        ("oid", Value.Int_ty);
        ("cid", Value.Int_ty);
        ("amount", Value.Int_ty);
        ("priority", Value.Int_ty);
      ]
  in
  let customers = Relation.create customer_schema in
  for cid = 0 to customer_count - 1 do
    Relation.add customers
      [|
        Value.Int cid;
        Generate.value rng (Generate.Strings regions);
        Generate.value rng (Generate.Uniform (0, 3));
      |]
  done;
  let orders = Relation.create order_schema in
  for oid = 0 to order_count - 1 do
    Relation.add orders
      [|
        Value.Int oid;
        Generate.value rng (Generate.Uniform (0, customer_count - 1));
        Generate.value rng (Generate.Uniform (1, 1000));
        Generate.value rng (Generate.Uniform (0, 5));
      |]
  done;
  let db = Database.create () in
  Database.register db "customers" customers;
  Database.register db "orders" orders;
  db

let dashboard_expr =
  let open Condition.Formula.Dsl in
  Query.Expr.(
    project
      [ "oid"; "cid"; "amount" ]
      (select
         ((v "amount" >% i 900) &&% (v "region" =% s "north"))
         (join (base "orders") (base "customers"))))

let keys = [ ("orders", [ "oid" ]); ("customers", [ "cid" ]) ]

type arm_result = {
  eval_ns : int;  (** screen + truth-table / drain phases *)
  total_ns : int;
  self_maintained : int;
}

let run_arm strategy =
  let rng = Rng.make 2101 in
  let db = build_db rng in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"dashboard"
       ~options:{ Maintenance.default_options with strategy }
       ~keys dashboard_expr);
  let eval_ns = ref 0 and total_ns = ref 0 in
  for _ = 1 to commits do
    let txn =
      (* Delete-only: sampled from the live contents, no columns needed. *)
      Generate.transaction rng db "orders"
        ~columns:
          [
            Generate.Uniform (0, order_count - 1);
            Generate.Uniform (0, customer_count - 1);
            Generate.Uniform (1, 1000);
            Generate.Uniform (0, 5);
          ]
        ~inserts:0 ~deletes:batch
    in
    List.iter
      (fun (r : Maintenance.report) ->
        eval_ns := !eval_ns + r.Maintenance.screen_ns + r.Maintenance.eval_ns;
        total_ns := !total_ns + r.Maintenance.total_ns)
      (Manager.commit mgr txn)
  done;
  assert (Manager.all_consistent mgr);
  {
    eval_ns = !eval_ns;
    total_ns = !total_ns;
    self_maintained = (Manager.stats mgr "dashboard").Manager.self_maintained;
  }

let measure ?(pairs = 5) () =
  (* Warm-up pair, then interleaved measured pairs; median ratio. *)
  ignore (run_arm Maintenance.Differential);
  ignore (run_arm Maintenance.Self_maintain);
  let samples =
    List.init pairs (fun _ ->
        let differential = run_arm Maintenance.Differential in
        let certified = run_arm Maintenance.Self_maintain in
        (differential, certified))
  in
  let ratio (d, c) = float_of_int d.eval_ns /. float_of_int (max 1 c.eval_ns) in
  let sorted =
    List.sort (fun a b -> Float.compare (ratio a) (ratio b)) samples
  in
  List.nth sorted (pairs / 2)

let e21_json () =
  let differential, certified = measure () in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str "orders-dashboard delete-only");
      ("commits", Obs.Json.Int commits);
      ("batch", Obs.Json.Int batch);
      ("differential_eval_ns", Obs.Json.Int differential.eval_ns);
      ("self_maintain_eval_ns", Obs.Json.Int certified.eval_ns);
      ( "eval_reduction",
        Obs.Json.Float
          (float_of_int differential.eval_ns
          /. float_of_int (max 1 certified.eval_ns)) );
      ("differential_total_ns", Obs.Json.Int differential.total_ns);
      ("self_maintain_total_ns", Obs.Json.Int certified.total_ns);
      ("self_maintained_commits", Obs.Json.Int certified.self_maintained);
    ]

let run () =
  Bench_util.section
    "E21: self-maintenance vs differential (orders dashboard, delete-only)";
  let differential, certified = measure () in
  Bench_util.print_table
    ~header:[ "strategy"; "eval phase"; "total"; "SM commits" ]
    [
      [
        "differential";
        Bench_util.fmt_time (float_of_int differential.eval_ns *. 1e-9);
        Bench_util.fmt_time (float_of_int differential.total_ns *. 1e-9);
        string_of_int differential.self_maintained;
      ];
      [
        "self-maintain";
        Bench_util.fmt_time (float_of_int certified.eval_ns *. 1e-9);
        Bench_util.fmt_time (float_of_int certified.total_ns *. 1e-9);
        string_of_int certified.self_maintained;
      ];
    ];
  Printf.printf
    "\neval-phase reduction: %.2fx over %d delete-only commits (batch %d); \
     the certified arm never reads a base relation (probe-enforced)\n"
    (float_of_int differential.eval_ns /. float_of_int (max 1 certified.eval_ns))
    commits batch
