(* E9: the paper's open question — under what circumstances is
   differential re-evaluation more efficient than complete re-evaluation?
   We sweep the update-set size as a fraction of the base relation and
   report where full re-evaluation takes over. *)

open Relalg
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng

(* E13: the adaptive policy must track the cheaper side of the E9 sweep. *)
let adaptive_sweep ~name ~db ~view ~scenario ~relation ~base_size rng =
  let rows =
    List.map
      (fun fraction ->
        let delta = max 1 (int_of_float (fraction *. float_of_int base_size)) in
        let txn =
          Generate.transaction rng db relation
            ~columns:(Scenario.columns_of scenario relation)
            ~inserts:(delta / 2)
            ~deletes:(delta - (delta / 2))
        in
        let net = Transaction.net_effect db txn in
        let decision = Ivm.Advisor.decide view ~db ~net in
        (* Time the strategy the advisor picked. *)
        let adaptive_options =
          {
            Maintenance.default_options with
            strategy = Maintenance.Adaptive;
          }
        in
        let diff, full, _ =
          Bench_data.measure_diff_vs_full ~options:adaptive_options ~repeats:2
            ~db ~view txn
        in
        let chosen, chosen_time =
          if decision.Ivm.Advisor.choose = Ivm.Advisor.Differential then
            ("differential", diff)
          else ("recompute", full)
        in
        [
          Printf.sprintf "%.1f%%" (fraction *. 100.0);
          chosen;
          Bench_util.fmt_time chosen_time;
          Bench_util.fmt_time (min diff full);
          Bench_util.fmt_speedup (min diff full /. chosen_time);
        ])
      [ 0.001; 0.01; 0.1; 0.3; 0.6; 1.0 ]
  in
  Bench_util.banner (Printf.sprintf "E13 (%s): adaptive strategy choice" name);
  Bench_util.print_table
    ~header:
      [ "delta/base"; "advisor picks"; "picked cost"; "best of both"; "regret" ]
    rows

let sweep ~name ~db ~view ~scenario ~relation ~base_size rng =
  let rows = ref [] in
  let crossover = ref None in
  List.iter
    (fun fraction ->
      let delta = max 1 (int_of_float (fraction *. float_of_int base_size)) in
      let diff, full, _ =
        Bench_data.sweep_diff_vs_full ~trials:2 ~repeats:2 ~db ~view (fun _ ->
            Generate.transaction rng db relation
              ~columns:(Scenario.columns_of scenario relation)
              ~inserts:(delta / 2)
              ~deletes:(delta - (delta / 2)))
      in
      let ratio = full /. diff in
      if ratio < 1.0 && !crossover = None then crossover := Some fraction;
      rows :=
        [
          Printf.sprintf "%.1f%%" (fraction *. 100.0);
          string_of_int delta;
          Bench_util.fmt_time diff;
          Bench_util.fmt_time full;
          Bench_util.fmt_speedup ratio;
        ]
        :: !rows)
    [ 0.001; 0.01; 0.03; 0.1; 0.3; 0.6; 1.0 ];
  Bench_util.banner (Printf.sprintf "E9 (%s)" name);
  Bench_util.print_table
    ~header:
      [ "delta/base"; "tuples"; "differential"; "full re-eval"; "diff speedup" ]
    (List.rev !rows);
  (match !crossover with
  | Some f ->
    Printf.printf
      "crossover: full re-evaluation wins once the update set reaches ~%.1f%% of the base relation\n"
      (f *. 100.0)
  | None ->
    Printf.printf
      "no crossover in the sweep: differential stays ahead up to 100%% churn\n")

let run () =
  Bench_util.section
    "E9: differential vs complete re-evaluation crossover (the paper's open question)";
  (let rng = Rng.make 900 in
   let scenario, db, view =
     Bench_data.select_setup ~rng ~size:20_000 ~key_range:1000 ~threshold:500
   in
   sweep ~name:"select view, |R| = 20k" ~db ~view ~scenario ~relation:"R"
     ~base_size:20_000 rng);
  (let rng = Rng.make 901 in
   let scenario, db, view =
     Bench_data.join_setup ~rng ~size_r:20_000 ~size_s:20_000 ~key_range:10_000
   in
   sweep ~name:"join view, |R| = |S| = 20k" ~db ~view ~scenario ~relation:"R"
     ~base_size:20_000 rng);
  (let rng = Rng.make 902 in
   let scenario, db, view =
     Bench_data.join_setup ~rng ~size_r:20_000 ~size_s:20_000 ~key_range:10_000
   in
   adaptive_sweep ~name:"join view, |R| = |S| = 20k" ~db ~view ~scenario
     ~relation:"R" ~base_size:20_000 rng)
