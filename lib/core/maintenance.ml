open Relalg

let log_src = Logs.Src.create "ivm.maintenance" ~doc:"View maintenance"

module Log = (val Logs.src_log log_src : Logs.LOG)

type strategy =
  | Differential
  | Recompute
  | Adaptive
  | Self_maintain

type options = {
  strategy : strategy;
  screen : bool;
  reuse : bool;
  order : Query.Planner.join_order;
  join_impl : Query.Planner.join_impl;
  shard_min : int;
}

let default_options =
  {
    strategy = Differential;
    screen = true;
    reuse = false;
    order = `Greedy;
    join_impl = `Hash;
    shard_min = Delta_eval.default_shard_min;
  }

type report = {
  view_name : string;
  strategy_used : strategy;
  screened_out : int;
  screened_kept : int;
  screen_rules : (string * int) list;
  rows_evaluated : int;
  delta_inserts : int;
  delta_deletes : int;
  groups_touched : int;
  rescans : int;
  screen_ns : int;
  eval_ns : int;
  apply_ns : int;
  total_ns : int;
  advisor : Advisor.decision option;
  fallback : string option;
  delta : Delta.t option;
      (* the applied view delta, when the maintenance path produced one;
         dependent views consume it as their input transaction *)
}

let empty_report ~view_name ~strategy_used =
  {
    view_name;
    strategy_used;
    screened_out = 0;
    screened_kept = 0;
    screen_rules = [];
    rows_evaluated = 0;
    delta_inserts = 0;
    delta_deletes = 0;
    groups_touched = 0;
    rescans = 0;
    screen_ns = 0;
    eval_ns = 0;
    apply_ns = 0;
    total_ns = 0;
    advisor = None;
    fallback = None;
    delta = None;
  }

(* Self-maintenance screens deletions through the key, not Theorem 4.1;
   provenance labels that verdict with its own rule id. *)
let keyed_drain_rule_id = "IVM051:keyed-drain"

let strategy_name = function
  | Differential -> "differential"
  | Recompute -> "recompute"
  | Adaptive -> "adaptive"
  | Self_maintain -> "self_maintain"

(* The arm a sample executes, for advisor calibration. *)
let arm_of_strategy = function
  | Recompute -> Advisor.Recompute
  | Self_maintain -> Advisor.Self_maintain
  | Differential | Adaptive -> Advisor.Differential

let self_maintain_applies view ~net =
  match View.self_maintain view with
  | Some plan -> Self_maintain.applies plan ~net
  | None -> false

(* Why a requested [Self_maintain] cannot run on this transaction;
   [None] when it can.  The distinction matters for provenance: "no
   certificate" is a property of the view, "not covered" of the
   transaction. *)
let self_maintain_fallback view ~net =
  match View.self_maintain view with
  | None -> Some "view has no self-maintenance certificate"
  | Some plan ->
    if Self_maintain.applies plan ~net then None
    else Some "certificate does not cover this transaction's update sets"

let concrete_strategy options view ~net ~decision =
  match options.strategy with
  | Differential -> Differential
  | Recompute -> Recompute
  | Self_maintain ->
    (* Forced self-maintenance still degrades gracefully: when the
       certificate does not cover this transaction, differential is the
       always-applicable default. *)
    if self_maintain_applies view ~net then Self_maintain else Differential
  | Adaptive -> (
    match (decision : Advisor.decision).Advisor.choose with
    | Advisor.Self_maintain -> Self_maintain
    | Advisor.Differential -> Differential
    | Advisor.Recompute -> Recompute)

(* [resolve_with_decision] always evaluates the cost model, so its
   prediction can be recorded against the measured cost even when the
   strategy is forced — that is what calibrates the advisor. *)
let resolve_with_decision options view ~db ~net =
  let decision = Advisor.decide view ~db ~net in
  (concrete_strategy options view ~net ~decision, decision)

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %s, screened %d/%d irrelevant, %d rows, +%d -%d view tuples, %s"
    r.view_name
    (strategy_name r.strategy_used)
    r.screened_out
    (r.screened_out + r.screened_kept)
    r.rows_evaluated r.delta_inserts r.delta_deletes
    (Obs.Summary.fmt_ns r.total_ns);
  if r.groups_touched > 0 || r.rescans > 0 then
    Format.fprintf ppf " [groups: %d touched, %d rescanned]" r.groups_touched
      r.rescans;
  List.iter
    (fun (rule, n) -> Format.fprintf ppf " [%s x%d]" rule n)
    r.screen_rules;
  (match r.fallback with
  | None -> ()
  | Some why -> Format.fprintf ppf " [fallback: %s]" why);
  match r.advisor with
  | None -> ()
  | Some d -> Format.fprintf ppf " [advisor: %a]" Advisor.pp_decision d

(* Feed one finished report into the metrics registry (no-op when
   telemetry is off). *)
let record_report r =
  if Obs.Control.enabled () then begin
    let view_label = [ ("view", r.view_name) ] in
    Obs.Metrics.observe "ivm_maintenance_ns" ~labels:view_label r.total_ns;
    Obs.Metrics.add "ivm_commits_total"
      ~labels:
        (view_label @ [ ("strategy", strategy_name r.strategy_used) ])
      1;
    if r.screen_ns > 0 then
      Obs.Metrics.observe "ivm_phase_ns"
        ~labels:(view_label @ [ ("phase", "screen") ])
        r.screen_ns;
    if r.eval_ns > 0 then
      Obs.Metrics.observe "ivm_phase_ns"
        ~labels:(view_label @ [ ("phase", "eval") ])
        r.eval_ns;
    if r.apply_ns > 0 then
      Obs.Metrics.observe "ivm_phase_ns"
        ~labels:(view_label @ [ ("phase", "apply") ])
        r.apply_ns;
    Obs.Metrics.add "ivm_rows_evaluated_total" ~labels:view_label
      r.rows_evaluated;
    Obs.Metrics.add "ivm_view_tuples_inserted_total" ~labels:view_label
      r.delta_inserts;
    Obs.Metrics.add "ivm_view_tuples_deleted_total" ~labels:view_label
      r.delta_deletes
  end

(* Rule tallies merge across a view's sources (each source has its own
   screen, several can drop tuples for the same reason). *)
let merge_rule_counts acc rules =
  List.fold_left
    (fun acc (rule, n) ->
      let id = Irrelevance.rule_id rule in
      match List.assoc_opt id acc with
      | Some m -> (id, m + n) :: List.remove_assoc id acc
      | None -> acc @ [ (id, n) ])
    acc rules

let view_delta ?(options = default_options) ?pool view ~db ~net =
  let t_start = Obs.Clock.now_ns () in
  let spj = View.spj view in
  let screened_out = ref 0 and screened_kept = ref 0 in
  let screen_rules = ref [] in
  let screen_ns = ref 0 in
  let inputs =
    List.map
      (fun (source : Query.Spj.source) ->
        let qualified = View.qualified_schema view ~alias:source.Query.Spj.alias in
        let base = Database.find db source.Query.Spj.relation in
        let old_part = Relation.reschema base qualified in
        let delta =
          match List.assoc_opt source.Query.Spj.relation net with
          | None -> None
          | Some (inserts, deletes) ->
            let raw = Delta.of_lists qualified (inserts, deletes) in
            if options.screen then begin
              let screen = View.screen_for view ~alias:source.Query.Spj.alias in
              let t0 = Obs.Clock.now_ns () in
              let row_stats = ref (0, 0) in
              let screened =
                Obs.Span.with_span "screen"
                  ~args:(fun () ->
                    let kept, out = !row_stats in
                    [
                      ("view", Obs.Json.Str (View.name view));
                      ("alias", Obs.Json.Str source.Query.Spj.alias);
                      ("kept", Obs.Json.Int kept);
                      ("out", Obs.Json.Int out);
                    ])
                  (fun () ->
                    Resilience.Fault.point "screen";
                    let screened, stats, rules =
                      Irrelevance.screen_delta_explain ?pool screen raw
                    in
                    row_stats := stats;
                    screen_rules := merge_rule_counts !screen_rules rules;
                    screened)
              in
              screen_ns := !screen_ns + (Obs.Clock.now_ns () - t0);
              let kept, out = !row_stats in
              screened_kept := !screened_kept + kept;
              screened_out := !screened_out + out;
              Some screened
            end
            else Some raw
        in
        { Delta_eval.alias = source.Query.Spj.alias; old_part; delta })
      spj.Query.Spj.sources
  in
  let t_eval = Obs.Clock.now_ns () in
  let result =
    Obs.Span.with_span "eval"
      ~args:(fun () -> [ ("view", Obs.Json.Str (View.name view)) ])
      (fun () ->
        Resilience.Fault.point "eval";
        Delta_eval.eval ~order:options.order ~join_impl:options.join_impl
          ~reuse:options.reuse ?pool ~shard_min:options.shard_min ~spj ~inputs
          ())
  in
  let eval_ns = Obs.Clock.now_ns () - t_eval in
  let delta = result.Delta_eval.delta in
  Log.debug (fun m ->
      m "view %s: %d rows evaluated, +%d -%d, screened %d/%d"
        (View.name view) result.Delta_eval.rows_evaluated
        (Relation.total delta.Delta.inserts)
        (Relation.total delta.Delta.deletes)
        !screened_out
        (!screened_out + !screened_kept));
  ( delta,
    {
      (empty_report ~view_name:(View.name view) ~strategy_used:Differential) with
      screened_out = !screened_out;
      screened_kept = !screened_kept;
      screen_rules = !screen_rules;
      rows_evaluated = result.Delta_eval.rows_evaluated;
      delta_inserts = Relation.total delta.Delta.inserts;
      delta_deletes = Relation.total delta.Delta.deletes;
      screen_ns = !screen_ns;
      eval_ns;
      total_ns = Obs.Clock.now_ns () - t_start;
    } )

(* Every base or view mutation optionally goes through the undo
   journal, so a failed commit can be rolled back to the exact
   pre-commit state. *)
let journaled_update ?journal r t delta =
  match journal with
  | None -> Relation.update r t delta
  | Some j -> Resilience.Journal.update j r t delta

let apply_deletes ?journal db net =
  Obs.Span.with_span "apply"
    ~args:(fun () ->
      [ ("target", Obs.Json.Str "base"); ("part", Obs.Json.Str "deletes") ])
    (fun () ->
      Resilience.Fault.point "apply";
      List.iter
        (fun (name, (_, deletes)) ->
          let r = Database.find db name in
          List.iter (fun t -> journaled_update ?journal r t (-1)) deletes)
        net)

let apply_inserts ?journal db net =
  Obs.Span.with_span "apply"
    ~args:(fun () ->
      [ ("target", Obs.Json.Str "base"); ("part", Obs.Json.Str "inserts") ])
    (fun () ->
      Resilience.Fault.point "apply";
      List.iter
        (fun (name, (inserts, _)) ->
          let r = Database.find db name in
          List.iter (fun t -> journaled_update ?journal r t 1) inserts)
        net)

(* [Delta.apply] mutates tuple by tuple and can fail partway through,
   so the journaled path records each counter update individually —
   rollback then rewinds exactly the applied prefix. *)
let apply_view_delta ?journal view (delta : Delta.t) =
  match journal with
  | None -> View.apply_delta view delta
  | Some j ->
    let state = View.contents view in
    Relation.iter
      (fun t c -> Resilience.Journal.update j state t c)
      delta.Delta.inserts;
    Relation.iter
      (fun t c -> Resilience.Journal.update j state t (-c))
      delta.Delta.deletes

(* For an aggregate view, the evaluated delta is the {e inner} SPJ
   delta; fold it through the group accumulators and apply the resulting
   outer delta.  Journal ordering matters: the group-rebuild closure is
   recorded first so rollback runs it {e after} the per-tuple inner
   inverses, i.e. against the restored inner materialization. *)
let apply_grouped_delta ?journal g view (delta : Delta.t) =
  (match journal with
  | None -> ()
  | Some j -> Resilience.Journal.record_restore_fn j (fun () -> Grouped.rebuild g));
  let on_inner =
    Option.map
      (fun j t c -> Resilience.Journal.update j (Grouped.inner g) t c)
      journal
  in
  let outer, groups_touched, rescans = Grouped.step ?on_inner g delta in
  apply_view_delta ?journal view outer;
  (outer, groups_touched, rescans)

(* Differential maintenance of one view against a netted update set whose
   deletions are already installed: evaluate, then apply the view delta,
   completing the report's timing fields. *)
let maintain_differential ~options ?pool ?journal ?fallback ~decision view ~db
    ~net =
  let t0 = Obs.Clock.now_ns () in
  let delta, report = view_delta ~options ?pool view ~db ~net in
  let t_apply = Obs.Clock.now_ns () in
  let applied, groups_touched, rescans =
    Obs.Span.with_span "apply"
      ~args:(fun () ->
        [
          ("target", Obs.Json.Str "view");
          ("view", Obs.Json.Str (View.name view));
        ])
      (fun () ->
        Resilience.Fault.point "apply";
        match View.grouped view with
        | None ->
          apply_view_delta ?journal view delta;
          (delta, 0, 0)
        | Some g -> apply_grouped_delta ?journal g view delta)
  in
  let now = Obs.Clock.now_ns () in
  let report =
    {
      report with
      delta_inserts = Relation.total applied.Delta.inserts;
      delta_deletes = Relation.total applied.Delta.deletes;
      groups_touched;
      rescans;
      apply_ns = now - t_apply;
      total_ns = now - t0;
      advisor = decision;
      fallback;
      delta = Some applied;
    }
  in
  record_report report;
  (match decision with
  | Some d ->
    Advisor.record ~view:report.view_name ~used:Advisor.Differential
      ~actual_ns:report.total_ns d
  | None -> ());
  report

(* Certified self-maintenance: the delta comes from the net effect plus
   the current materialization alone.  The whole evaluation runs under the
   base-relation read probe — a certificate bug surfaces as a loud
   [Self_maintain.Base_read_detected], never as silent corruption. *)
let maintain_self_maintain ?journal ~decision view ~net =
  let t0 = Obs.Clock.now_ns () in
  let plan =
    match View.self_maintain view with
    | Some plan -> plan
    | None ->
      invalid_arg
        (Printf.sprintf "maintain_self_maintain: view %s has no certificate"
           (View.name view))
  in
  let rows =
    List.fold_left
      (fun acc (_, (inserts, deletes)) ->
        acc + List.length inserts + List.length deletes)
      0 net
  in
  let drained =
    List.fold_left
      (fun acc (_, (_, deletes)) -> acc + List.length deletes)
      0 net
  in
  let t_eval = Obs.Clock.now_ns () in
  let delta, reads =
    Obs.Span.with_span "eval"
      ~args:(fun () ->
        [
          ("view", Obs.Json.Str (View.name view));
          ("strategy", Obs.Json.Str "self_maintain");
        ])
      (fun () ->
        Resilience.Fault.point "eval";
        Database.probe_reads (fun () ->
            Self_maintain.delta plan ~contents:(View.contents view) ~net))
  in
  if reads > 0 then
    raise (Self_maintain.Base_read_detected { view = View.name view; reads });
  let eval_ns = Obs.Clock.now_ns () - t_eval in
  let t_apply = Obs.Clock.now_ns () in
  Obs.Span.with_span "apply"
    ~args:(fun () ->
      [
        ("target", Obs.Json.Str "view");
        ("view", Obs.Json.Str (View.name view));
      ])
    (fun () ->
      Resilience.Fault.point "apply";
      apply_view_delta ?journal view delta);
  let now = Obs.Clock.now_ns () in
  let report =
    {
      (empty_report ~view_name:(View.name view) ~strategy_used:Self_maintain) with
      screen_rules =
        (if drained > 0 then [ (keyed_drain_rule_id, drained) ] else []);
      rows_evaluated = rows;
      delta_inserts = Relation.total delta.Delta.inserts;
      delta_deletes = Relation.total delta.Delta.deletes;
      eval_ns;
      apply_ns = now - t_apply;
      total_ns = now - t0;
      advisor = decision;
      delta = Some delta;
    }
  in
  record_report report;
  (match decision with
  | Some d ->
    Advisor.record ~view:report.view_name ~used:Advisor.Self_maintain
      ~actual_ns:report.total_ns d
  | None -> ());
  report

let maintain_recompute ?journal ?(want_delta = false) ~decision view ~db =
  let t0 = Obs.Clock.now_ns () in
  (* Dependent views consume the recompute as a differential input, so
     the pre-state is copied only when someone will read the delta. *)
  let before =
    if want_delta then Some (Relation.copy (View.contents view)) else None
  in
  Obs.Span.with_span "recompute"
    ~args:(fun () -> [ ("view", Obs.Json.Str (View.name view)) ])
    (fun () ->
      Resilience.Fault.point "recompute";
      (match journal with
      | None -> ()
      | Some j -> Resilience.Journal.record_restore_fn j (View.checkpoint view));
      View.recompute view db);
  let total_ns = Obs.Clock.now_ns () - t0 in
  let report =
    {
      (empty_report ~view_name:(View.name view) ~strategy_used:Recompute) with
      total_ns;
      advisor = decision;
      delta =
        Option.map
          (fun b -> Delta.between ~before:b ~after:(View.contents view))
          before;
    }
  in
  record_report report;
  (match decision with
  | Some d ->
    Advisor.record ~view:report.view_name ~used:Advisor.Recompute
      ~actual_ns:total_ns d
  | None -> ());
  report
