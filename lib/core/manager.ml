open Relalg

type mode =
  | Immediate
  | Deferred

type stats = {
  commits : int;
  rows_evaluated : int;
  screened_out : int;
  screened_kept : int;
  tuples_inserted : int;
  tuples_deleted : int;
  recomputations : int;
  self_maintained : int;
  maintenance_ns : int;
  advisor_decisions : int;
  advisor_agreements : int;
  predicted_differential_cost : float;
  predicted_recompute_cost : float;
}

let empty_stats =
  {
    commits = 0;
    rows_evaluated = 0;
    screened_out = 0;
    screened_kept = 0;
    tuples_inserted = 0;
    tuples_deleted = 0;
    recomputations = 0;
    self_maintained = 0;
    maintenance_ns = 0;
    advisor_decisions = 0;
    advisor_agreements = 0;
    predicted_differential_cost = 0.0;
    predicted_recompute_cost = 0.0;
  }

let add_report stats (r : Maintenance.report) =
  let used = Maintenance.arm_of_strategy r.Maintenance.strategy_used in
  let count b = if b then 1 else 0 in
  let decisions, agreements, differential_cost, recompute_cost =
    match r.Maintenance.advisor with
    | Some d ->
      (1, count (d.Advisor.choose = used), d.Advisor.differential_cost,
       d.Advisor.recompute_cost)
    | None -> (0, 0, 0.0, 0.0)
  in
  {
    commits = stats.commits + 1;
    rows_evaluated = stats.rows_evaluated + r.Maintenance.rows_evaluated;
    screened_out = stats.screened_out + r.Maintenance.screened_out;
    screened_kept = stats.screened_kept + r.Maintenance.screened_kept;
    tuples_inserted = stats.tuples_inserted + r.Maintenance.delta_inserts;
    tuples_deleted = stats.tuples_deleted + r.Maintenance.delta_deletes;
    recomputations = stats.recomputations + count (used = Advisor.Recompute);
    self_maintained =
      stats.self_maintained + count (used = Advisor.Self_maintain);
    maintenance_ns = stats.maintenance_ns + r.Maintenance.total_ns;
    advisor_decisions = stats.advisor_decisions + decisions;
    advisor_agreements = stats.advisor_agreements + agreements;
    predicted_differential_cost =
      stats.predicted_differential_cost +. differential_cost;
    predicted_recompute_cost = stats.predicted_recompute_cost +. recompute_cost;
  }

type view_health = Durability.State.health =
  | Healthy
  | Quarantined of {
      error : string;
      since : int; (* commit sequence number of the failure *)
      heal_failures : int;
      next_eligible : int;
          (* first commit sequence number at which the self-heal ladder
             may try again (see Resilience.Retry.schedule) *)
    }
  | Disabled of { error : string; since : int; heal_failures : int }

type view_outcome =
  | Rolled_back
  | Faulted of { error : string; backtrace : string }
  | Unreached

exception
  Commit_failed of {
    phase : string;
    error : string;
    backtrace : string;
    outcomes : (string * view_outcome) list;
  }

type entry = {
  view : View.t;
  mode : mode;
  options : Maintenance.options;
  parents : string list;
      (* names of earlier-defined views this one reads; [] for a view
         over base relations only *)
  mutable pending : (string * Delta.t) list;
      (* the bank: relation -> the net of every input not yet seen,
         most recently banked relation first *)
  mutable stats : stats;
  mutable health : view_health;
}

(* Durable (write-ahead logged) manager state.  [tail] holds the
   records found on disk when the log was opened — [recover] replays
   them; a manager over a non-empty log must recover before it may
   commit. *)
type durable = {
  config : Durability.Config.t;
  wal : Durability.Wal.t;
  write_image : Durability.State.t -> unit;
      (* [Checkpoint.write] staged over the checkpoint path, so a
         checkpoint builds no path strings *)
  mutable tail : (int * Durability.Record.t) list;
  mutable needs_recovery : bool;
  mutable appended : bool; (* this manager instance appended a record *)
  mutable baselined : bool; (* a checkpoint file exists on disk *)
  mutable since_checkpoint : int;
}

(* Scripted-replay context, set while [recover] re-runs a logged
   commit: [forced] maps view names to the error string their
   maintenance faulted with live — replay forces them straight back
   into quarantine instead of maintaining them. *)
type replay = { forced : (string * string) list }

(* Raised by replay in place of the originally injected fault; the
   registered printer returns the recorded rendering verbatim, so the
   quarantine a replayed fault produces carries the same [error] string
   the live one did. *)
exception Replayed of string

let () =
  Printexc.register_printer (function
    | Commit_failed { phase; error; outcomes; _ } ->
      Some
        (Printf.sprintf "Manager.Commit_failed(phase %s, %d views: %s)" phase
           (List.length outcomes) error)
    | Replayed msg -> Some msg
    | _ -> None)

type t = {
  db : Database.t;
  catalog : Database.t;
      (* the user's base relations (by reference) plus every view's
         materialization under the view's name: the scope dependent
         views are defined and evaluated in *)
  domains : int;
  pool : Exec.Pool.t;
  policy : Resilience.Policy.t;
  mutable commit_seq : int;
  mutable entries : entry list; (* in definition order *)
  mutable durable : durable option;
  mutable replay : replay option;
}

let replaying mgr = Option.is_some mgr.replay

let forced_error mgr name =
  match mgr.replay with
  | Some r -> List.assoc_opt name r.forced
  | None -> None

(* Base relations join the catalog by reference, so base updates are
   visible through both databases; relations registered into the user's
   database after the manager was created are picked up lazily. *)
let sync_catalog mgr =
  List.iter
    (fun name ->
      if not (Database.mem mgr.catalog name) then
        Database.register mgr.catalog name (Database.find mgr.db name))
    (Database.names mgr.db)

let create ?domains ?(policy = Resilience.Policy.Abort) ?durability db =
  (* Explicit argument beats the IVM_DOMAINS environment override beats
     the sequential default.  Pools come from the process-wide shared
     registry: managers are cheap and numerous (tests create hundreds),
     so they must not own worker domains. *)
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Option.value ~default:1 (Exec.Pool.env_domains ())
  in
  let durable =
    Option.map
      (fun (config : Durability.Config.t) ->
        let wal, tail =
          Durability.Wal.open_ ~fsync:config.Durability.Config.fsync
            (Durability.Config.wal_path config)
        in
        let path = Durability.Config.checkpoint_path config in
        let baselined = Sys.file_exists path in
        {
          config;
          wal;
          write_image = Durability.Checkpoint.write path;
          tail;
          (* Any surviving durable state means a previous incarnation got
             further than we have: recovery must replay it before this
             manager may move. *)
          needs_recovery = tail <> [] || baselined;
          appended = false;
          baselined;
          since_checkpoint = 0;
        })
      durability
  in
  let mgr =
    {
      db;
      catalog = Database.create ();
      domains;
      pool = Exec.Pool.shared ~domains;
      policy;
      commit_seq = 0;
      entries = [];
      durable;
      replay = None;
    }
  in
  sync_catalog mgr;
  mgr

let commit_seq mgr = mgr.commit_seq
let database mgr = mgr.db

let entry_opt mgr name =
  List.find_opt (fun e -> String.equal (View.name e.view) name) mgr.entries

exception Rejected of Analysis.Diagnostic.t list

let define_view mgr ~name ?(mode = Immediate)
    ?(options = Maintenance.default_options) ?(force = false) ?(keys = []) expr
    =
  if Option.is_some (entry_opt mgr name) then
    invalid_arg (Printf.sprintf "Manager.define_view: %S already exists" name);
  (match mgr.durable with
  | Some d when d.appended ->
    (* The WAL's Commit records name views by assuming the definition
       set is fixed; a view defined mid-log could not be replayed. *)
    invalid_arg
      (Printf.sprintf
         "Manager.define_view: %S — durable managers must define every \
          view before the first logged commit"
         name)
  | Some _ | None -> ());
  sync_catalog mgr;
  (* Views resolve their sources in the catalog, so a source name may be
     an earlier-defined view: that makes this definition a dependent
     (child) view, maintained from its parents' committed deltas. *)
  let parents =
    List.sort_uniq String.compare
      (List.filter
         (fun n -> Option.is_some (entry_opt mgr n))
         (Query.Expr.base_names expr))
  in
  if mode = Deferred && parents <> [] then
    invalid_arg
      (Printf.sprintf
         "Manager.define_view: %S reads views (%s) and cannot be Deferred — \
          parent deltas flow only through immediate commits"
         name
         (String.concat ", " parents));
  List.iter
    (fun p ->
      if (Option.get (entry_opt mgr p)).mode = Deferred then
        invalid_arg
          (Printf.sprintf
             "Manager.define_view: %S reads deferred view %S — only \
              immediate views can feed dependents"
             name p))
    parents;
  (* Lint before materializing: a rejected definition should not pay for a
     full evaluation.  The analyzer sees the same tableau-minimized form
     that View.define maintains.  [view_name] arms the IVM062 cycle check:
     a definition can only reference already-registered names, so the one
     representable cycle is a self-reference. *)
  let lookup relation = Relation.schema (Database.find mgr.catalog relation) in
  let diagnostics =
    Analysis.Analyzer.run_expr ~view_name:name ~keys ~lookup expr
  in
  if (not force) && Analysis.Diagnostic.has_errors diagnostics then
    raise (Rejected diagnostics);
  let view = View.define ~keys ~name ~db:mgr.catalog expr in
  Database.register mgr.catalog name (View.contents view);
  mgr.entries <-
    mgr.entries
    @ [
        {
          view;
          mode;
          options;
          parents;
          pending = [];
          stats = empty_stats;
          health = Healthy;
        };
      ];
  view

let entry mgr name =
  match entry_opt mgr name with
  | Some e -> e
  | None -> raise Not_found

let create_index mgr ~relation ~attrs =
  let r = Database.find mgr.db relation in
  let positions =
    Array.of_list (List.map (Schema.position (Relation.schema r)) attrs)
  in
  ignore (Relation.index r ~positions)

let view mgr name = (entry mgr name).view
let stats mgr name = (entry mgr name).stats

(* ------------------------------------------------------------------ *)
(* Durability: state capture/restore and the WAL append path.          *)

(* An image of everything recovery must restore: base relations, every
   materialization (inner state of grouped views included), banked
   pending deltas, health, and the (seq, lsn) position.  It shares the
   live relations, so it is only good until the next mutation:
   [write_checkpoint] encodes it on the spot, [capture_state] copies it.
   Per-view stats are observability, not state, and are deliberately
   not durable. *)
let wal_lsn mgr =
  match mgr.durable with
  | Some d -> Durability.Wal.last_lsn d.wal
  | None -> 0

let live_state mgr =
  sync_catalog mgr;
  {
    Durability.State.seq = mgr.commit_seq;
    lsn = wal_lsn mgr;
    relations =
      List.map
        (fun name -> (name, Database.find mgr.db name))
        (Database.names mgr.db);
    views =
      List.map
        (fun e ->
          {
            Durability.State.view = View.name e.view;
            health = e.health;
            contents = View.contents e.view;
            grouped = Option.map Grouped.inner (View.grouped e.view);
            pending =
              List.map
                (fun (relation, (d : Delta.t)) ->
                  (relation, d.Delta.inserts, d.Delta.deletes))
                e.pending;
          })
        mgr.entries;
  }

let capture_state mgr = Durability.State.copy (live_state mgr)

(* Restore a captured image in place.  [Relation.assign] overwrites the
   live relations through their existing handles, so the catalog (and
   any dependent view reading through it) stays wired.  Views the
   checkpoint does not know were defined after it was written — over
   exactly the state it captures — so recomputing them against the
   restored state reproduces their definition-time contents. *)
let install_state mgr (st : Durability.State.t) =
  sync_catalog mgr;
  List.iter
    (fun (name, src) ->
      match Database.find mgr.db name with
      | into -> Relation.assign ~into ~src
      | exception Not_found ->
        invalid_arg
          (Printf.sprintf
             "Manager.recover: checkpoint names unknown base relation %S"
             name))
    st.Durability.State.relations;
  List.iter
    (fun (vs : Durability.State.view_state) ->
      match entry_opt mgr vs.Durability.State.view with
      | None ->
        invalid_arg
          (Printf.sprintf "Manager.recover: checkpoint names undefined view %S"
             vs.Durability.State.view)
      | Some e ->
        (match (View.grouped e.view, vs.Durability.State.grouped) with
        | Some g, Some inner ->
          Relation.assign ~into:(Grouped.inner g) ~src:inner;
          Grouped.rebuild g
        | None, None -> ()
        | Some _, None | None, Some _ ->
          invalid_arg
            (Printf.sprintf
               "Manager.recover: view %S disagrees with the checkpoint about \
                being grouped"
               vs.Durability.State.view));
        Relation.assign ~into:(View.contents e.view)
          ~src:vs.Durability.State.contents;
        e.pending <-
          List.map
            (fun (relation, inserts, deletes) ->
              ( relation,
                {
                  Delta.inserts = Relation.copy inserts;
                  deletes = Relation.copy deletes;
                } ))
            vs.Durability.State.pending;
        e.health <- vs.Durability.State.health)
    st.Durability.State.views;
  let covered =
    List.map (fun (vs : Durability.State.view_state) -> vs.Durability.State.view)
      st.Durability.State.views
  in
  List.iter
    (fun e ->
      if not (List.mem (View.name e.view) covered) then begin
        View.recompute e.view mgr.catalog;
        e.pending <- [];
        e.health <- Healthy
      end)
    mgr.entries;
  mgr.commit_seq <- st.Durability.State.seq

let write_checkpoint mgr d =
  Resilience.Fault.point "wal-checkpoint";
  d.write_image (live_state mgr);
  d.baselined <- true;
  Resilience.Fault.point "wal-truncate";
  let t0 = Obs.Clock.now_ns () in
  Durability.Wal.truncate_to_header d.wal;
  Durability.Checkpoint.observe_stage "truncate" (Obs.Clock.now_ns () - t0);
  d.since_checkpoint <- 0

(* Every durable operation starts by making sure a baseline checkpoint
   of the {e pre-operation} state exists: the first WAL record replays
   on top of it.  (Called before any mutation, so the image is the
   state record 1 starts from.) *)
let ensure_baseline mgr =
  match mgr.durable with
  | Some d when (not d.baselined) && not (replaying mgr) ->
    write_checkpoint mgr d
  | Some _ | None -> ()

let wal_append mgr record =
  match mgr.durable with
  | Some d when not (replaying mgr) ->
    Resilience.Fault.point "wal-append";
    ignore (Durability.Wal.append d.wal record);
    d.appended <- true;
    d.since_checkpoint <- d.since_checkpoint + 1;
    Resilience.Fault.point "wal-fsync";
    Durability.Wal.maybe_sync d.wal;
    let every = d.config.Durability.Config.checkpoint_every in
    if every > 0 && d.since_checkpoint >= every then write_checkpoint mgr d
  | Some _ | None -> ()

let durable mgr = Option.is_some mgr.durable

let require_recovered ~op mgr =
  match mgr.durable with
  | Some d when d.needs_recovery && not (replaying mgr) ->
    failwith
      (Printf.sprintf
         "%s: the durability directory holds state from an earlier run — \
          call Manager.recover first"
         op)
  | Some _ | None -> ()

let pp_stats ppf s =
  Format.fprintf ppf
    "%d commits (%d recomputed, %d self-maintained), %d rows evaluated, \
     screened %d/%d, +%d -%d view tuples, %s maintenance"
    s.commits s.recomputations s.self_maintained s.rows_evaluated
    s.screened_out
    (s.screened_out + s.screened_kept)
    s.tuples_inserted s.tuples_deleted
    (Obs.Summary.fmt_ns s.maintenance_ns);
  if s.advisor_decisions > 0 then
    Format.fprintf ppf
      "; advisor: %d/%d agree, predicted diff=%.0f rec=%.0f units"
      s.advisor_agreements s.advisor_decisions s.predicted_differential_cost
      s.predicted_recompute_cost

let view_names mgr = List.map (fun e -> View.name e.view) mgr.entries
let pending mgr name =
  List.map (fun (r, d) -> (r, Delta.copy d)) (entry mgr name).pending

(* Does this transaction's net effect touch any source of the view?  The
   advisor's prediction is only a calibration sample when there is actual
   maintenance work to measure. *)
let net_touches view net =
  List.exists
    (fun (s : Query.Spj.source) ->
      match List.assoc_opt s.Query.Spj.relation net with
      | Some (inserts, deletes) -> inserts <> [] || deletes <> []
      | None -> false)
    (View.spj view).Query.Spj.sources

(* A logged commit carrying [Faulted] outcomes committed under the
   [Quarantine] policy: its base deltas landed and the faulted views
   were quarantined.  Replay reproduces that semantics even if the
   recovering manager was configured with a different policy — under
   [Abort] the forced fault would otherwise roll the whole record back
   and silently lose its net. *)
let effective_policy mgr =
  match mgr.replay with
  | Some { forced = _ :: _ } -> Resilience.Policy.Quarantine
  | Some { forced = [] } | None -> mgr.policy

(* One provenance view record from a finished maintenance report — plain
   strings only, the obs layer cannot see core's types. *)
let provenance_view (r : Maintenance.report) =
  {
    Obs.Provenance.view = r.Maintenance.view_name;
    strategy = Maintenance.strategy_name r.Maintenance.strategy_used;
    fallback = r.Maintenance.fallback;
    advisor =
      Option.map
        (fun (d : Advisor.decision) ->
          {
            Obs.Provenance.predicted_differential = d.Advisor.differential_cost;
            predicted_recompute = d.Advisor.recompute_cost;
            predicted_self_maintain = d.Advisor.self_maintain_cost;
            chosen = Advisor.arm_name d.Advisor.choose;
          })
        r.Maintenance.advisor;
    screen_rules = r.Maintenance.screen_rules;
    screened_kept = r.Maintenance.screened_kept;
    screened_out = r.Maintenance.screened_out;
    rows_evaluated = r.Maintenance.rows_evaluated;
    delta_inserts = r.Maintenance.delta_inserts;
    delta_deletes = r.Maintenance.delta_deletes;
    groups_touched = r.Maintenance.groups_touched;
    rescans = r.Maintenance.rescans;
    screen_ns = r.Maintenance.screen_ns;
    eval_ns = r.Maintenance.eval_ns;
    apply_ns = r.Maintenance.apply_ns;
    total_ns = r.Maintenance.total_ns;
  }

let provenance_net net =
  List.map
    (fun (relation, (inserts, deletes)) ->
      (relation, (List.length inserts, List.length deletes)))
    net

(* The one provenance-record constructor: [commit], [refresh] and
   [recover] records differ only in these fields. *)
let record_provenance mgr ~kind ~outcome ?failing_phase ?(net = [])
    ?(views = []) ?(events = []) ?journal_bytes total_ns =
  Obs.Provenance.record
    {
      Obs.Provenance.seq = mgr.commit_seq;
      kind;
      outcome;
      failing_phase;
      domains = mgr.domains;
      net;
      views = List.map provenance_view views;
      events;
      journal_bytes;
      total_ns;
    }

(* Differential drain of a view's bank — the snapshot-refresh core,
   shared by deferred [refresh] and the quarantine self-heal.  The
   current base state S is S0 U i_N - d_N relative to the view's last
   consistent point S0; the old parts the truth table needs are
   r° = S0 - d_N = S - i_N, so we temporarily remove the banked
   insertions, evaluate, and put them back.

   The rewind/restore is failure-hardened: restore happens in a single
   [Fun.protect] finally, re-adds exactly the tuples that were removed
   (consuming the list, so it cannot run twice), and debug-asserts that
   rewind + restore was a net no-op on every touched base counter.  The
   view-side delta apply is journaled, so a mid-apply failure rolls the
   materialization back instead of leaving a half-applied delta. *)
(* [drain_deltas mgr e pending] also serves the dependents phase of
   {!commit}, where [pending] holds the parents' committed view deltas:
   those are counted relations, so the net expansion repeats a tuple
   once per count (a unit-count [List.map fst] would silently drop
   multiplicity and desynchronize the child). *)
let drain_deltas mgr e ?(journal = Resilience.Journal.create ()) pending =
  let expand r =
    List.concat_map
      (fun (t, c) -> List.init c (fun _ -> t))
      (Relation.elements r)
  in
  let net =
    Transaction.of_sets
      (List.map
         (fun (relation, (d : Delta.t)) ->
           (relation, (expand d.Delta.inserts, expand d.Delta.deletes)))
         pending)
  in
  (* The drain always runs differentially, but the decision is still
     recorded for calibration. *)
  let decision = Advisor.decide e.view ~db:mgr.catalog ~net in
  let totals =
    List.map
      (fun (relation, _) ->
        (relation, Relation.total (Database.find mgr.catalog relation)))
      net
  in
  let removed = ref [] in
  Fun.protect
    ~finally:(fun () ->
      let rs = !removed in
      removed := [];
      List.iter (fun (r, t) -> Relation.add r t) rs;
      assert (
        List.for_all
          (fun (relation, total) ->
            Relation.total (Database.find mgr.catalog relation) = total)
          totals))
    (fun () ->
      List.iter
        (fun (relation, (inserts, _)) ->
          let r = Database.find mgr.catalog relation in
          List.iter
            (fun t ->
              Relation.remove r t;
              removed := (r, t) :: !removed)
            inserts)
        net;
      match
        Maintenance.maintain_differential ~options:e.options ~pool:mgr.pool
          ~journal ~decision:(Some decision) e.view ~db:mgr.catalog ~net
      with
      | report -> report
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Resilience.Journal.rollback journal;
        Printexc.raise_with_backtrace exn bt)

(* A stale view just brought to a fresh state: its bank is spent and it
   is healthy again; [kind] labels the repair metric. *)
let revive e ~kind =
  e.pending <- [];
  e.health <- Healthy;
  Obs.Metrics.add "ivm_resilience_repairs_total" ~labels:[ ("kind", kind) ] 1

(* After a quarantined view heals (or is repaired) by jumping straight
   to a fresh state, its dependents never saw the jump as a delta; the
   always-correct fallback brings the whole subtree back in one pass,
   in definition order (parents recompute before their children read
   them).  A quarantined or disabled dependent is fixed by the same
   recompute, so it comes back healthy too. *)
let refresh_dependents mgr name =
  let affected = ref [ name ] in
  List.iter
    (fun e ->
      if List.exists (fun p -> List.mem p !affected) e.parents then begin
        affected := View.name e.view :: !affected;
        View.recompute e.view mgr.catalog;
        if e.health = Healthy then e.pending <- []
        else revive e ~kind:"cascade"
      end)
    mgr.entries

(* One self-heal round for a quarantined view: a retry budget
   ([Retry.default]) of differential drains of the pending deltas
   (transient faults clear on retry), then a retry budget of full
   recomputes — the paper's always-correct fallback, which also absorbs
   corruption the differential path cannot explain.  A round that
   exhausts both budgets counts one heal failure and pushes the next
   automatic attempt [Retry.heal_delay] commits out (the backoff ladder
   of [Retry.default_schedule]); its [rounds] failures disable the view
   until an explicit [repair].  Explicit [heal]/[consistent] calls
   bypass the backoff gate — only the commit-start auto-heal honours
   it. *)
let heal_entry mgr e =
  match e.health with
  | Healthy -> true
  | Disabled _ -> false
  | Quarantined _
    when List.exists
           (fun pe ->
             List.mem (View.name pe.view) e.parents && pe.health <> Healthy)
           mgr.entries ->
    (* Draining this child's banked inputs would read a stale parent
       (and the inputs may be missing the parent deltas that were never
       produced).  Stay quarantined without consuming heal budget: the
       parent's own heal recomputes the whole subtree
       ([refresh_dependents]) and marks this view healthy. *)
    false
  | Quarantined q ->
    Obs.Span.with_span "heal"
      ~args:(fun () -> [ ("view", Obs.Json.Str (View.name e.view)) ])
      (fun () ->
        let finish report =
          e.stats <- add_report e.stats report;
          revive e ~kind:"self_heal";
          (* The heal moved this view without emitting a delta; dependents
             must follow. *)
          refresh_dependents mgr (View.name e.view);
          true
        in
        let differential =
          if e.pending = [] then
            (* Stale by an unknown amount (no recorded deltas): only a
               recompute can help. *)
            Error (Not_found, Printexc.get_callstack 0)
          else
            Resilience.Retry.run ~label:"heal-differential"
              Resilience.Retry.default (fun () -> drain_deltas mgr e e.pending)
        in
        match differential with
        | Ok report -> finish report
        | Error _ -> (
          match
            Resilience.Retry.run ~label:"heal-recompute"
              Resilience.Retry.default (fun () ->
                Maintenance.maintain_recompute ~decision:None e.view
                  ~db:mgr.catalog)
          with
          | Ok report -> finish report
          | Error (err, _) ->
            let schedule = Resilience.Retry.default_schedule in
            let error = Printexc.to_string err and since = q.since in
            let heal_failures = q.heal_failures + 1 in
            e.health <-
              (if heal_failures >= schedule.Resilience.Retry.rounds then
                 Disabled { error; since; heal_failures }
               else
                 Quarantined
                   {
                     error;
                     since;
                     heal_failures;
                     next_eligible =
                       mgr.commit_seq + 1
                       + Resilience.Retry.heal_delay schedule
                           ~failures:heal_failures;
                   });
            false))

(* One heal round plus the health transition it made, if any — what the
   WAL logs so recovery can reproduce it: a success or a consumed
   failure round.  Shared by the commit-start auto-heal (which logs the
   transitions inside its [Commit] record) and explicit [heal] (which
   logs a standalone [Heal] record). *)
let heal_transition mgr e =
  let before = e.health in
  let healed = heal_entry mgr e in
  ( healed,
    if before <> e.health then
      Some
        {
          Durability.Record.view = View.name e.view;
          healed;
          health = e.health;
        }
    else None )

let heal_logged mgr e =
  ensure_baseline mgr;
  let healed, change = heal_transition mgr e in
  Option.iter
    (fun change ->
      wal_append mgr (Durability.Record.Heal { seq = mgr.commit_seq; change }))
    change;
  healed

(* ------------------------------------------------------------------ *)
(* Commit: Algorithm 5.1 as stages over one attempt record.            *)
(*   auto-heal -> net -> plan -> base deletes -> differential and      *)
(*   self-maintain tasks -> base inserts -> recompute tasks ->         *)
(*   dependents -> finish (or abort)                                   *)

(* Everything one commit attempt accumulates.  Provenance wants the
   events and the reports of views that finished, so even an aborted
   commit's record shows what completed before the failing phase; the
   WAL wants the auto-heal transitions and each participating view's
   outcome — exactly one [Commit] record lands per attempt (the abort
   path logs heals + an empty net).  The mutable lists are
   newest-first. *)
type attempt = {
  net : Transaction.net;
  journal : Resilience.Journal.t;
  heals : Durability.Record.health_change list; (* in definition order *)
  resolved :
    (entry * Maintenance.strategy * Advisor.decision * string option) list;
      (* the base views taking part: strategy, decision and the
         self-maintain fallback reason *)
  applied : (string, Delta.t) Hashtbl.t;
      (* view -> the non-empty delta this commit applied to it *)
  t_start : int;
  mutable events : Obs.Provenance.event list;
  mutable ok : (entry * Maintenance.report) list;
  mutable quarantined : (entry * view_health * Durability.Record.outcome) list;
}

(* One view's maintenance in this commit, run against its own
   sub-journal; [cost] is the advisor's prediction in its units. *)
type task = {
  entry : entry;
  sub : Resilience.Journal.t;
  cost : float;
  maintain : unit -> Maintenance.report;
}

let event att ~phase ~kind detail =
  att.events <- { Obs.Provenance.phase; kind; detail } :: att.events

(* Durable start of an attempt, then the auto-heal: views quarantined by
   an earlier commit self-heal before this one runs, so a healed view
   takes part in it normally — gated by the backoff ladder's
   eligibility point.  Replay skips both: the recorded transitions are
   re-applied by [recover] itself. *)
let auto_heal mgr =
  if replaying mgr then []
  else begin
    if Option.is_some mgr.durable then begin
      ensure_baseline mgr;
      (* Crash point before anything moves: a simulated death here
         recovers to the pre-commit state. *)
      Resilience.Fault.point "wal-apply"
    end;
    List.filter_map
      (fun e ->
        match e.health with
        | Quarantined q when mgr.commit_seq + 1 >= q.next_eligible ->
          snd (heal_transition mgr e)
        | Healthy | Quarantined _ | Disabled _ -> None)
      mgr.entries
  end

(* Resolve strategies against the pre-state, before any part of the net
   effect is installed.  Only immediate, healthy views the transaction
   actually touches take part: untouched views skip maintenance
   entirely (their report and stats are unchanged), and quarantined
   views are already stale — their share of the net accumulates for the
   self-heal instead.  The advisor runs for every participant — also
   under forced strategies — so the cost model gathers calibration data
   on every commit.  Dependent (child) views never join the base phases:
   their input is their parents' committed deltas, which only exist
   after the parents have been maintained — the dependents stage. *)
let plan mgr net =
  List.filter_map
    (fun e ->
      match (e.mode, e.health) with
      | Immediate, Healthy when e.parents = [] && net_touches e.view net ->
        let strategy, decision =
          Maintenance.resolve_with_decision e.options e.view ~db:mgr.catalog
            ~net
        in
        (* Provenance wants to know when a requested self-maintenance
           could not run on this commit. *)
        let fallback =
          match e.options.Maintenance.strategy with
          | Maintenance.Self_maintain ->
            Maintenance.self_maintain_fallback e.view ~net
          | _ -> None
        in
        Some (e, strategy, decision, fallback)
      | (Immediate | Deferred), (Healthy | Quarantined _ | Disabled _) -> None)
    mgr.entries

(* Per-view outcomes for [Commit_failed]: what each resolved view was
   doing when the commit died — a view that finished any earlier task is
   rolled back, not unreached — plus a failing dependent, which is not
   among the resolved base views. *)
let outcomes att ~failures =
  let outcome e =
    match List.find_opt (fun (f, _, _) -> f == e) failures with
    | Some (_, err, bt) ->
      Faulted
        {
          error = Printexc.to_string err;
          backtrace = Printexc.raw_backtrace_to_string bt;
        }
    | None ->
      if List.exists (fun (o, _) -> o == e) att.ok then Rolled_back
      else Unreached
  in
  let resolved = List.map (fun (e, _, _, _) -> e) att.resolved in
  List.map
    (fun e -> (View.name e.view, outcome e))
    (resolved
    @ List.filter_map
        (fun (e, _, _) -> if List.memq e resolved then None else Some e)
        failures)

(* A failure anywhere in the pipeline rolls the whole commit back to the
   exact pre-commit state and raises [Commit_failed]. *)
let abort mgr att ~phase ~error ~bt ~failures =
  let journal_bytes = Resilience.Journal.bytes att.journal in
  Obs.Span.with_span "rollback"
    ~args:(fun () -> [ ("phase", Obs.Json.Str phase) ])
    (fun () -> Resilience.Journal.rollback att.journal);
  Obs.Metrics.add "ivm_resilience_rollbacks_total"
    ~labels:[ ("scope", "commit") ]
    1;
  event att ~phase ~kind:"rollback"
    (Printf.sprintf "commit journal rolled back (%d bytes)" journal_bytes);
  event att ~phase ~kind:"abort" (Printexc.to_string error);
  record_provenance mgr ~kind:"commit" ~outcome:"aborted" ~failing_phase:phase
    ~net:(provenance_net att.net)
    ~views:(List.rev_map snd att.ok)
    ~events:(List.rev att.events) ~journal_bytes
    (Obs.Clock.now_ns () - att.t_start);
  (* Post-mortem to disk while the failure context is still whole: the
     dump carries this aborted record (failing phase included) plus the
     ring of commits that led up to it. *)
  ignore (Resilience.Flight.dump ~reason:("commit-failed-" ^ phase));
  (* The aborted attempt still consumed heal rounds and a sequence
     number; its record carries those and nothing else. *)
  wal_append mgr
    (Durability.Record.Commit
       { seq = mgr.commit_seq; heals = att.heals; net = []; outcomes = [] });
  raise
    (Commit_failed
       {
         phase;
         error = Printexc.to_string error;
         backtrace = Printexc.raw_backtrace_to_string bt;
         outcomes = outcomes att ~failures;
       })

(* Install one half of the net effect into the base relations; a
   failure there aborts the commit. *)
let apply_base mgr att ~phase
    (apply : ?journal:Resilience.Journal.t -> Database.t -> _ -> unit) =
  match apply ~journal:att.journal mgr.db att.net with
  | () -> ()
  | exception error ->
    let bt = Printexc.get_raw_backtrace () in
    abort mgr att ~phase ~error ~bt ~failures:[]

(* Banked as quarantined at [finish]; until then a view stays as healthy
   as it was, so an aborted commit leaves health untouched. *)
let quarantine mgr att e err outcome =
  att.quarantined <-
    ( e,
      Quarantined
        {
          error = Printexc.to_string err;
          since = mgr.commit_seq;
          heal_failures = 0;
          (* A fresh quarantine is eligible for its first heal on the very
             next commit; backoff starts after that first round fails. *)
          next_eligible = mgr.commit_seq + 1;
        },
      outcome )
    :: att.quarantined

let quarantined_now att e = List.exists (fun (q, _, _) -> q == e) att.quarantined

(* The one per-view task runner, base views and dependents alike. *)
let run_task mgr t =
  match
    (match forced_error mgr (View.name t.entry.view) with
    | Some err ->
      (* Scripted replay: this view faulted live; reproduce the recorded
         quarantine instead of maintaining. *)
      raise (Replayed err)
    | None -> ());
    Resilience.Fault.point "task";
    t.maintain ()
  with
  | report -> Ok report
  | exception err -> Error (err, Printexc.get_raw_backtrace ())

(* Settle a stage's task results in submission order.  This is the only
   code that acts on the failure policy: a success merges its
   sub-journal into the commit's; a failure joins the commit-wide
   rollback once every sibling has settled ([Abort] — its sub-journal
   joins the main journal so the global rollback undoes this view's
   partial work too), or rolls back its own sub-journal and quarantines
   the view while its siblings commit ([Quarantine]). *)
let settle mgr att ~phase results =
  let merge sub = Resilience.Journal.append ~into:att.journal sub in
  let failures =
    List.fold_left
      (fun failures (t, result) ->
        let name = View.name t.entry.view in
        match (result, effective_policy mgr) with
        | Ok (report : Maintenance.report), _ ->
          merge t.sub;
          (match report.Maintenance.delta with
          | Some d when not (Delta.is_empty d) ->
            Hashtbl.replace att.applied name d
          | Some _ | None -> ());
          att.ok <- (t.entry, report) :: att.ok;
          failures
        | Error (err, bt), Resilience.Policy.Abort ->
          merge t.sub;
          (t.entry, err, bt) :: failures
        | Error (err, _), Resilience.Policy.Quarantine ->
          Obs.Span.with_span "rollback"
            ~args:(fun () -> [ ("view", Obs.Json.Str name) ])
            (fun () -> Resilience.Journal.rollback t.sub);
          Obs.Metrics.add "ivm_resilience_rollbacks_total"
            ~labels:[ ("scope", "view") ]
            1;
          event att ~phase ~kind:"view-rollback" name;
          event att ~phase ~kind:"quarantine"
            (name ^ ": " ^ Printexc.to_string err);
          quarantine mgr att t.entry err
            (Durability.Record.Faulted (Printexc.to_string err));
          failures)
      [] results
  in
  match List.rev failures with
  | [] -> ()
  | (_, error, bt) :: _ as failures -> abort mgr att ~phase ~error ~bt ~failures

(* Task-granularity threshold, in the advisor's tuple-touch cost units
   (~10-50 ns each after calibration): consecutive view tasks predicted
   cheaper than this are coalesced into one pool submission, so a
   transaction touching many tiny views pays submission overhead once
   per bundle instead of once per view — the per-task overhead E18
   showed dominating.  A task with a big predicted cost still travels
   alone. *)
let coalesce_threshold = 20_000

(* One base view's task.  Self-maintained views share the differential
   stage (both need the deletions-applied, insertions-pending base state
   — the self-maintained task only to leave it untouched, which the read
   probe inside [maintain_self_maintain] enforces).  A recompute yields
   no delta unless asked; parents of dependent views ask, so the
   dependents stage has something to consume. *)
let base_task mgr att (e, strategy, (d : Advisor.decision), fallback) =
  let sub = Resilience.Journal.create () in
  let decision = Some d in
  let task cost maintain = { entry = e; sub; cost; maintain } in
  match strategy with
  | Maintenance.Differential | Maintenance.Adaptive ->
    task d.Advisor.differential_cost (fun () ->
        Maintenance.maintain_differential ~options:e.options ~pool:mgr.pool
          ~journal:sub ?fallback ~decision e.view ~db:mgr.catalog ~net:att.net)
  | Maintenance.Self_maintain ->
    task
      (Option.value ~default:d.Advisor.differential_cost
         d.Advisor.self_maintain_cost)
      (fun () ->
        Maintenance.maintain_self_maintain ~journal:sub ~decision e.view
          ~net:att.net)
  | Maintenance.Recompute ->
    let want_delta =
      List.exists (fun c -> List.mem (View.name e.view) c.parents) mgr.entries
    in
    task d.Advisor.recompute_cost (fun () ->
        Maintenance.maintain_recompute ~journal:sub ~want_delta ~decision
          e.view ~db:mgr.catalog)

(* Fan a stage's tasks out over the pool: once deletions are installed
   each task only reads base relations and writes its own view's
   materialization (through its own sub-journal), so tasks are
   data-independent.  Every task runs to a result — one failing view
   must not abandon its siblings' futures — and journal merging, stats
   and health transitions stay on the committing domain, in definition
   order, after the barrier, which keeps commit fully deterministic. *)
let run_tasks mgr att ~phase views =
  let tasks = List.map (base_task mgr att) views in
  let results =
    List.concat
      (Exec.Pool.map_list mgr.pool
         (List.map (run_task mgr))
         (Exec.Pool.coalesce
            ~cost:(fun t -> int_of_float (Float.max 0.0 (Float.min t.cost 1e15)))
            ~threshold:coalesce_threshold tasks))
  in
  settle mgr att ~phase (List.combine tasks results)

(* A view's inputs this commit, in name order: the applied delta of
   each parent, and the net of each base relation it reads.  These are
   shared (every child and [att.applied] read a parent's delta), so
   only [bank] may keep them, by banking into the view's own deltas. *)
let inputs mgr att e =
  List.filter_map
    (fun relation ->
      match Hashtbl.find_opt att.applied relation with
      | Some d -> Some (relation, d)
      | None ->
        if List.mem relation e.parents then None
        else (
          match List.assoc_opt relation att.net with
          | Some (inserts, deletes) when inserts <> [] || deletes <> [] ->
            let schema = Relation.schema (Database.find mgr.catalog relation) in
            Some (relation, Delta.of_lists schema (inserts, deletes))
          | Some _ | None -> None))
    (List.sort_uniq String.compare
       (List.map
          (fun (s : Query.Spj.source) -> s.Query.Spj.relation)
          (View.spj e.view).Query.Spj.sources))

(* Bank inputs a view will not see now — a deferred view until its
   refresh, a stale one until its self-heal — into its bank, each
   relation's in place ([Delta.bank]), the most recently banked
   relation first. *)
let bank e inputs =
  List.iter
    (fun (relation, (d : Delta.t)) ->
      let into =
        match List.assoc_opt relation e.pending with
        | Some into -> into
        | None -> Delta.empty (Relation.schema d.Delta.inserts)
      in
      Delta.bank ~into d;
      e.pending <- (relation, into) :: List.remove_assoc relation e.pending)
    inputs

(* Dependents stage: each view over views consumes its parents'
   committed deltas of this commit (and the base net, for mixed
   definitions), exactly once, in definition order — a parent is always
   defined (hence maintained) before its children, so a grandchild sees
   its parent's delta from this same pass.  The drain rewinds the
   already-applied insertions, so the truth table evaluates against the
   parents' pre-commit state.  Sequential on the committing domain: the
   rewind mutates shared catalog relations, and the chain through a
   tower is inherently ordered.

   A view that missed this commit — unhealthy before it, or quarantined
   during it — is stale.  A healthy child of such a view cannot be
   maintained — the parent delta it needs was never produced — and
   whatever it holds is stale the moment the parent is, so staleness
   cascades down the tower: the child quarantines too and the parent's
   heal recomputes the subtree. *)
let maintain_dependents mgr att =
  let stale name =
    let e = entry mgr name in
    e.health <> Healthy || quarantined_now att e
  in
  List.iter
    (fun e ->
      if e.parents <> [] then begin
        let inputs = inputs mgr att e in
        match List.filter stale e.parents with
        | _ :: _ as stale_parents ->
          bank e inputs;
          if e.health = Healthy then begin
            let detail =
              Printf.sprintf "%s: stale parent %s" (View.name e.view)
                (String.concat ", " stale_parents)
            in
            event att ~phase:"dependents" ~kind:"quarantine" detail;
            (* A cascade quarantine re-emerges organically from the
               replayed parents; the record is informational. *)
            quarantine mgr att e (Failure detail)
              (Durability.Record.Cascade detail)
          end
        | [] when inputs = [] -> ()
        | [] ->
          if e.health = Healthy then begin
            let sub = Resilience.Journal.create () in
            let t =
              {
                entry = e;
                sub;
                cost = 0.0;
                maintain = (fun () -> drain_deltas mgr e ~journal:sub inputs);
              }
            in
            settle mgr att ~phase:"dependents" [ (t, run_task mgr t) ]
          end;
          (* Already stale, or quarantined just now: bank this commit's
             inputs for the self-heal drain instead of maintaining on top
             of a rolled-back state. *)
          if e.health <> Healthy || quarantined_now att e then bank e inputs
      end)
    mgr.entries

(* The whole pipeline succeeded (or degraded to per-view quarantines):
   only now do stats and health transitions land, so an aborted commit
   leaves them untouched. *)
let finish mgr att =
  let ok = List.rev att.ok and quarantined = List.rev att.quarantined in
  List.iter (fun (e, report) -> e.stats <- add_report e.stats report) ok;
  List.iter
    (fun (e, health, _) ->
      e.health <- health;
      Obs.Metrics.add "ivm_resilience_quarantines_total"
        ~labels:[ ("view", View.name e.view) ]
        1)
    quarantined;
  (* Deferred views bank the net for their next refresh; quarantined
     views (old and new) bank it for the self-heal's differential drain.
     Dependent views banked their inputs (parent deltas included) in the
     dependents stage already. *)
  List.iter
    (fun e ->
      if e.parents = [] then
        match (e.mode, e.health) with
        | Deferred, _ | Immediate, Quarantined _ -> bank e (inputs mgr att e)
        | Immediate, (Healthy | Disabled _) -> ())
    mgr.entries;
  let journal_bytes = Resilience.Journal.bytes att.journal in
  Obs.Metrics.observe "ivm_resilience_journal_bytes" journal_bytes;
  let reports = List.map snd ok in
  record_provenance mgr ~kind:"commit"
    ~outcome:(if quarantined = [] then "committed" else "degraded")
    ~net:(provenance_net att.net) ~views:reports
    ~events:(List.rev att.events) ~journal_bytes
    (Obs.Clock.now_ns () - att.t_start);
  if quarantined <> [] then ignore (Resilience.Flight.dump ~reason:"quarantine");
  (* Durability point: the commit exists once its record is framed,
     checksummed and (policy permitting) fsynced.  Group commit is the
     [Every n] fsync policy — netted concurrent writers already share
     this one record, and [n] such records share one sync. *)
  wal_append mgr
    (Durability.Record.Commit
       {
         seq = mgr.commit_seq;
         heals = att.heals;
         net = att.net;
         outcomes =
           List.map
             (fun (e, _) -> (View.name e.view, Durability.Record.Applied))
             ok
           @ List.map (fun (e, _, outcome) -> (View.name e.view, outcome))
               quarantined;
       });
  reports

let commit mgr txn =
  Obs.Span.with_span "commit"
    ~args:(fun () ->
      [
        ("views", Obs.Json.Int (List.length mgr.entries));
        ("domains", Obs.Json.Int mgr.domains);
      ])
    (fun () ->
      let t_start = Obs.Clock.now_ns () in
      require_recovered ~op:"Manager.commit" mgr;
      (* Net before anything moves: an invalid transaction raises with no
         baseline written, no view healed and no sequence number used. *)
      let net =
        Obs.Span.with_span "net"
          ~args:(fun () -> [ ("ops", Obs.Json.Int (List.length txn)) ])
          (fun () -> Transaction.net_effect mgr.db txn)
      in
      let heals = auto_heal mgr in
      mgr.commit_seq <- mgr.commit_seq + 1;
      let att =
        {
          net;
          journal = Resilience.Journal.create ();
          heals;
          resolved = plan mgr net;
          applied = Hashtbl.create 8;
          t_start;
          events = [];
          ok = [];
          quarantined = [];
        }
      in
      let recompute, incremental =
        List.partition
          (fun (_, strategy, _, _) -> strategy = Maintenance.Recompute)
          att.resolved
      in
      apply_base mgr att ~phase:"apply-deletes" Maintenance.apply_deletes;
      run_tasks mgr att ~phase:"maintain" incremental;
      apply_base mgr att ~phase:"apply-inserts" Maintenance.apply_inserts;
      run_tasks mgr att ~phase:"recompute" recompute;
      maintain_dependents mgr att;
      finish mgr att)

let refresh mgr name =
  let e = entry mgr name in
  match e.mode with
  | Immediate -> None
  | Deferred ->
    require_recovered ~op:"Manager.refresh" mgr;
    if e.pending = [] then
      Some
        (Maintenance.empty_report ~view_name:name
           ~strategy_used:Maintenance.Differential)
    else
      Obs.Span.with_span "refresh"
        ~args:(fun () -> [ ("view", Obs.Json.Str name) ])
        (fun () ->
          let t_start = Obs.Clock.now_ns () in
          ensure_baseline mgr;
          let net_sizes =
            List.map
              (fun (relation, (d : Delta.t)) ->
                ( relation,
                  ( Relation.total d.Delta.inserts,
                    Relation.total d.Delta.deletes ) ))
              e.pending
          in
          let report = drain_deltas mgr e e.pending in
          e.pending <- [];
          e.stats <- add_report e.stats report;
          wal_append mgr
            (Durability.Record.Refresh { seq = mgr.commit_seq; view = name });
          record_provenance mgr ~kind:"refresh" ~outcome:"committed"
            ~net:net_sizes ~views:[ report ]
            (Obs.Clock.now_ns () - t_start);
          Some report)

let refresh_all mgr =
  List.filter_map (fun e -> refresh mgr (View.name e.view)) mgr.entries

let health mgr = List.map (fun e -> (View.name e.view, e.health)) mgr.entries
let view_health mgr name = (entry mgr name).health

let heal mgr name = heal_logged mgr (entry mgr name)

let repair mgr name =
  let e = entry mgr name in
  match e.health with
  | Healthy -> false
  | Quarantined _ | Disabled _ ->
    ensure_baseline mgr;
    (* The guaranteed escape hatch: a direct recompute, bypassing the
       instrumented (fault-injectable) maintenance path. *)
    View.recompute e.view mgr.catalog;
    revive e ~kind:"repair";
    refresh_dependents mgr name;
    wal_append mgr
      (Durability.Record.Repair { seq = mgr.commit_seq; view = name });
    true

let consistent mgr name =
  let e = entry mgr name in
  (match e.health with
  | Quarantined _ -> ignore (heal_logged mgr e)
  | Healthy | Disabled _ -> ());
  match e.health with
  | Quarantined _ | Disabled _ -> false
  | Healthy -> (
    match e.mode with
    | Immediate -> View.consistent e.view mgr.catalog
    | Deferred ->
      (* A deferred view is consistent with the state its pending deltas
         rewind to; refreshing first makes it comparable. *)
      ignore (refresh mgr name);
      View.consistent e.view mgr.catalog)

let all_consistent mgr =
  List.for_all (fun e -> consistent mgr (View.name e.view)) mgr.entries

(* ------------------------------------------------------------------ *)
(* Crash recovery: checkpoint restore plus scripted WAL replay.        *)

type recovery = {
  checkpoint_seq : int;
  checkpoint_lsn : int;
  records_replayed : int;
  last_seq : int;
  last_lsn : int;
  torn_bytes : int;
}

let checkpoint mgr =
  match mgr.durable with
  | None -> invalid_arg "Manager.checkpoint: manager has no durability"
  | Some d ->
    require_recovered ~op:"Manager.checkpoint" mgr;
    write_checkpoint mgr d

let txn_of_net (net : Transaction.net) =
  List.concat_map
    (fun (relation, (inserts, deletes)) ->
      List.map (Transaction.insert relation) inserts
      @ List.map (Transaction.delete relation) deletes)
    net

(* Re-apply one recorded health transition.  A successful heal re-runs
   the live heal machinery — deterministic with faults disabled, and it
   reproduces the [refresh_dependents] cascade the live heal caused.  A
   failed round mutated nothing but the health word (the fault fires
   before any maintenance write), so replay just installs it. *)
let replay_heal mgr (h : Durability.Record.health_change) =
  let e = entry mgr h.Durability.Record.view in
  if h.Durability.Record.healed then begin
    if not (heal_entry mgr e) then
      failwith
        (Printf.sprintf
           "Manager.recover: replayed heal of %S did not converge"
           h.Durability.Record.view)
  end
  else e.health <- h.Durability.Record.health

let replay_record mgr (record : Durability.Record.t) =
  let in_replay forced f =
    mgr.replay <- Some { forced };
    Fun.protect ~finally:(fun () -> mgr.replay <- None) f
  in
  match record with
  | Durability.Record.Commit { seq; heals; net; outcomes } ->
    (* The live commit bumped [seq - 1] to [seq]; rewind so the replayed
       one lands on the same number (and [since]/[next_eligible] words
       computed from it match bit for bit). *)
    mgr.commit_seq <- seq - 1;
    List.iter (replay_heal mgr) heals;
    let forced =
      List.filter_map
        (function
          | view, Durability.Record.Faulted err -> Some (view, err)
          | _, (Durability.Record.Applied | Durability.Record.Cascade _) ->
            None)
        outcomes
    in
    in_replay forced (fun () ->
        match commit mgr (txn_of_net net) with
        | (_ : Maintenance.report list) -> ()
        | exception Commit_failed _ ->
          (* The live attempt aborted too (empty net, empty outcomes):
             its surviving effects — heals and the sequence bump — are
             already in place. *)
          ())
  | Durability.Record.Heal { seq; change } ->
    mgr.commit_seq <- seq;
    replay_heal mgr change
  | Durability.Record.Repair { seq; view } ->
    mgr.commit_seq <- seq;
    in_replay [] (fun () -> ignore (repair mgr view))
  | Durability.Record.Refresh { seq; view } ->
    mgr.commit_seq <- seq;
    in_replay [] (fun () -> ignore (refresh mgr view))

(* Why recovery must write a closing checkpoint, or [None] when the
   restored state is exactly the checkpoint it read: nothing replayed,
   and every base relation and view of this manager named in it. *)
let closing_checkpoint_reason mgr ckpt ~records_replayed =
  match ckpt with
  | None -> Some "no checkpoint"
  | Some _ when records_replayed > 0 ->
    Some (Printf.sprintf "%d records replayed" records_replayed)
  | Some (st : Durability.State.t) -> (
    let in_checkpoint name =
      List.exists
        (fun (v : Durability.State.view_state) -> v.view = name)
        st.views
    in
    match
      List.find_opt
        (fun name -> not (List.mem_assoc name st.relations))
        (Database.names mgr.db)
    with
    | Some name ->
      Some (Printf.sprintf "base relation %s is not in the checkpoint" name)
    | None ->
      List.find_map
        (fun e ->
          let name = View.name e.view in
          if in_checkpoint name then None
          else
            Some
              (Printf.sprintf "view %s was defined after the checkpoint" name))
        mgr.entries)

let recover mgr =
  match mgr.durable with
  | None -> invalid_arg "Manager.recover: manager has no durability"
  | Some d when d.appended ->
    failwith
      "Manager.recover: this manager already logged commits — recovery is \
       only valid before the first append"
  | Some d ->
    Obs.Span.with_span "recover" (fun () ->
        let t_start = Obs.Clock.now_ns () in
        (* Replay must be deterministic: whatever fault schedule the
           process was running with does not apply to the past. *)
        Resilience.Fault.disable ();
        let ckpt =
          Durability.Checkpoint.read (Durability.Config.checkpoint_path d.config)
        in
        let t_loaded = Obs.Clock.now_ns () in
        Option.iter (install_state mgr) ckpt;
        let t_installed = Obs.Clock.now_ns () in
        let checkpoint_seq, checkpoint_lsn =
          match ckpt with
          | Some st -> (st.Durability.State.seq, st.Durability.State.lsn)
          | None -> (0, 0)
        in
        (* The truncated log may no longer hold the records the
           checkpoint covers; the LSN counter must still move past
           them. *)
        Durability.Wal.ensure_lsn d.wal checkpoint_lsn;
        let tail =
          List.filter (fun (lsn, _) -> lsn > checkpoint_lsn) d.tail
        in
        List.iter (fun (_, record) -> replay_record mgr record) tail;
        let t_replayed = Obs.Clock.now_ns () in
        let records_replayed = List.length tail in
        let covered = List.length d.tail - records_replayed in
        d.tail <- [];
        d.needs_recovery <- false;
        (* A closing checkpoint bounds the next recovery and covers views
           defined after the old checkpoint, so a second [recover] over
           this directory replays nothing.  When the restored state is
           the checkpoint just read, rewriting it would reproduce the
           same image; only a log still holding records the checkpoint
           covers (a crash between checkpoint and truncation) needs
           cutting back. *)
        let reason = closing_checkpoint_reason mgr ckpt ~records_replayed in
        (match reason with
        | Some _ -> write_checkpoint mgr d
        | None -> if covered > 0 then Durability.Wal.truncate_to_header d.wal);
        let t_end = Obs.Clock.now_ns () in
        let total_ns = t_end - t_start in
        Obs.Metrics.add "ivm_recovery_runs_total" ~labels:[] 1;
        Obs.Metrics.add "ivm_recovery_records_replayed_total" ~labels:[]
          records_replayed;
        Obs.Metrics.observe "ivm_recovery_ns" total_ns;
        let event kind detail =
          { Obs.Provenance.phase = "recover"; kind; detail }
        in
        let events =
          [
            event "checkpoint"
              (Printf.sprintf "restored seq %d (lsn %d)" checkpoint_seq
                 checkpoint_lsn);
            event "replay"
              (Printf.sprintf "%d records replayed to seq %d" records_replayed
                 mgr.commit_seq);
            event "closing-checkpoint"
              (match reason with
              | Some why -> "written: " ^ why
              | None ->
                Printf.sprintf
                  "skipped: state equals the checkpoint; %d covered records \
                   truncated"
                  covered);
            event "layers"
              (Printf.sprintf
                 "load_ns=%d install_ns=%d replay_ns=%d rewrite_ns=%d"
                 (t_loaded - t_start) (t_installed - t_loaded)
                 (t_replayed - t_installed) (t_end - t_replayed));
          ]
          @
          if Durability.Wal.torn_bytes d.wal > 0 then
            [
              event "torn-tail"
                (Printf.sprintf "%d torn bytes truncated"
                   (Durability.Wal.torn_bytes d.wal));
            ]
          else []
        in
        record_provenance mgr ~kind:"recover" ~outcome:"recovered" ~events
          total_ns;
        {
          checkpoint_seq;
          checkpoint_lsn;
          records_replayed;
          last_seq = mgr.commit_seq;
          last_lsn = Durability.Wal.last_lsn d.wal;
          torn_bytes = Durability.Wal.torn_bytes d.wal;
        })
