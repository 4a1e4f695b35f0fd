open Relalg
module Manager = Ivm.Manager
module View = Ivm.View

type kind =
  | Base_relations
  | Materialization
  | Counters
  | Screening
  | Health

type divergence = {
  transaction_index : int;
  view : string;
  kind : kind;
  detail : string;
}

let kind_name = function
  | Base_relations -> "base relations"
  | Materialization -> "materialization"
  | Counters -> "counters"
  | Screening -> "screening"
  | Health -> "health"

let pp_divergence ppf d =
  Format.fprintf ppf "%s divergence on %S after transaction %d: %s"
    (kind_name d.kind) d.view (d.transaction_index + 1) d.detail

exception Diverged of divergence

(* Up to [limit] (tuple, engine count, reference count) entries where the
   two relations disagree, for a readable detail line. *)
let describe_diff ?(limit = 4) engine reference =
  let disagreements = ref [] in
  let note t ce cr =
    if ce <> cr && not (List.mem_assoc t !disagreements) then
      disagreements := (t, (ce, cr)) :: !disagreements
  in
  Relation.iter (fun t ce -> note t ce (Relation.count reference t)) engine;
  Relation.iter (fun t cr -> note t (Relation.count engine t) cr) reference;
  let shown = List.filteri (fun i _ -> i < limit) (List.rev !disagreements) in
  let entries =
    List.map
      (fun (t, (ce, cr)) ->
        Printf.sprintf "%s engine#%d reference#%d" (Stream.tuple_to_string t)
          ce cr)
      shown
  in
  Printf.sprintf "%d vs %d tuples; %s%s" (Relation.cardinal engine)
    (Relation.cardinal reference)
    (String.concat ", " entries)
    (if List.length !disagreements > limit then ", ..." else "")

(* Screening soundness in the pre-transaction state: for every operation
   whose tuple is valid against that state, if the engine's screens drop
   the tuple for every alias of the relation in a view, toggling it must
   leave the reference's from-scratch evaluation of that view unchanged. *)
let check_screening reference mgr (s : Stream.t) index txn =
  let ref_db = Reference.database reference in
  List.iter
    (fun (spec : Stream.view_spec) ->
      if spec.Stream.options.Ivm.Maintenance.screen then begin
        let view = Manager.view mgr spec.Stream.view_name in
        let spj = View.spj view in
        List.iter
          (fun op ->
            let relation, tuple, insert =
              match op with
              | Transaction.Insert (r, t) -> (r, t, true)
              | Transaction.Delete (r, t) -> (r, t, false)
            in
            let valid_in_pre_state =
              let present = Relation.mem (Database.find ref_db relation) tuple in
              if insert then not present else present
            in
            let aliases = Query.Spj.sources_of_relation spj relation in
            if valid_in_pre_state && aliases <> [] then begin
              let engine_irrelevant =
                List.for_all
                  (fun (source : Query.Spj.source) ->
                    not
                      (Ivm.Irrelevance.relevant
                         (View.screen_for view ~alias:source.Query.Spj.alias)
                         tuple))
                  aliases
              in
              if
                engine_irrelevant
                && Reference.tuple_affects reference
                     ~view:spec.Stream.view_name ~relation ~insert tuple
              then
                raise
                  (Diverged
                     {
                       transaction_index = index;
                       view = spec.Stream.view_name;
                       kind = Screening;
                       detail =
                         Printf.sprintf
                           "screens prove %s %s %s %S irrelevant, but it \
                            changes the recomputed view"
                           (if insert then "inserting" else "deleting")
                           (Stream.tuple_to_string tuple)
                           (if insert then "into" else "from")
                           relation;
                     })
            end)
          txn
      end)
    s.Stream.views

type held = (string, Relation.t) Hashtbl.t

(* [skip] names views whose materialization is knowingly stale
   (quarantined): their comparison is deferred until they heal.  [held]
   maps deferred views to what they must hold: the reference's contents
   at their last refresh. *)
let compare_states ?(skip = []) ?(held = Hashtbl.create 0) reference mgr db
    (s : Stream.t) index =
  let ref_db = Reference.database reference in
  List.iter
    (fun name ->
      let engine = Database.find db name in
      let oracle = Database.find ref_db name in
      if not (Relation.equal engine oracle) then
        raise
          (Diverged
             {
               transaction_index = index;
               view = name;
               kind = Base_relations;
               detail = describe_diff engine oracle;
             }))
    (Database.names db);
  List.iter
    (fun (spec : Stream.view_spec) ->
      if not (List.mem spec.Stream.view_name skip) then begin
        let engine = View.contents (Manager.view mgr spec.Stream.view_name) in
        let oracle =
          match Hashtbl.find_opt held spec.Stream.view_name with
          | Some contents -> contents
          | None -> Reference.contents reference spec.Stream.view_name
        in
        if not (Relation.equal engine oracle) then
          raise
            (Diverged
               {
                 transaction_index = index;
                 view = spec.Stream.view_name;
                 kind =
                   (if Relation.set_equal engine oracle then Counters
                    else Materialization);
                 detail = describe_diff engine oracle;
               })
      end)
    s.Stream.views

type run_stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable quarantined : int;
  mutable healed : int;
  mutable faults : int;
  mutable refreshed : int;
  mutable refresh_faults : int;
}

let fresh_stats () =
  {
    committed = 0;
    aborted = 0;
    quarantined = 0;
    healed = 0;
    faults = 0;
    refreshed = 0;
    refresh_faults = 0;
  }

let unhealthy mgr =
  List.filter_map
    (fun (name, h) ->
      match h with
      | Manager.Healthy -> None
      | Manager.Quarantined _ | Manager.Disabled _ -> Some name)
    (Manager.health mgr)

let install mgr (s : Stream.t) =
  List.iter
    (fun (spec : Stream.view_spec) ->
      ignore
        (Manager.define_view mgr ~name:spec.Stream.view_name ~force:true
           ~mode:spec.Stream.mode ~options:spec.Stream.options
           ~keys:spec.Stream.keys spec.Stream.expr))
    s.Stream.views;
  List.iter
    (fun (relation, attr) -> Manager.create_index mgr ~relation ~attrs:[ attr ])
    s.Stream.indexes

let deferred (s : Stream.t) =
  List.filter_map
    (fun (spec : Stream.view_spec) ->
      match spec.Stream.mode with
      | Manager.Deferred -> Some spec.Stream.view_name
      | Manager.Immediate -> None)
    s.Stream.views

(* Deferred views refresh after every [k]-th transaction, [k] in 2..5
   hashed from the seed alone, so drawing it changes nothing else. *)
let refresh_due (s : Stream.t) index =
  let u = Resilience.Fault.hash_unit ~seed:s.Stream.seed "refresh" 0 in
  let k = 2 + int_of_float (u *. 4.0) in
  (index + 1) mod k = 0

let hold reference held (s : Stream.t) =
  List.iter
    (fun name ->
      Hashtbl.replace held name
        (Relation.copy (Reference.contents reference name)))
    (deferred s)

let same_bank a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r, (d : Ivm.Delta.t)) (r', (d' : Ivm.Delta.t)) ->
         String.equal r r'
         && Relation.equal d.Ivm.Delta.inserts d'.Ivm.Delta.inserts
         && Relation.equal d.Ivm.Delta.deletes d'.Ivm.Delta.deletes)
       a b

let refresh_deferred ?(tolerate = fun _ -> false) ?(on_refresh = ignore) ~stats
    ~index reference mgr held (s : Stream.t) =
  List.iter
    (fun name ->
      let diverged detail =
        raise
          (Diverged
             {
               transaction_index = index;
               view = name;
               kind = Materialization;
               detail;
             })
      in
      let bank = Manager.pending mgr name in
      match Manager.refresh mgr name with
      | (_ : Ivm.Maintenance.report option) ->
        stats.refreshed <- stats.refreshed + 1;
        Hashtbl.replace held name
          (Relation.copy (Reference.contents reference name));
        if Manager.pending mgr name <> [] then
          diverged "refresh left deltas banked";
        on_refresh ()
      | exception exn when tolerate exn ->
        stats.refresh_faults <- stats.refresh_faults + 1;
        if not (same_bank bank (Manager.pending mgr name)) then
          diverged
            ("a fault escaping refresh changed the banked deltas: "
            ^ Printexc.to_string exn))
    (deferred s)

(* The self-heal ladder's explicit form: heal rounds while the view stays
   quarantined, as many as the engine grants before it disables one.  A
   view that cannot heal yet (a child of a disabled parent) stays
   quarantined without spending budget, hence the bound. *)
let heal_within_ladder mgr name =
  let rec go rounds =
    Manager.heal mgr name
    || rounds > 1
       && (match Manager.view_health mgr name with
          | Manager.Quarantined _ -> true
          | Manager.Healthy | Manager.Disabled _ -> false)
       && go (rounds - 1)
  in
  go Resilience.Retry.default_schedule.Resilience.Retry.rounds

let engine_raised index exn =
  raise
    (Diverged
       {
         transaction_index = index;
         view = "";
         kind = Materialization;
         detail = "engine raised: " ^ Printexc.to_string exn;
       })

let run ?(corrupt = fun _ _ -> ()) ?(fault_rate = 0.0)
    ?(policy = Resilience.Policy.Abort) ?stats (s : Stream.t) =
  let stats = Option.value stats ~default:(fresh_stats ()) in
  let db = Stream.build_db s in
  let mgr = Manager.create ~domains:s.Stream.domains ~policy db in
  install mgr s;
  let reference = Reference.create db in
  List.iter
    (fun (spec : Stream.view_spec) ->
      Reference.define reference ~name:spec.Stream.view_name spec.Stream.expr)
    s.Stream.views;
  let held = Hashtbl.create 4 in
  hold reference held s;
  (* Faults activate only after setup, and deterministically per stream:
     the same stream replays the same fault sequence (at domains = 1;
     parallel interleaving may permute per-point occurrence numbering). *)
  if fault_rate > 0.0 then
    Resilience.Fault.configure ~seed:(s.Stream.seed lxor 0x5EED) ~rate:fault_rate
      ();
  Fun.protect
    ~finally:(fun () ->
      if fault_rate > 0.0 then
        stats.faults <- stats.faults + Resilience.Fault.injected ();
      Resilience.Fault.disable ())
  @@ fun () ->
  match
    List.iteri
      (fun index raw ->
        let txn = Stream.filter_valid db raw in
        check_screening reference mgr s index txn;
        let stale_before = unhealthy mgr in
        (match Manager.commit mgr txn with
        | (_ : Ivm.Maintenance.report list) ->
          stats.committed <- stats.committed + 1;
          let stale = unhealthy mgr in
          stats.quarantined <-
            stats.quarantined
            + List.length
                (List.filter (fun n -> not (List.mem n stale_before)) stale);
          stats.healed <-
            stats.healed
            + List.length
                (List.filter (fun n -> not (List.mem n stale)) stale_before);
          corrupt mgr index;
          (* Every commit outcome is checked against the oracle: on
             success the reference steps and all healthy views must
             agree (quarantined ones are stale by contract — they are
             checked after their heal). *)
          Reference.step reference txn;
          compare_states ~skip:stale ~held reference mgr db s index
        | exception Manager.Commit_failed _ when fault_rate > 0.0 ->
          (* Clean abort: the reference does not step, and the engine
             must be bit-identical to the oracle's pre-commit deep
             copy — base relations and every healthy materialization.
             Without injected faults an abort is an engine bug and falls
             through to the divergence branch below. *)
          stats.aborted <- stats.aborted + 1;
          compare_states ~skip:(unhealthy mgr) ~held reference mgr db s index
        | exception exn -> engine_raised index exn);
        (* A refreshed view must hold the reference's contents; one a
           fault stopped must hold what it held, with the same bank. *)
        if refresh_due s index then begin
          (try
             refresh_deferred ~stats ~index reference mgr held s
               ~tolerate:(function
                 | Resilience.Fault.Injected _ -> fault_rate > 0.0
                 | _ -> false)
           with
          | Diverged _ as d -> raise d
          | exn -> engine_raised index exn);
          compare_states ~skip:(unhealthy mgr) ~held reference mgr db s index
        end)
      s.Stream.transactions;
    let last = List.length s.Stream.transactions - 1 in
    (* End of stream: every quarantined view must self-heal (faults are
       still active — healing is what the retry/recompute ladder is
       for), after which the full state must agree with the oracle. *)
    let stale_at_end = unhealthy mgr in
    (match
       List.find_opt
         (fun name -> not (heal_within_ladder mgr name))
         stale_at_end
     with
    | None -> ()
    | Some name ->
      raise
        (Diverged
           {
             transaction_index = last;
             view = name;
             kind = Health;
             detail = "view failed to self-heal by end of stream";
           }));
    stats.healed <- stats.healed + List.length stale_at_end;
    (* Faults off: every deferred view catches up before the full
       comparison. *)
    Resilience.Fault.disable ();
    refresh_deferred ~stats ~index:last reference mgr held s;
    compare_states reference mgr db s last;
    if not (Manager.all_consistent mgr) then
      raise
        (Diverged
           {
             transaction_index = last;
             view = "";
             kind = Health;
             detail = "all_consistent false at end of stream";
           })
  with
  | () -> None
  | exception Diverged d -> Some d
