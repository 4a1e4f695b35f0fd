(* The traced run: a prefix of the workload's stream replayed through
   the public functions [Manager.commit] and [Manager.refresh] are built
   from, in the same order and with the same undo journaling, each call
   timed from here.  Spans live in memory and are written once, as a
   Chrome trace.  Layers the manager runs outside these calls (heal
   loop, provenance, stats, its own spans) are what the untraced commit
   mean has and this pipeline lacks: the unaccounted remainder. *)

open Relalg
module Manager = Ivm.Manager
module Maintenance = Ivm.Maintenance
module View = Ivm.View
module Delta = Ivm.Delta
module Delta_eval = Ivm.Delta_eval
module Irrelevance = Ivm.Irrelevance
module Grouped = Ivm.Grouped
module Self_maintain = Ivm.Self_maintain
module Advisor = Ivm.Advisor
module Journal = Resilience.Journal
module W = Workloads

type layer = { label : string; mutable ns : int }

let layer label = { label; ns = 0 }

(* The layers a differential drain goes through; commits and refreshes
   each have their own set. *)
type stage = {
  advisor : layer;
  rewind : layer;
  screen : layer;
  row_eval : layer;
  view_apply : layer;
  mutable screened : int;
  mutable dropped : int;
  mutable rows : int;
  mutable words : float;
  mutable groups_touched : int;
  mutable rescans : int;
}

let stage prefix =
  {
    advisor = layer (prefix ^ ".advisor");
    rewind = layer (prefix ^ ".rewind");
    screen = layer (prefix ^ ".screen");
    row_eval = layer (prefix ^ ".row_eval");
    view_apply = layer (prefix ^ ".view_apply");
    screened = 0;
    dropped = 0;
    rows = 0;
    words = 0.0;
    groups_touched = 0;
    rescans = 0;
  }

type layers = {
  net : layer;
  base_apply : layer;
  commit : stage;
  pool_seq : layer;
  pool_pooled : layer;
  self_maintain : layer;
  recompute : layer;
  accumulate : layer;
  wal_encode : layer;
  wal_append : layer;
  wal_fsync : layer;
  refresh : stage;
}

type counts = {
  mutable commits : int;
  mutable refreshes : int;
  mutable tasks : int;
  mutable recomputes : int;
  mutable journal_bytes : int;
  mutable journal_entries : int;
  mutable wal_bytes : int;
  mutable probed : int;  (** commits in the pool probe *)
}

type entry = {
  spec : W.view;
  view : View.t;
  parents : string list;
  mutable pending : (string * Delta.t) list;
}

type t = {
  db : Database.t;
  catalog : Database.t;
  pool : Exec.Pool.t;
  entries : entry list;
  wal : Durability.Wal.t option;
  l : layers;
  c : counts;
  mutable measuring : bool;
  mutable spans : Obs.Span.t list;
  mutable span_count : int;
}

(* Enough for a few thousand commits in Perfetto without a huge file. *)
let max_spans = 40_000

let span p ~name ~depth ~args t0 t1 =
  if p.span_count < max_spans then begin
    p.spans <-
      {
        Obs.Span.name;
        cat = "bench";
        start_ns = t0 - Timer.epoch;
        dur_ns = t1 - t0;
        depth;
        domain = 0;
        args;
      }
      :: p.spans;
    p.span_count <- p.span_count + 1
  end

let time p l f =
  let t0 = Timer.now () in
  let r = f () in
  let t1 = Timer.now () in
  if p.measuring then l.ns <- l.ns + (t1 - t0);
  span p ~name:l.label ~depth:1 ~args:[] t0 t1;
  r

(* Set-up as [Manager.define_view] does it: lint, then define (compile,
   minimize, materialize) against a catalog holding the base relations
   by reference and every earlier view's contents by name. *)
let define db (w : W.t) =
  let catalog = Database.create () in
  List.iter
    (fun n -> Database.register catalog n (Database.find db n))
    (Database.names db);
  let lint = ref 0 and materialize = ref 0 in
  let entries =
    List.fold_left
      (fun acc (v : W.view) ->
        let lookup r = Relation.schema (Database.find catalog r) in
        let t0 = Timer.now () in
        let diagnostics =
          Analysis.Analyzer.run_expr ~view_name:v.W.name ~lookup v.W.expr
        in
        let t1 = Timer.now () in
        if Analysis.Diagnostic.has_errors diagnostics then
          failwith ("the analyzer rejects view " ^ v.W.name);
        let view = View.define ~name:v.W.name ~db:catalog v.W.expr in
        let t2 = Timer.now () in
        lint := !lint + (t1 - t0);
        materialize := !materialize + (t2 - t1);
        Database.register catalog v.W.name (View.contents view);
        let parents =
          List.filter
            (fun n -> List.exists (fun e -> e.spec.W.name = n) acc)
            (Query.Expr.base_names v.W.expr)
        in
        acc @ [ { spec = v; view; parents; pending = [] } ])
      [] w.W.views
  in
  (catalog, entries, !lint, !materialize)

let create ~db ~catalog ~entries ~wal =
  {
    db;
    catalog;
    pool = Exec.Pool.shared ~domains:W.domains;
    entries;
    wal;
    l =
      {
        net = layer "relalg.net";
        base_apply = layer "relalg.base_apply";
        commit = stage "core";
        pool_seq = layer "exec.pool.row_eval_seq";
        pool_pooled = layer "exec.pool.row_eval_pooled";
        self_maintain = layer "core.self_maintain";
        recompute = layer "core.recompute";
        accumulate = layer "core.accumulate";
        wal_encode = layer "durability.wal.encode";
        wal_append = layer "durability.wal.append";
        wal_fsync = layer "durability.wal.fsync";
        refresh = stage "refresh";
      };
    c =
      {
        commits = 0;
        refreshes = 0;
        tasks = 0;
        recomputes = 0;
        journal_bytes = 0;
        journal_entries = 0;
        wal_bytes = 0;
        probed = 0;
      };
    measuring = false;
    spans = [];
    span_count = 0;
  }

let sources view =
  List.sort_uniq String.compare
    (List.map
       (fun (s : Query.Spj.source) -> s.Query.Spj.relation)
       (View.spj view).Query.Spj.sources)

let touches view (net : Transaction.net) =
  List.exists
    (fun r ->
      match List.assoc_opt r net with
      | Some (inserts, deletes) -> inserts <> [] || deletes <> []
      | None -> false)
    (sources view)

let count p f = if p.measuring then f p.c

(* Theorem 4.1 screening of each source's update set: the truth-table
   inputs. *)
let screened_inputs p (s : stage) view ~net =
  List.map
    (fun (src : Query.Spj.source) ->
      let alias = src.Query.Spj.alias in
      let qualified = View.qualified_schema view ~alias in
      let old_part =
        Relation.reschema (Database.find p.catalog src.Query.Spj.relation) qualified
      in
      let delta =
        match List.assoc_opt src.Query.Spj.relation net with
        | None -> None
        | Some sets ->
          let raw = Delta.of_lists qualified sets in
          let screen = View.screen_for view ~alias in
          let kept, (k, out), _ =
            time p s.screen (fun () ->
                Irrelevance.screen_delta_explain ~pool:p.pool screen raw)
          in
          if p.measuring then begin
            s.screened <- s.screened + k + out;
            s.dropped <- s.dropped + out
          end;
          Some kept
      in
      { Delta_eval.alias; old_part; delta })
    (View.spj view).Query.Spj.sources

let eval ?pool view inputs () =
  let o = W.options in
  Delta_eval.eval ~order:o.Maintenance.order ~join_impl:o.Maintenance.join_impl
    ~reuse:o.Maintenance.reuse ?pool ~shard_min:o.Maintenance.shard_min
    ~spj:(View.spj view) ~inputs ()

(* Screening, then the truth-table rows. *)
let view_delta p (s : stage) view ~net =
  let inputs = screened_inputs p s view ~net in
  let w0 = Gc.minor_words () in
  let r = time p s.row_eval (eval ~pool:p.pool view inputs) in
  let w1 = Gc.minor_words () in
  if p.measuring then begin
    s.rows <- s.rows + r.Delta_eval.rows_evaluated;
    s.words <- s.words +. (w1 -. w0)
  end;
  r.Delta_eval.delta

let journaled_apply j state (d : Delta.t) =
  Relation.iter (fun t c -> Journal.update j state t c) d.Delta.inserts;
  Relation.iter (fun t c -> Journal.update j state t (-c)) d.Delta.deletes

(* The view side of a delta, journaled per counter update as the
   manager's protected path does; grouped views fold the inner delta
   through their accumulators first.  Returns the delta the view's
   contents received. *)
let apply_view p (s : stage) j view (d : Delta.t) =
  time p s.view_apply (fun () ->
      match View.grouped view with
      | None ->
        journaled_apply j (View.contents view) d;
        d
      | Some g ->
        Journal.record_restore_fn j (fun () -> Grouped.rebuild g);
        let outer, touched, rescans =
          Grouped.step
            ~on_inner:(fun t c -> Journal.update j (Grouped.inner g) t c)
            g d
        in
        if p.measuring then begin
          s.groups_touched <- s.groups_touched + touched;
          s.rescans <- s.rescans + rescans
        end;
        journaled_apply j (View.contents view) outer;
        outer)

(* A differential drain of counted input deltas: the deferred refresh,
   and a tower child consuming its parent's delta.  The composed
   insertions are taken out of the catalog while the truth table reads
   the old state, and put back afterwards. *)
let drain p (s : stage) j e pending =
  let expand r =
    List.concat_map (fun (t, c) -> List.init c (fun _ -> t)) (Relation.elements r)
  in
  let net =
    Transaction.of_sets
      (List.map
         (fun (relation, (d : Delta.t)) ->
           (relation, (expand d.Delta.inserts, expand d.Delta.deletes)))
         pending)
  in
  ignore (time p s.advisor (fun () -> Advisor.decide e.view ~db:p.catalog ~net));
  let removed =
    time p s.rewind (fun () ->
        List.concat_map
          (fun (relation, (inserts, _)) ->
            let r = Database.find p.catalog relation in
            List.map
              (fun t ->
                Relation.remove r t;
                (r, t))
              inserts)
          net)
  in
  Fun.protect
    ~finally:(fun () ->
      time p s.rewind (fun () -> List.iter (fun (r, t) -> Relation.add r t) removed))
    (fun () -> apply_view p s j e.view (view_delta p s e.view ~net))

let accumulate p e (net : Transaction.net) =
  let relations = sources e.view in
  List.iter
    (fun (relation, sets) ->
      if List.mem relation relations then begin
        let incoming =
          Delta.of_lists (Relation.schema (Database.find p.catalog relation)) sets
        in
        let composed =
          match List.assoc_opt relation e.pending with
          | None -> incoming
          | Some first -> Delta.compose ~first ~second:incoming
        in
        e.pending <- (relation, composed) :: List.remove_assoc relation e.pending
      end)
    net

(* What a tower child consumes: its parents' applied deltas of this
   commit, plus the base net for base sources it reads directly. *)
let child_inputs p applied e (net : Transaction.net) =
  List.filter_map
    (fun relation ->
      match Hashtbl.find_opt applied relation with
      | Some d -> Some (relation, d)
      | None when List.mem relation e.parents -> None
      | None -> (
        match List.assoc_opt relation net with
        | Some ((inserts, deletes) as sets) when inserts <> [] || deletes <> [] ->
          Some
            ( relation,
              Delta.of_lists
                (Relation.schema (Database.find p.catalog relation))
                sets )
        | Some _ | None -> None))
    (sources e.view)

let resolve p e ~net =
  fst
    (time p p.l.commit.advisor (fun () ->
         Maintenance.resolve_with_decision W.options e.view ~db:p.catalog ~net))

let commit p ~seq txn =
  let t_start = Timer.now () in
  let l = p.l in
  let s = l.commit in
  let net = time p l.net (fun () -> Transaction.net_effect p.db txn) in
  let journal = Journal.create () in
  let resolved =
    List.filter_map
      (fun e ->
        if e.spec.W.mode = Manager.Immediate && e.parents = [] && touches e.view net
        then Some (e, resolve p e ~net)
        else None)
      p.entries
  in
  count p (fun c -> c.tasks <- c.tasks + List.length resolved);
  time p l.base_apply (fun () -> Maintenance.apply_deletes ~journal p.db net);
  let applied = Hashtbl.create 4 in
  let maintained = ref [] in
  let settle e sub (d : Delta.t option) =
    Journal.append ~into:journal sub;
    maintained := e.spec.W.name :: !maintained;
    match d with
    | Some d when not (Delta.is_empty d) -> Hashtbl.replace applied e.spec.W.name d
    | Some _ | None -> ()
  in
  List.iter
    (fun (e, strategy) ->
      match strategy with
      | Maintenance.Recompute -> ()
      | Maintenance.Self_maintain ->
        let sub = Journal.create () in
        let plan = Option.get (View.self_maintain e.view) in
        let d, _reads =
          time p l.self_maintain (fun () ->
              Database.probe_reads (fun () ->
                  Self_maintain.delta plan ~contents:(View.contents e.view) ~net))
        in
        settle e sub (Some (apply_view p s sub e.view d))
      | Maintenance.Differential | Maintenance.Adaptive ->
        let sub = Journal.create () in
        let d = view_delta p s e.view ~net in
        settle e sub (Some (apply_view p s sub e.view d)))
    resolved;
  time p l.base_apply (fun () -> Maintenance.apply_inserts ~journal p.db net);
  let has_dependents e =
    List.exists (fun c -> List.mem e.spec.W.name c.parents) p.entries
  in
  List.iter
    (fun (e, strategy) ->
      if strategy = Maintenance.Recompute then begin
        count p (fun c -> c.recomputes <- c.recomputes + 1);
        let sub = Journal.create () in
        let d =
          time p l.recompute (fun () ->
              Journal.record_restore_fn sub (View.checkpoint e.view);
              let before =
                if has_dependents e then Some (Relation.copy (View.contents e.view))
                else None
              in
              View.recompute e.view p.catalog;
              Option.map
                (fun before -> Delta.between ~before ~after:(View.contents e.view))
                before)
        in
        settle e sub d
      end)
    resolved;
  List.iter
    (fun e ->
      if e.parents <> [] then
        match child_inputs p applied e net with
        | [] -> ()
        | inputs ->
          let sub = Journal.create () in
          settle e sub (Some (drain p s sub e inputs)))
    p.entries;
  List.iter
    (fun e ->
      if e.spec.W.mode = Manager.Deferred then
        time p l.accumulate (fun () -> accumulate p e net))
    p.entries;
  count p (fun c ->
      c.commits <- c.commits + 1;
      c.journal_bytes <- c.journal_bytes + Journal.bytes journal;
      c.journal_entries <- c.journal_entries + Journal.entries journal);
  Option.iter
    (fun wal ->
      let record =
        Durability.Record.Commit
          {
            seq;
            heals = [];
            net;
            outcomes =
              List.rev_map
                (fun name -> (name, Durability.Record.Applied))
                !maintained;
          }
      in
      ignore
        (time p l.wal_encode (fun () ->
             let b = Buffer.create 256 in
             Durability.Record.encode b record;
             b));
      let before = Durability.Wal.size wal in
      ignore (time p l.wal_append (fun () -> Durability.Wal.append wal record));
      time p l.wal_fsync (fun () -> Durability.Wal.maybe_sync wal);
      count p (fun c -> c.wal_bytes <- c.wal_bytes + Durability.Wal.size wal - before))
    p.wal;
  span p ~name:"commit" ~depth:0
    ~args:[ ("seq", Obs.Json.Int seq) ]
    t_start (Timer.now ())

let refresh p =
  let t_start = Timer.now () in
  List.iter
    (fun e ->
      if e.spec.W.mode = Manager.Deferred && e.pending <> [] then begin
        ignore (drain p p.l.refresh (Journal.create ()) e e.pending);
        e.pending <- []
      end)
    p.entries;
  count p (fun c -> c.refreshes <- c.refreshes + 1);
  span p ~name:"refresh" ~depth:0 ~args:[] t_start (Timer.now ())

(* What [Exec.Pool] would change: for each transaction, the truth-table
   rows of every base view a commit would maintain differentially,
   evaluated without a pool and then on a two-domain pool from the same
   screened inputs.  Only the base relations take the transaction, so
   the next one finds the state the generator expects; the views go
   stale.  It runs after the replay and its check, because a second
   domain slows the whole process's minor collections and would distort
   every other layer's time. *)
let pool_probe p txns =
  let pooled = Exec.Pool.shared ~domains:2 in
  let measuring = p.measuring in
  p.measuring <- false;
  let timed (l : layer) f =
    let t0 = Timer.now () in
    ignore (f ());
    let t1 = Timer.now () in
    l.ns <- l.ns + (t1 - t0);
    span p ~name:l.label ~depth:1 ~args:[] t0 t1
  in
  List.iter
    (fun txn ->
      let net = Transaction.net_effect p.db txn in
      List.iter
        (fun e ->
          if e.parents = [] && touches e.view net then
            match resolve p e ~net with
            | Maintenance.Differential | Maintenance.Adaptive ->
              let inputs = screened_inputs p p.l.commit e.view ~net in
              timed p.l.pool_seq (eval e.view inputs);
              timed p.l.pool_pooled (eval ~pool:pooled e.view inputs)
            | Maintenance.Recompute | Maintenance.Self_maintain -> ())
        p.entries;
      Transaction.apply p.db net;
      p.c.probed <- p.c.probed + 1)
    txns;
  p.measuring <- measuring

(* First difference between this pipeline and an engine image, or
   [None]: base relations, every view's contents, grouped inner state
   and pending deltas. *)
let diff p (image : Durability.State.t) =
  let differs name a b = if Relation.equal a b then None else Some name in
  let base =
    List.find_map
      (fun (name, r) -> differs ("base " ^ name) r (Database.find p.db name))
      image.Durability.State.relations
  in
  let view e =
    let name = "view " ^ e.spec.W.name in
    match
      List.find_opt
        (fun (vs : Durability.State.view_state) ->
          vs.Durability.State.view = e.spec.W.name)
        image.Durability.State.views
    with
    | None -> Some (name ^ " missing")
    | Some vs ->
      let inner =
        match (vs.Durability.State.grouped, View.grouped e.view) with
        | Some inner, Some g -> differs (name ^ " inner") inner (Grouped.inner g)
        | None, None -> None
        | Some _, None | None, Some _ -> Some (name ^ " grouping")
      in
      let pending =
        let sort = List.sort (fun (a, _, _) (b, _, _) -> compare a b) in
        let ours =
          sort
            (List.map
               (fun (r, (d : Delta.t)) -> (r, d.Delta.inserts, d.Delta.deletes))
               e.pending)
        in
        let theirs = sort vs.Durability.State.pending in
        let same (r, i, d) (r', i', d') =
          r = r' && Relation.equal i i' && Relation.equal d d'
        in
        if List.length ours = List.length theirs && List.for_all2 same ours theirs
        then None
        else Some (name ^ " pending")
      in
      List.find_map Fun.id
        [ differs name vs.Durability.State.contents (View.contents e.view); inner; pending ]
  in
  match base with
  | Some _ as d -> d
  | None -> List.find_map view p.entries
