module Manager = Ivm.Manager
module Fault = Resilience.Fault

(* Crash-recovery lockstep: run a fuzz stream against a durable manager
   with fault injection armed over both the maintenance points and the
   WAL kill points; a fault escaping from a WAL point is a simulated
   process death.  At the kill (seed-chosen, since the schedule is the
   fault hash) we optionally tear the last WAL record at an arbitrary
   byte offset, then recover into a fresh manager and require the
   recovered state to be bit-identical — health words, banked pending
   deltas and counters included — to the snapshot taken when that WAL
   position was the durable frontier.  Recovery is then re-run (in
   place, and from a byte-for-byte copy of the directory) to check
   idempotence, and the rest of the stream continues in lockstep
   against a reference rebuilt over the recovered base state. *)

let wal_points =
  [
    "wal-apply";
    "wal-append";
    "wal-fsync";
    "wal-checkpoint";
    "wal-checkpoint-seal";
    "wal-truncate";
  ]

(* The kill schedule.  Stream [seed] dies at one WAL point, so every
   2 * |wal_points| consecutive seeds kill at each point at least once;
   [seed / n] shifts the assignment every [n] seeds, so a point is not
   always drawn with the same fsync, checkpoint and failure policy
   (those follow [seed mod 2] and [seed mod 3]). *)
let kill_point seed =
  let n = List.length wal_points in
  List.nth wal_points ((seed + (seed / n)) mod n)

(* A lower bound on how often a stream of [transactions] commits passes
   [point]: each commit passes [wal-apply] and logs one record; the
   checkpoint points run for the baseline and then every
   [checkpoint_every] records. *)
let passes ~transactions ~checkpoint_every point =
  match point with
  | "wal-checkpoint" | "wal-checkpoint-seal" | "wal-truncate" ->
    1 + if checkpoint_every > 0 then transactions / checkpoint_every else 0
  | _ -> max 1 transactions

type report = {
  crashed : bool;
  crash_point : string option;
  crash_index : int;  (** transaction index of the kill, -1 if none *)
  torn_bytes : int;  (** bytes cut off the last record, 0 if whole *)
  records_replayed : int;
  commits_before_crash : int;
  refreshes : int;
}

let copy_file src dst =
  if Sys.file_exists src then begin
    let content = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc content)
  end

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Truncate the file to [len] bytes — the torn-tail injector. *)
let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let diverged ~index ~view kind detail =
  raise
    (Harness.Diverged
       { Harness.transaction_index = index; view; kind; detail })

(* The durable frontier of [dir]: the last WAL position recovery can
   reach — the checkpoint's covered LSN or the last whole record's,
   whichever is later. *)
let durable_lsn (config : Durability.Config.t) =
  let ckpt_lsn =
    match Durability.Checkpoint.read (Durability.Config.checkpoint_path config)
    with
    | Some st -> st.Durability.State.lsn
    | None -> 0
  in
  let records = Durability.Wal.entries (Durability.Config.wal_path config) in
  List.fold_left (fun acc (lsn, _, _) -> max acc lsn) ckpt_lsn records

(* Expect recovery of [dir] (views re-defined and indexes rebuilt over a
   fresh build of the stream's initial state) to land exactly on
   [expected]. *)
let recover_and_check ~index ~what ~policy (s : Stream.t) config expected =
  let db = Stream.build_db s in
  let mgr =
    Manager.create ~domains:s.Stream.domains ~policy ~durability:config db
  in
  Harness.install mgr s;
  let info = Manager.recover mgr in
  (match Durability.State.diff expected (Manager.capture_state mgr) with
  | None -> ()
  | Some d ->
    diverged ~index ~view:"" Harness.Materialization
      (Printf.sprintf "%s: recovered state diverges: %s" what d));
  (mgr, db, info)

let run ?(fault_rate = 0.05) ~dir (s : Stream.t) =
  let h salt k = Fault.hash_unit ~seed:(s.Stream.seed lxor 0xC4A5) salt k in
  (* Seed-chosen durability parameters, so the corpus covers the fsync
     and checkpoint policy matrix. *)
  let fsync =
    if h "fsync" 0 < 0.5 then Durability.Config.Always
    else Durability.Config.Every (1 + int_of_float (h "fsync-every" 0 *. 4.0))
  in
  let checkpoint_every =
    match s.Stream.seed mod 3 with 0 -> 0 | 1 -> 3 | _ -> 5
  in
  let policy =
    if s.Stream.seed mod 2 = 0 then Resilience.Policy.Abort
    else Resilience.Policy.Quarantine
  in
  let dir2 = dir ^ ".copy" in
  remove_dir dir;
  remove_dir dir2;
  let config = Durability.Config.make ~fsync ~checkpoint_every dir in
  let db = Stream.build_db s in
  let mgr = Manager.create ~domains:s.Stream.domains ~policy ~durability:config db in
  Harness.install mgr s;
  let reference = Reference.create db in
  List.iter
    (fun (spec : Stream.view_spec) ->
      Reference.define reference ~name:spec.Stream.view_name spec.Stream.expr)
    s.Stream.views;
  (* Snapshot of the engine state at every WAL frontier: [snaps.(lsn)]
     is what recovery must reproduce when [lsn] is the last durable
     record.  The kill handler adds the entry for a record that was
     written by the dying operation itself. *)
  let snaps : (int, Durability.State.t) Hashtbl.t = Hashtbl.create 64 in
  let snap () =
    Hashtbl.replace snaps (Manager.wal_lsn mgr) (Manager.capture_state mgr)
  in
  snap ();
  let held = Hashtbl.create 4 in
  Harness.hold reference held s;
  let stats = Harness.fresh_stats () in
  (* Maintenance points fire at [fault_rate]; of the WAL points only the
     stream's [kill_point] fires, once, at a pass it is sure to make. *)
  let point = kill_point s.Stream.seed in
  let pass =
    let n =
      passes
        ~transactions:(List.length s.Stream.transactions)
        ~checkpoint_every point
    in
    int_of_float (h "kill-at" 0 *. float_of_int n)
  in
  Fault.configure ~seed:(s.Stream.seed lxor 0x5EED) ~rate:fault_rate
    ~at:(List.map (fun p -> (p, if p = point then [ pass ] else [])) wal_points)
    ();
  let crash = ref None in
  let commits = ref 0 in
  let continue_from = ref 0 in
  let compare index =
    Harness.compare_states ~skip:(Harness.unhealthy mgr) ~held reference mgr db
      s index
  in
  (try
     List.iteri
       (fun index raw ->
         if Option.is_none !crash then begin
           let txn = Stream.filter_valid db raw in
           let seq_before = Manager.commit_seq mgr in
           let step () =
             (match Manager.commit mgr txn with
             | (_ : Ivm.Maintenance.report list) ->
               incr commits;
               Reference.step reference txn
             | exception Manager.Commit_failed _ ->
               (* Clean abort: the reference does not step, but the
                  abort still consumed a sequence number and logged a
                  record. *)
               ());
             compare index;
             snap ();
             if Harness.refresh_due s index then begin
               (* Each refresh logs a record: snapshot its frontier. *)
               Harness.refresh_deferred ~stats ~index ~on_refresh:snap
                 reference mgr held s ~tolerate:(function
                 | Fault.Injected p -> not (List.mem p wal_points)
                 | _ -> false);
               compare index
             end
           in
           match step () with
           | () -> ()
           | exception Fault.Injected p when List.mem p wal_points ->
             (* Simulated process death, in a commit or a refresh.  If
                the dying operation already wrote its record, the
                in-memory state (complete by then — appends happen
                last) is what recovery must reach; snapshot it under
                that LSN. *)
             Fault.disable ();
             if not (Hashtbl.mem snaps (Manager.wal_lsn mgr)) then snap ();
             crash := Some (p, index, seq_before)
           | exception (Harness.Diverged _ as d) -> raise d
           | exception exn ->
             diverged ~index ~view:"" Harness.Materialization
               ("engine raised: " ^ Printexc.to_string exn)
         end)
       s.Stream.transactions;
     Fault.disable ()
   with exn ->
     Fault.disable ();
     raise exn);
  let crash_point, crash_index, seq_before_crash =
    match !crash with
    | Some (p, i, sb) -> (Some p, i, sb)
    | None -> (None, List.length s.Stream.transactions, 0)
  in
  (* Torn-tail injection: cut the last record at a seed-chosen byte
     offset, simulating a crash mid-append.  Recovery must fall back to
     the preceding durable frontier. *)
  let torn_bytes =
    match List.rev (Durability.Wal.entries (Durability.Config.wal_path config))
    with
    | (_, off, len) :: _ when Option.is_some !crash && h "tear" crash_index < 0.5
      ->
      let keep = 1 + int_of_float (h "tear-at" crash_index *. float_of_int (len - 1)) in
      let keep = min (len - 1) (max 1 keep) in
      truncate_file (Durability.Config.wal_path config) (off + keep);
      len - keep
    | _ -> 0
  in
  (* Freeze a byte-for-byte copy of the directory now: recovery writes
     a closing checkpoint when it replays records (or finds a view the
     checkpoint lacks) and truncates the WAL, so idempotence-from-disk
     must be checked against a copy. *)
  let config2 = Durability.Config.make ~fsync ~checkpoint_every dir2 in
  copy_file
    (Durability.Config.wal_path config)
    (Durability.Config.wal_path config2);
  copy_file
    (Durability.Config.checkpoint_path config)
    (Durability.Config.checkpoint_path config2);
  let target = durable_lsn config in
  let expected =
    match Hashtbl.find_opt snaps target with
    | Some st -> st
    | None ->
      diverged ~index:crash_index ~view:"" Harness.Materialization
        (Printf.sprintf "no snapshot for durable lsn %d" target)
  in
  let mgr2, db2, info =
    recover_and_check ~index:crash_index ~what:"first recovery" ~policy s
      config expected
  in
  (* Idempotence, twice over: recover the same manager again (the tail
     is consumed, the checkpoint on disk must round-trip), and recover
     a third manager from the pre-recovery on-disk image. *)
  let (_ : Manager.recovery) = Manager.recover mgr2 in
  (match Durability.State.diff expected (Manager.capture_state mgr2) with
  | None -> ()
  | Some d ->
    diverged ~index:crash_index ~view:"" Harness.Materialization
      ("in-place re-recovery diverges: " ^ d));
  let _mgr3, _db3, info3 =
    recover_and_check ~index:crash_index ~what:"recovery from copied image"
      ~policy s config2 expected
  in
  if info3.Manager.records_replayed <> info.Manager.records_replayed then
    diverged ~index:crash_index ~view:"" Harness.Materialization
      (Printf.sprintf "replay count not deterministic: %d vs %d"
         info.Manager.records_replayed info3.Manager.records_replayed);
  (* Continue the stream on the recovered manager, faults off, against a
     reference rebuilt over the recovered base state.  If the killed
     attempt's record survived (seq moved past it), its transaction is
     consumed; otherwise it is retried. *)
  (match !crash with
  | None -> ()
  | Some _ ->
    continue_from :=
      (if info.Manager.last_seq > seq_before_crash then crash_index + 1
       else crash_index));
  let reference2 = Reference.create db2 in
  List.iter
    (fun (spec : Stream.view_spec) ->
      Reference.define reference2 ~name:spec.Stream.view_name spec.Stream.expr)
    s.Stream.views;
  (* A recovered deferred view holds what it held at the durable
     frontier, which the state check above has already verified. *)
  Hashtbl.reset held;
  List.iter
    (fun name ->
      Hashtbl.replace held name
        (Relalg.Relation.copy (Ivm.View.contents (Manager.view mgr2 name))))
    (Harness.deferred s);
  List.iteri
    (fun index raw ->
      if index >= !continue_from && Option.is_some !crash then begin
        let txn = Stream.filter_valid db2 raw in
        (match Manager.commit mgr2 txn with
        | (_ : Ivm.Maintenance.report list) -> Reference.step reference2 txn
        | exception exn ->
          diverged ~index ~view:"" Harness.Materialization
            ("post-recovery commit raised: " ^ Printexc.to_string exn));
        Harness.compare_states ~skip:(Harness.unhealthy mgr2) ~held reference2
          mgr2 db2 s index;
        if Harness.refresh_due s index then begin
          Harness.refresh_deferred ~stats ~index reference2 mgr2 held s;
          Harness.compare_states ~skip:(Harness.unhealthy mgr2) ~held
            reference2 mgr2 db2 s index
        end
      end)
    s.Stream.transactions;
  (* End of stream: heal or repair what the faults left behind and
     refresh every deferred view, then the whole state must agree with
     the oracle. *)
  let last = max 0 (List.length s.Stream.transactions - 1) in
  List.iter
    (fun name ->
      if not (Manager.heal mgr2 name) then ignore (Manager.repair mgr2 name))
    (Harness.unhealthy mgr2);
  Reference.refresh reference2;
  Harness.refresh_deferred ~stats ~index:last reference2 mgr2 held s;
  Harness.compare_states reference2 mgr2 db2 s last;
  if not (Manager.all_consistent mgr2) then
    diverged ~index:last ~view:"" Harness.Health
      "all_consistent false after recovery";
  remove_dir dir;
  remove_dir dir2;
  {
    crashed = Option.is_some !crash;
    crash_point;
    crash_index = (match !crash with Some _ -> crash_index | None -> -1);
    torn_bytes;
    records_replayed = info.Manager.records_replayed;
    commits_before_crash = !commits;
    refreshes = stats.Harness.refreshed;
  }

type outcome = {
  streams_run : int;
  crashes : int;
  torn : int;  (** crashes with a torn-tail injection *)
  replayed : int;  (** WAL records replayed across all recoveries *)
  refreshes : int;
  kills : (string * int) list;
  failure : (Stream.t * Harness.divergence) option;
}

let fuzz ?(progress = fun _ -> ()) ?(fault_rate = 0.05) ?(aggregates = true)
    ~dir ~seed ~streams ~transactions ~domains () =
  let rec loop k (o : outcome) =
    if k >= streams then o
    else begin
      let stream =
        Stream.generate ~domains ~aggregates ~seed:(seed + k) ~transactions ()
      in
      let dir = Printf.sprintf "%s-%d" dir k in
      match run ~fault_rate ~dir stream with
      | r ->
        progress (k + 1);
        loop (k + 1)
          {
            o with
            streams_run = k + 1;
            crashes = (o.crashes + if r.crashed then 1 else 0);
            torn = (o.torn + if r.torn_bytes > 0 then 1 else 0);
            replayed = o.replayed + r.records_replayed;
            refreshes = o.refreshes + r.refreshes;
            kills =
              List.map
                (fun (p, n) -> (p, if r.crash_point = Some p then n + 1 else n))
                o.kills;
          }
      | exception Harness.Diverged d ->
        { o with streams_run = k + 1; failure = Some (stream, d) }
    end
  in
  loop 0
    {
      streams_run = 0;
      crashes = 0;
      torn = 0;
      replayed = 0;
      refreshes = 0;
      kills = List.map (fun p -> (p, 0)) wal_points;
      failure = None;
    }

let unkilled o =
  if o.streams_run < 2 * List.length wal_points then []
  else List.filter_map (fun (p, n) -> if n = 0 then Some p else None) o.kills
