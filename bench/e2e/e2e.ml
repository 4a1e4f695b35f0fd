(* The untraced run: set-up, the timed closed-loop commit stream with
   periodic reads, the crash, recovery of directory copies, and the
   correctness gate.  The engine is driven only through its public
   functions; generating its inputs is never timed. *)

open Relalg
module Manager = Ivm.Manager
module View = Ivm.View
module W = Workloads

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let copy_file src dst =
  let bytes = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc bytes)

let file_size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

type env = {
  w : W.t;
  p : W.params;
  seed : int;
  tmp : string;  (** temporary directory, removed at exit *)
  pristine : Database.t;  (** the scenario before any commit *)
  columns : Workload.Generate.column list;  (** of [orders] *)
  mutable failures : string list;
}

let fail env fmt =
  Printf.ksprintf (fun msg -> env.failures <- msg :: env.failures) fmt

let make_env w p ~seed ~tmp =
  let sc =
    Workload.Scenario.orders ~rng:(Workload.Rng.make seed)
      ~customers:w.W.customers ~orders:w.W.orders
  in
  {
    w;
    p;
    seed;
    tmp;
    pristine = sc.Workload.Scenario.db;
    columns = Workload.Scenario.columns_of sc "orders";
    failures = [];
  }

(* The stream has its own seed, derived from the workload seed, so the
   scenario and the updates are independent draws. *)
let generator env =
  Gen.create
    ~seed:((env.seed * 7919) + 1)
    ~relation:"orders" ~columns:env.columns
    (Database.find env.pristine "orders")

let config env dir =
  Durability.Config.make
    ~fsync:(Durability.Config.Every env.p.W.fsync_every)
    ~checkpoint_every:env.p.W.checkpoint_every dir

let define_views mgr (w : W.t) =
  List.iter
    (fun (v : W.view) ->
      ignore
        (Manager.define_view mgr ~name:v.W.name ~mode:v.W.mode
           ~options:W.options v.W.expr))
    w.W.views

(* A manager over a fresh copy of the scenario with every view defined:
   the untimed set-up in front of each recovery. *)
let fresh_manager env ?durability () =
  let mgr =
    Manager.create ~domains:W.domains ?durability
      (Database.copy env.pristine)
  in
  define_views mgr env.w;
  mgr

(* What a reader does every [read_every] update tuples: bring every view
   current (deferred views drain their pending deltas) and scan it.
   Returns the time the refresh took. *)
let read mgr (w : W.t) =
  let t0 = Timer.now () in
  ignore (Manager.refresh_all mgr);
  let refresh_ns = Timer.now () - t0 in
  List.iter
    (fun (v : W.view) ->
      ignore
        (Relation.fold
           (fun _ c acc -> acc + c)
           (View.contents (Manager.view mgr v.W.name))
           0))
    w.W.views;
  refresh_ns

(* Set-up and recovery allocate a whole engine in one go.  Started from
   a compacted heap, they take the same time every time; from whatever
   heap the stream left, their time swings by half between samples,
   depending on where the major cycle stands. *)
let settle_heap () = Gc.compact ()

(* One timed set-up over its own copy of the scenario: Manager.create
   plus every define_view (analysis and materialization) and, when
   durable, the baseline checkpoint. *)
let setup env i =
  let db = Database.copy env.pristine in
  let dir = Filename.concat env.tmp (Printf.sprintf "setup-%d" i) in
  let durability = if env.w.W.durable then Some (config env dir) else None in
  settle_heap ();
  let t0 = Timer.now () in
  let mgr = Manager.create ~domains:W.domains ?durability db in
  define_views mgr env.w;
  if env.w.W.durable then Manager.checkpoint mgr;
  (mgr, db, Option.map (fun _ -> dir) durability, float_of_int (Timer.now () - t0))

(* A crash of the running engine: its image, and the directory recovery
   reads.  A durable engine's is its own (a checkpoint plus the WAL
   tail); an in-memory one leaves what a restart needs, one checkpoint
   of its state written through the durability layer. *)
let crash env mgr dir =
  let image = Manager.capture_state mgr in
  match dir with
  | Some dir -> (dir, image)
  | None ->
    let dir = Filename.concat env.tmp "snapshot" in
    mkdir_p dir;
    Durability.Checkpoint.write
      (Durability.Config.checkpoint_path (config env dir))
      image;
    (dir, image)

(* Copy [files] of the crashed directory, set a manager up over the copy
   (untimed) and time Manager.recover alone.  With [image], the
   recovered state must be bit-identical to it. *)
let recover_copy env ~src ?image ~files i =
  let dir = Filename.concat env.tmp (Printf.sprintf "copy-%d" i) in
  rm_rf dir;
  mkdir_p dir;
  List.iter
    (fun f ->
      let from = Filename.concat src f in
      if Sys.file_exists from then copy_file from (Filename.concat dir f))
    files;
  let mgr = fresh_manager env ~durability:(config env dir) () in
  settle_heap ();
  let t0 = Timer.now () in
  let info = Manager.recover mgr in
  let ns = Timer.now () - t0 in
  Option.iter
    (fun image ->
      match Durability.State.diff (Manager.capture_state mgr) image with
      | None -> ()
      | Some d -> fail env "recovery of copy %d: %s" i d)
    image;
  (mgr, info, ns, dir)

let all_files = [ "wal.bin"; "checkpoint.bin" ]

(* A pause in the commit stream, untimed as a whole: three more timed
   set-ups (thrown away) and one timed recovery of a copy of what a
   crash right now would leave.  Spreading these over the stream keeps
   one slow spell of the machine from owning every sample. *)
let pause env mgr dir i =
  let setup_ns =
    List.init 3 (fun _ ->
        let _, _, setup_dir, ns = setup env i in
        Option.iter rm_rf setup_dir;
        ns)
  in
  let src, image = crash env mgr dir in
  let _, _, recover_ns, copy = recover_copy env ~src ~image ~files:all_files i in
  rm_rf copy;
  (* Leave the heap as the stream had it, not with the engines' garbage. *)
  Gc.full_major ();
  (setup_ns, float_of_int recover_ns)

type stream = {
  mgr : Manager.t;
  db : Database.t;
  dir : string option;  (** the manager's durability directory *)
  gen : Gen.t;
  reference : Oracle.Reference.t;
  setup_ns : float list;
  recover_ns : float list;
  commit_ns : Quantile.samples;  (** measured commits only, in order *)
  maintain_ns : Quantile.samples;
      (** per measured commit: the commit plus any refresh right after it *)
  read_ns : Quantile.samples;
  commits : int;  (** warm-up included *)
  reads : int;
  live_heap_mb : float;
      (** live major heap after the stream, less what the benchmark
          itself held before set-up and its sample buffers *)
  minor_words : float;  (** allocated inside measured commit calls *)
  major_collections : int;  (** during the stream *)
  prefix : (int * Durability.State.t) option;
      (** engine image after the first [n] commits, for the traced run *)
}

(* The closed loop: one client, the next commit sent as soon as the
   previous one returns.  It runs for [seconds] of its own time (pauses
   excluded) and until commit_p99 has its samples; a
   durable stream stops, and pauses, only at crash points: exactly
   [crash_tail] records past a checkpoint. *)
let stream env ~capture_prefix =
  let w = env.w and p = env.p in
  let gen = generator env in
  let reference = Oracle.Reference.create env.pristine in
  List.iter
    (fun (v : W.view) -> Oracle.Reference.define reference ~name:v.W.name v.W.expr)
    w.W.views;
  let inserts = w.W.batch / 2 in
  let deletes = w.W.batch - inserts in
  let commit_ns = Quantile.samples () and read_ns = Quantile.samples () in
  let maintain_ns = Quantile.samples () in
  (* The heap the benchmark holds itself (scenario, reference, generator
     mirror, sample buffers), taken out of the engine's heap figure. *)
  let buffer_words () =
    Quantile.words commit_ns + Quantile.words read_ns + Quantile.words maintain_ns
  in
  let bench_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words - buffer_words ()
  in
  let baseline = bench_words () in
  let mgr, db, dir, first_setup = setup env 0 in
  let commits = ref 0 and reads = ref 0 and since_read = ref 0 in
  let minor = ref 0.0 and prefix = ref None in
  let setups = ref [ first_setup ] and recovers = ref [] and paused = ref 0 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = Timer.now () in
  let stop = ref false in
  while not !stop do
    let txn = Gen.next gen ~inserts ~deletes in
    let w0 = Gc.minor_words () in
    let t0 = Timer.now () in
    let ok =
      match Manager.commit mgr txn with
      | _ -> true
      | exception exn ->
        fail env "commit %d: %s" (!commits + 1) (Printexc.to_string exn);
        false
    in
    let t1 = Timer.now () in
    let w1 = Gc.minor_words () in
    incr commits;
    let measured = !commits > p.W.warmup in
    if measured then begin
      Quantile.push commit_ns (t1 - t0);
      minor := !minor +. (w1 -. w0)
    end;
    let refresh_ns = ref 0 in
    if not ok then
      (* The generator's mirror now disagrees with the engine. *)
      stop := true
    else begin
      Oracle.Reference.apply reference txn;
      since_read := !since_read + w.W.batch;
      if !since_read >= p.W.read_every then begin
        since_read := 0;
        let r0 = Timer.now () in
        refresh_ns := read mgr w;
        let r1 = Timer.now () in
        incr reads;
        if measured then Quantile.push read_ns (r1 - r0)
      end;
      if measured then Quantile.push maintain_ns (t1 - t0 + !refresh_ns);
      let elapsed = float_of_int (Timer.now () - start - !paused) /. 1e9 in
      if
        capture_prefix && !prefix = None
        && elapsed >= p.W.trace_share *. p.W.seconds
        && !commits >= p.W.trace_min
      then prefix := Some (!commits, Manager.capture_state mgr);
      let crash_point =
        (not w.W.durable) || !commits mod p.W.checkpoint_every = p.W.crash_tail
      in
      let done_ = List.length !recovers in
      if
        crash_point && done_ < p.W.recoveries
        && elapsed >= (float_of_int done_ +. 0.5) *. p.W.seconds
                      /. float_of_int p.W.recoveries
      then begin
        let t = Timer.now () in
        let s, r = pause env mgr dir (done_ + 1) in
        setups := s @ !setups;
        recovers := r :: !recovers;
        paused := !paused + (Timer.now () - t)
      end;
      let enough =
        elapsed >= p.W.seconds
        && List.length !recovers = p.W.recoveries
        && Quantile.length commit_ns >= p.W.min_commits
      in
      if crash_point && (enough || elapsed >= p.W.max_seconds) then stop := true
    end
  done;
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let engine_words = bench_words () - baseline in
  let prefix =
    match !prefix with
    | None when capture_prefix -> Some (!commits, Manager.capture_state mgr)
    | p -> p
  in
  {
    mgr;
    db;
    dir;
    gen;
    reference;
    setup_ns = List.rev !setups;
    recover_ns = List.rev !recovers;
    commit_ns;
    maintain_ns;
    read_ns;
    commits = !commits;
    reads = !reads;
    live_heap_mb =
      float_of_int engine_words *. float_of_int (Sys.word_size / 8) /. 1048576.0;
    minor_words = !minor;
    major_collections = major;
    prefix;
  }

(* Steady-state bytes written per update tuple under this flush policy:
   one WAL record per commit plus one checkpoint per [checkpoint_every]
   commits, both read off the files at the crash point. *)
let storage_bytes_per_update env dir =
  let c = config env dir in
  let wal = file_size (Durability.Config.wal_path c) - 8 in
  let checkpoint = file_size (Durability.Config.checkpoint_path c) in
  (float_of_int wal /. float_of_int env.p.W.crash_tail
  +. float_of_int checkpoint /. float_of_int env.p.W.checkpoint_every)
  /. float_of_int env.w.W.batch

(* The checkpoint and recovery layers, timed on the crashed state, each
   probe repeated [trace_repeats] times (medians).  A full recovery is
   checkpoint load, install, WAL replay and the closing checkpoint
   rewrite; recovering a copy holding only the checkpoint leaves replay
   out, so the difference is the replay cost. *)
type probe = {
  capture_ns : float;  (** Manager.capture_state of the crashed engine *)
  write_ns : float;  (** Checkpoint.write of that image *)
  checkpoint_bytes : int;
  load_ns : float;  (** Checkpoint.read *)
  scan_ns : float;  (** Wal.open_: read and validate the log tail *)
  full_ns : float;  (** Manager.recover of a full copy *)
  restore_ns : float;  (** Manager.recover of a checkpoint-only copy *)
  rewrite_ns : float;  (** Manager.checkpoint of the recovered engine *)
  records : int;  (** WAL records replayed by a full recovery *)
}

let probe env s ~src ~image =
  let timed f =
    Quantile.median
      (List.init env.p.W.trace_repeats (fun _ ->
           let t0 = Timer.now () in
           f ();
           float_of_int (Timer.now () - t0)))
  in
  let c = config env src in
  let capture_ns = timed (fun () -> ignore (Manager.capture_state s.mgr)) in
  let path = Filename.concat env.tmp "probe-checkpoint.bin" in
  let write_ns = timed (fun () -> Durability.Checkpoint.write path image) in
  let checkpoint_bytes = file_size path in
  let load_ns =
    timed (fun () ->
        ignore (Durability.Checkpoint.read (Durability.Config.checkpoint_path c)))
  in
  let scan_ns =
    if not (Sys.file_exists (Durability.Config.wal_path c)) then 0.0
    else
      Quantile.median
        (List.init env.p.W.trace_repeats (fun i ->
             let log = Filename.concat env.tmp (Printf.sprintf "scan-%d.bin" i) in
             copy_file (Durability.Config.wal_path c) log;
             let t0 = Timer.now () in
             ignore (Durability.Wal.open_ ~fsync:c.Durability.Config.fsync log);
             float_of_int (Timer.now () - t0)))
  in
  let records = ref 0 and rewrites = ref [] in
  let recover ~files ?image base f =
    Quantile.median
      (List.init env.p.W.trace_repeats (fun i ->
           let mgr, info, ns, dir = recover_copy env ~src ?image ~files (base + i) in
           f mgr info;
           rm_rf dir;
           float_of_int ns))
  in
  let full_ns =
    recover ~files:all_files ~image 0 (fun mgr info ->
        records := info.Manager.records_replayed;
        let t0 = Timer.now () in
        Manager.checkpoint mgr;
        rewrites := float_of_int (Timer.now () - t0) :: !rewrites)
  in
  let restore_ns =
    recover ~files:[ "checkpoint.bin" ] env.p.W.trace_repeats (fun _ _ -> ())
  in
  {
    capture_ns;
    write_ns;
    checkpoint_bytes;
    load_ns;
    scan_ns;
    full_ns;
    restore_ns;
    rewrite_ns = Quantile.median !rewrites;
    records = !records;
  }

(* The correctness gate, after the crash image was taken: the views
   equal a naive replay of the same stream, every view passes the
   engine's own recompute check, and the generator's mirror equals the
   base relation it drove. *)
let gate env s =
  ignore (Manager.refresh_all s.mgr);
  Oracle.Reference.refresh s.reference;
  List.iter
    (fun (v : W.view) ->
      if
        not
          (Relation.equal
             (Oracle.Reference.contents s.reference v.W.name)
             (View.contents (Manager.view s.mgr v.W.name)))
      then fail env "view %s differs from the reference replay" v.W.name)
    env.w.W.views;
  if not (Manager.all_consistent s.mgr) then
    fail env "Manager.all_consistent is false";
  if not (Gen.matches s.gen (Database.find s.db "orders")) then
    fail env "generator mirror differs from the orders relation";
  if
    not
      (Relation.equal
         (Database.find s.db "customers")
         (Database.find env.pristine "customers"))
  then fail env "customers changed"
