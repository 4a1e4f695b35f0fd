(* The fault-tolerant commit pipeline: deterministic fault injection,
   the undo-log journal, bounded retry, transactional abort (torn-commit
   regression), per-view quarantine with self-healing, the disabled
   ladder and explicit repair, the dependents stage of a view tower
   (abort, quarantine, stale-parent cascade), refresh hardening, and the
   commit fast path for untouched views.

   Manager tests pin ~domains:1 so the single failure each scenario
   injects lands deterministically; the multi-domain interleavings are
   covered by the fault-injected oracle properties in test_oracle.ml and
   the tools/check.sh fuzz gates. *)

open Relalg
open Helpers
module Fault = Resilience.Fault
module Journal = Resilience.Journal
module Retry = Resilience.Retry
module Policy = Resilience.Policy
module Manager = Ivm.Manager
module View = Ivm.View

(* Every test that arms injection must disarm it, or it would leak into
   the rest of the suite (the fault state is process-wide). *)
let with_faults ?seed ?only ~rate f =
  Fault.configure ?seed ?only ~rate ();
  Fun.protect ~finally:Fault.disable f

(* ------------------------------------------------------------------ *)
(* Fault points                                                        *)
(* ------------------------------------------------------------------ *)

let fires () =
  match Fault.point "p" with
  | () -> false
  | exception Fault.Injected "p" -> true

let fault_tests =
  [
    quick "inactive by default; rate 0 deactivates" (fun () ->
        Alcotest.(check bool) "off at start" false (Fault.active ());
        Fault.point "p";
        with_faults ~rate:0.0 (fun () ->
            Alcotest.(check bool) "rate 0 is off" false (Fault.active ());
            Fault.point "p"));
    quick "rate 1 fires on every occurrence and counts" (fun () ->
        with_faults ~rate:1.0 (fun () ->
            for _ = 1 to 5 do
              Alcotest.(check bool) "fires" true (fires ())
            done;
            Alcotest.(check int) "counted" 5 (Fault.injected ())));
    quick "same seed, same fault sequence" (fun () ->
        let sequence () =
          with_faults ~seed:7 ~rate:0.3 (fun () ->
              List.init 200 (fun _ -> fires ()))
        in
        let first = sequence () in
        Alcotest.(check (list bool)) "replay identical" first (sequence ());
        let hits = List.length (List.filter Fun.id first) in
        Alcotest.(check bool)
          (Printf.sprintf "%d hits of 200 near rate 0.3" hits)
          true
          (hits > 20 && hits < 120));
    quick "only-filter restricts injection to the named points" (fun () ->
        with_faults ~only:[ "a" ] ~rate:1.0 (fun () ->
            Fault.point "b";
            match Fault.point "a" with
            | () -> Alcotest.fail "filtered point did not fire"
            | exception Fault.Injected "a" -> ()));
    quick "at schedules a point's executions outright" (fun () ->
        let fired name =
          match Fault.point name with
          | () -> false
          | exception Fault.Injected _ -> true
        in
        Fun.protect ~finally:Fault.disable (fun () ->
            Fault.configure ~at:[ ("a", [ 1; 3 ]); ("b", []) ] ~rate:1.0 ();
            Alcotest.(check (list bool))
              "a fires at its executions 1 and 3"
              [ false; true; false; true; false ]
              (List.init 5 (fun _ -> fired "a"));
            Alcotest.(check bool) "b never fires" false (fired "b");
            Alcotest.(check bool) "other points keep the rate" true (fires ());
            Fault.configure ~at:[ ("a", [ 0 ]) ] ~rate:0.0 ();
            Alcotest.(check bool) "active at rate 0" true (fired "a")));
    quick "hash_unit stays in [0, 1)" (fun () ->
        for k = 0 to 999 do
          let u = Fault.hash_unit ~seed:k "point" (k * 17) in
          Alcotest.(check bool) "in range" true (u >= 0.0 && u < 1.0)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  [
    quick "update performs the mutation and rollback undoes it" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        let j = Journal.create () in
        Journal.update j r (Tuple.of_ints [ 2 ]) 1;
        Journal.update j r (Tuple.of_ints [ 1 ]) 1;
        Journal.update j r (Tuple.of_ints [ 1 ]) (-2);
        Alcotest.(check int) "three entries" 3 (Journal.entries j);
        Alcotest.(check bool) "mutations landed" true
          (Relation.mem r (Tuple.of_ints [ 2 ]));
        Alcotest.(check int) "net count" 0 (Relation.count r (Tuple.of_ints [ 1 ]));
        Journal.rollback j;
        check_rel "exact pre-state" (rel [ "A" ] [ [ 1 ] ]) r;
        Alcotest.(check int) "journal drained" 0 (Journal.entries j));
    quick "a rejected update records nothing" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        let j = Journal.create () in
        (match Journal.update j r (Tuple.of_ints [ 9 ]) (-1) with
        | () -> Alcotest.fail "negative count accepted"
        | exception Relation.Negative_count _ -> ());
        Alcotest.(check int) "no entry" 0 (Journal.entries j);
        Journal.rollback j;
        check_rel "untouched" (rel [ "A" ] [ [ 1 ] ]) r);
    quick "record_restore reinstalls the saved relation" (fun () ->
        let original = rel [ "A" ] [ [ 1 ]; [ 2 ] ] in
        let current = ref original in
        let j = Journal.create () in
        Journal.record_restore j
          ~install:(fun saved -> current := saved)
          ~saved:!current;
        current := rel [ "A" ] [ [ 9 ] ];
        Journal.rollback j;
        Alcotest.(check bool) "same relation back" true (!current == original));
    quick "append merges a sub-journal after the parent's entries" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        let main = Journal.create () and sub = Journal.create () in
        Journal.update main r (Tuple.of_ints [ 2 ]) 1;
        Journal.update sub r (Tuple.of_ints [ 3 ]) 1;
        Journal.update sub r (Tuple.of_ints [ 2 ]) 1;
        Journal.append ~into:main sub;
        Alcotest.(check int) "sub emptied" 0 (Journal.entries sub);
        Alcotest.(check int) "main holds all" 3 (Journal.entries main);
        Journal.rollback main;
        check_rel "both undone" (rel [ "A" ] [ [ 1 ] ]) r);
    quick "bytes grows with recorded history" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 2 ] ] in
        let j = Journal.create () in
        Alcotest.(check int) "empty" 0 (Journal.bytes j);
        Journal.update j r (Tuple.of_ints [ 3; 4 ]) 1;
        let after_update = Journal.bytes j in
        Alcotest.(check bool) "update accounted" true (after_update > 0);
        Journal.record_restore j ~install:(fun _ -> ()) ~saved:r;
        Alcotest.(check bool) "restore accounted" true
          (Journal.bytes j > after_update);
        Journal.rollback j);
  ]

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let fast_retry = { Retry.attempts = 3; backoff_ns = 1_000; jitter = 0.5; seed = 1 }

let retry_tests =
  [
    quick "first-try success retries nothing" (fun () ->
        let retries = ref 0 in
        match
          Retry.run ~on_retry:(fun ~attempt:_ _ -> incr retries) fast_retry
            (fun () -> 42)
        with
        | Ok v ->
          Alcotest.(check int) "value" 42 v;
          Alcotest.(check int) "no retries" 0 !retries
        | Error _ -> Alcotest.fail "unexpected failure");
    quick "transient failures clear within the budget" (fun () ->
        let calls = ref 0 in
        let result =
          Retry.run fast_retry (fun () ->
              incr calls;
              if !calls < 3 then failwith "transient";
              !calls)
        in
        (match result with
        | Ok v -> Alcotest.(check int) "succeeded on the last try" 3 v
        | Error _ -> Alcotest.fail "budget should have sufficed");
        Alcotest.(check int) "three calls" 3 !calls);
    quick "exhaustion returns the last failure" (fun () ->
        let attempts_seen = ref [] in
        match
          Retry.run
            ~on_retry:(fun ~attempt _ -> attempts_seen := attempt :: !attempts_seen)
            fast_retry
            (fun () -> failwith "permanent")
        with
        | Ok _ -> Alcotest.fail "cannot succeed"
        | Error (Failure m, _) ->
          Alcotest.(check string) "last error" "permanent" m;
          Alcotest.(check (list int))
            "a retry notification per re-attempt" [ 2; 1 ] !attempts_seen
        | Error _ -> Alcotest.fail "unexpected exception");
  ]

(* ------------------------------------------------------------------ *)
(* Transactional commit (Abort policy)                                 *)
(* ------------------------------------------------------------------ *)

let example_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 5; 2 ]; [ 9; 4 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 2; 7 ]; [ 4; 1 ] ]);
    ]

let join_expr = Query.Expr.(join (base "R") (base "S"))

(* Torn-commit regression.  Sabotage the materialization so the view
   delta's delete underflows mid-apply — after the base deletions have
   landed and sibling work may have run — and check the abort restores
   the exact pre-commit state, sabotage included. *)
let torn_commit () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 db in
  let v = Manager.define_view mgr ~name:"v" join_expr in
  let g = Manager.define_view mgr ~name:"g" Query.Expr.(base "S") in
  Relation.update (View.contents v) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  let saved_v = Relation.copy (View.contents v) in
  let saved_g = Relation.copy (View.contents g) in
  let saved_r = Relation.copy (Database.find db "R") in
  let saved_s = Relation.copy (Database.find db "S") in
  let txn =
    [
      Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]);
      Transaction.insert "S" (Tuple.of_ints [ 9; 9 ]);
    ]
  in
  (match Manager.commit mgr txn with
  | _ -> Alcotest.fail "the sabotaged delete must fail the commit"
  | exception Manager.Commit_failed { phase; outcomes; _ } ->
    Alcotest.(check string) "failed maintaining views" "maintain" phase;
    (match List.assoc "v" outcomes with
    | Manager.Faulted { error; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "underflow reported: %s" error)
        true
        (String.length error > 0)
    | _ -> Alcotest.fail "v should be the faulted view"));
  check_rel "R rolled back" saved_r (Database.find db "R");
  check_rel "S rolled back" saved_s (Database.find db "S");
  check_rel "v rolled back (sabotage preserved)" saved_v (View.contents v);
  check_rel "g rolled back" saved_g (View.contents g);
  Alcotest.(check bool) "nobody was quarantined" true
    (List.for_all (fun (_, h) -> h = Manager.Healthy) (Manager.health mgr));
  Alcotest.(check int) "no stats landed" 0 (Manager.stats mgr "v").Manager.commits

let unprotected_commit_tears () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 ~policy:Policy.Unprotected db in
  let v = Manager.define_view mgr ~name:"v" join_expr in
  Relation.update (View.contents v) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  (match Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]) ] with
  | _ -> Alcotest.fail "must raise"
  | exception Relation.Negative_count _ -> ());
  (* The legacy behaviour this PR protects against: the base deletion
     stays applied even though maintenance died. *)
  Alcotest.(check bool) "base deletion not rolled back" false
    (Relation.mem (Database.find db "R") (Tuple.of_ints [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Quarantine, self-heal, disable, repair                              *)
(* ------------------------------------------------------------------ *)

let quarantine_isolates_and_heals () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 ~policy:Policy.Quarantine db in
  let bad = Manager.define_view mgr ~name:"bad" join_expr in
  let good = Manager.define_view mgr ~name:"good" Query.Expr.(base "S") in
  Relation.update (View.contents bad) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  let txn =
    [
      Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]);
      Transaction.insert "S" (Tuple.of_ints [ 9; 9 ]);
    ]
  in
  let reports = Manager.commit mgr txn in
  Alcotest.(check int) "only the healthy sibling reports" 1 (List.length reports);
  (match Manager.view_health mgr "bad" with
  | Manager.Quarantined q ->
    Alcotest.(check int) "fresh quarantine" 0 q.Manager.heal_failures
  | _ -> Alcotest.fail "bad should be quarantined");
  Alcotest.(check bool) "siblings committed" true
    (Relation.mem (View.contents good) (Tuple.of_ints [ 9; 9 ]));
  Alcotest.(check bool) "base updates committed" false
    (Relation.mem (Database.find db "R") (Tuple.of_ints [ 1; 2 ]));
  Alcotest.(check bool) "net banked for the heal" true
    (Manager.pending mgr "bad" <> []);
  (* The heal's differential drain replays the same underflow, so it has
     to fall through to the recompute rung of the ladder. *)
  Alcotest.(check bool) "heals" true (Manager.heal mgr "bad");
  Alcotest.(check bool) "healthy after heal" true
    (Manager.view_health mgr "bad" = Manager.Healthy);
  check_rel "contents correct after heal"
    (Query.Eval.eval db join_expr)
    (View.contents bad);
  Alcotest.(check bool) "everything consistent" true (Manager.all_consistent mgr)

let self_heal_on_next_commit () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 ~policy:Policy.Quarantine db in
  let bad = Manager.define_view mgr ~name:"bad" join_expr in
  Relation.update (View.contents bad) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  ignore (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]) ]);
  Alcotest.(check bool) "quarantined after the failure" true
    (match Manager.view_health mgr "bad" with
    | Manager.Quarantined _ -> true
    | _ -> false);
  (* The next commit heals first, then maintains the healed view. *)
  ignore (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 2 ]) ]);
  Alcotest.(check bool) "healthy again" true
    (Manager.view_health mgr "bad" = Manager.Healthy);
  check_rel "caught up with both commits"
    (Query.Eval.eval db join_expr)
    (View.contents bad)

let disable_after_exhausted_heals_then_repair () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 ~policy:Policy.Quarantine db in
  ignore (Manager.define_view mgr ~name:"v" join_expr);
  with_faults ~only:[ "eval"; "recompute" ] ~rate:1.0 (fun () ->
      ignore
        (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 1; 2 ]) ]);
      Alcotest.(check bool) "quarantined by the injected fault" true
        (match Manager.view_health mgr "v" with
        | Manager.Quarantined _ -> true
        | _ -> false);
      (* Both heal rungs stay fault-saturated: each round fails, and the
         third failed round disables the view. *)
      for round = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "heal round %d fails" round)
          false (Manager.heal mgr "v")
      done;
      match Manager.view_health mgr "v" with
      | Manager.Disabled q ->
        Alcotest.(check int) "three exhausted rounds" 3 q.Manager.heal_failures
      | _ -> Alcotest.fail "view should be disabled");
  Alcotest.(check bool) "disabled views do not self-heal" false
    (Manager.heal mgr "v");
  Alcotest.(check bool) "consistent is false while disabled" false
    (Manager.consistent mgr "v");
  (* repair bypasses the instrumented path, so it works even under
     saturation; faults are off here anyway. *)
  Alcotest.(check bool) "repair revives" true (Manager.repair mgr "v");
  Alcotest.(check bool) "healthy and correct" true (Manager.consistent mgr "v");
  Alcotest.(check bool) "repair of a healthy view is a no-op" false
    (Manager.repair mgr "v")

(* ------------------------------------------------------------------ *)
(* Dependents: a child view maintained from its parent's delta         *)
(* ------------------------------------------------------------------ *)

(* A fresh durability directory for one test, removed afterwards. *)
let with_wal name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivm-resilience-%s-%d" name (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  clean ();
  Fun.protect ~finally:clean (fun () -> f (Durability.Config.make dir))

(* Per-view outcomes of the newest [Commit] record in the log. *)
let last_commit_outcomes config =
  let _, records =
    Durability.Wal.open_ ~fsync:Durability.Config.Never
      (Durability.Config.wal_path config)
  in
  match
    List.find_map
      (function
        | _, Durability.Record.Commit { outcomes; _ } -> Some outcomes
        | _ -> None)
      (List.rev records)
  with
  | Some outcomes -> outcomes
  | None -> Alcotest.fail "no Commit record in the log"

(* Parent [p] over R and child [c] joining [p] with S, so the child
   takes the parent's committed delta plus any S updates as its input.
   Deleting (1, 2) from R moves (1, 2) out of [p] and (1, 2, 7) out of
   [c]; sabotaging either materialization the way [torn_commit] does
   makes that view's delta underflow. *)
let tower ?durability ~policy () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 ~policy ?durability db in
  let p = Manager.define_view mgr ~name:"p" Query.Expr.(base "R") in
  let c =
    Manager.define_view mgr ~name:"c" Query.Expr.(join (base "p") (base "S"))
  in
  (db, mgr, p, c)

let delete_1_2 = Transaction.delete "R" (Tuple.of_ints [ 1; 2 ])

let quarantined mgr name =
  match Manager.view_health mgr name with
  | Manager.Quarantined _ -> true
  | Manager.Healthy | Manager.Disabled _ -> false

(* R holds (1,2) twice, so each delete takes one copy.  A quarantined
   view banks both deletes and a later one; its differential heal must
   drop every copy. *)
let heal_drops_every_deleted_duplicate () =
  let db =
    db_of [ ("R", counted_rel [ "A"; "B" ] [ ([ 1; 2 ], 2); ([ 3; 4 ], 1) ]) ]
  in
  let mgr = Manager.create ~domains:1 ~policy:Policy.Quarantine db in
  let v =
    Manager.define_view mgr ~name:"v" Query.Expr.(project [ "A"; "B" ] (base "R"))
  in
  let delete row = [ Transaction.delete "R" (Tuple.of_ints row) ] in
  with_faults ~only:[ "task" ] ~rate:1.0 (fun () ->
      ignore (Manager.commit mgr (delete [ 1; 2 ])));
  (* The auto-heals of the next two commits fail, so both bank. *)
  with_faults ~only:[ "eval"; "recompute" ] ~rate:1.0 (fun () ->
      ignore (Manager.commit mgr (delete [ 1; 2 ]));
      ignore (Manager.commit mgr (delete [ 3; 4 ])));
  Alcotest.(check bool) "still quarantined" true (quarantined mgr "v");
  Alcotest.(check bool) "heals" true (Manager.heal mgr "v");
  Alcotest.(check int) "by the differential drain" 0
    (Manager.stats mgr "v").Manager.recomputations;
  Alcotest.(check int) "no tuple left" 0 (Relation.cardinal (View.contents v));
  Alcotest.(check bool) "consistent" true (Manager.consistent mgr "v")

(* A fault while a sharded evaluation queues its rows must surface as
   itself, in the quarantine and in the WAL, whichever row it hits. *)
let sharded_row_fault_reads_as_itself () =
  for seed = 1 to 10 do
    let mgr =
      Manager.create ~domains:2 ~policy:Policy.Quarantine (example_db ())
    in
    ignore
      (Manager.define_view mgr ~name:"v"
         ~options:{ Ivm.Maintenance.default_options with shard_min = 1 }
         join_expr);
    with_faults ~seed ~only:[ "row" ] ~rate:0.5 (fun () ->
        ignore
          (Manager.commit mgr
             [
               Transaction.insert "R" (Tuple.of_ints [ 3; 2 ]);
               Transaction.insert "S" (Tuple.of_ints [ 2; 8 ]);
             ]));
    match Manager.view_health mgr "v" with
    | Manager.Healthy -> ()
    | Manager.Quarantined q | Manager.Disabled q ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (Printexc.to_string (Fault.Injected "row"))
        q.Manager.error
  done

let dependent_failure_aborts () =
  let db, mgr, p, c = tower ~policy:Policy.Abort () in
  Relation.update (View.contents c) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  let saved_r = Relation.copy (Database.find db "R") in
  let saved_s = Relation.copy (Database.find db "S") in
  let saved_p = Relation.copy (View.contents p) in
  let saved_c = Relation.copy (View.contents c) in
  (match Manager.commit mgr [ delete_1_2 ] with
  | _ -> Alcotest.fail "the sabotaged child must fail the commit"
  | exception Manager.Commit_failed { phase; outcomes; _ } ->
    Alcotest.(check string) "failed in the dependents phase" "dependents" phase;
    Alcotest.(check bool) "parent rolled back" true
      (List.assoc "p" outcomes = Manager.Rolled_back);
    (match List.assoc "c" outcomes with
    | Manager.Faulted _ -> ()
    | Manager.Rolled_back | Manager.Unreached ->
      Alcotest.fail "c should be the faulted view"));
  check_rel "R rolled back" saved_r (Database.find db "R");
  check_rel "S rolled back" saved_s (Database.find db "S");
  check_rel "p rolled back" saved_p (View.contents p);
  check_rel "c rolled back (sabotage preserved)" saved_c (View.contents c);
  Alcotest.(check bool) "nobody was quarantined" true
    (List.for_all (fun (_, h) -> h = Manager.Healthy) (Manager.health mgr))

let dependent_failure_quarantines () =
  with_wal "dep-quarantine" (fun durability ->
      let db, mgr, p, c = tower ~durability ~policy:Policy.Quarantine () in
      Relation.update (View.contents c) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
      let reports = Manager.commit mgr [ delete_1_2 ] in
      Alcotest.(check (list string))
        "only the parent reports" [ "p" ]
        (List.map (fun r -> r.Ivm.Maintenance.view_name) reports);
      Alcotest.(check bool) "child quarantined" true (quarantined mgr "c");
      Alcotest.(check bool) "parent healthy" true
        (Manager.view_health mgr "p" = Manager.Healthy);
      check_rel "parent committed"
        (Query.Eval.eval db Query.Expr.(base "R"))
        (View.contents p);
      (match Manager.pending mgr "c" with
      | [ ("p", (d : Ivm.Delta.t)) ] ->
        Alcotest.(check bool) "parent delta banked" true
          (Relation.mem d.Ivm.Delta.deletes (Tuple.of_ints [ 1; 2 ])
          && Relation.cardinal d.Ivm.Delta.inserts = 0)
      | _ -> Alcotest.fail "the child should bank exactly the parent delta");
      let outcomes = last_commit_outcomes durability in
      Alcotest.(check bool) "WAL: parent applied" true
        (List.assoc "p" outcomes = Durability.Record.Applied);
      (match List.assoc "c" outcomes with
      | Durability.Record.Faulted _ -> ()
      | Durability.Record.Applied | Durability.Record.Cascade _ ->
        Alcotest.fail "WAL: the child should be logged as Faulted");
      (* The next commit's auto-heal drains the banked delta, hits the
         same underflow, and recomputes. *)
      ignore
        (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 2 ]) ]);
      Alcotest.(check bool) "child healed" true
        (Manager.view_health mgr "c" = Manager.Healthy);
      check_rel "child caught up"
        (Query.Eval.eval
           (db_of [ ("p", View.contents p); ("S", Database.find db "S") ])
           Query.Expr.(join (base "p") (base "S")))
        (View.contents c);
      Alcotest.(check bool) "consistent" true (Manager.all_consistent mgr))

(* A quarantined dependent rolls back its own sub-journal the way a
   base view does: the same [view-rollback] provenance event and the
   same view-scoped rollback count. *)
let dependent_quarantine_logs_rollback () =
  let _db, mgr, _p, c = tower ~policy:Policy.Quarantine () in
  Relation.update (View.contents c) (Tuple.of_ints [ 1; 2; 7 ]) (-1);
  let rollbacks () =
    Obs.Metrics.counter_value "ivm_resilience_rollbacks_total"
      ~labels:[ ("scope", "view") ]
  in
  Obs.Control.with_enabled (fun () ->
      let before = rollbacks () in
      ignore (Manager.commit mgr [ delete_1_2 ]);
      Alcotest.(check int) "one view rollback counted" 1 (rollbacks () - before));
  match List.rev (Obs.Provenance.recent ()) with
  | (record : Obs.Provenance.commit) :: _ ->
    Alcotest.(check (list (pair string string)))
      "dependents events"
      [ ("view-rollback", "c"); ("quarantine", "c") ]
      (List.filter_map
         (fun (ev : Obs.Provenance.event) ->
           if ev.phase = "dependents" then
             Some (ev.kind, List.hd (String.split_on_char ':' ev.detail))
           else None)
         record.events)
  | [] -> Alcotest.fail "no provenance record"

let stale_parent_cascades () =
  with_wal "dep-cascade" (fun durability ->
      let _db, mgr, p, _c = tower ~durability ~policy:Policy.Quarantine () in
      Relation.update (View.contents p) (Tuple.of_ints [ 1; 2 ]) (-1);
      ignore
        (Manager.commit mgr
           [ delete_1_2; Transaction.insert "S" (Tuple.of_ints [ 2; 8 ]) ]);
      Alcotest.(check bool) "parent quarantined" true (quarantined mgr "p");
      Alcotest.(check bool) "child quarantined by the cascade" true
        (quarantined mgr "c");
      (match Manager.pending mgr "c" with
      | [ ("S", (d : Ivm.Delta.t)) ] ->
        Alcotest.(check bool) "S input banked" true
          (Relation.mem d.Ivm.Delta.inserts (Tuple.of_ints [ 2; 8 ]))
      | _ -> Alcotest.fail "the child should bank its S input");
      let outcomes = last_commit_outcomes durability in
      (match List.assoc "p" outcomes with
      | Durability.Record.Faulted _ -> ()
      | Durability.Record.Applied | Durability.Record.Cascade _ ->
        Alcotest.fail "WAL: the parent should be logged as Faulted");
      (match List.assoc "c" outcomes with
      | Durability.Record.Cascade _ -> ()
      | Durability.Record.Applied | Durability.Record.Faulted _ ->
        Alcotest.fail "WAL: the child should be logged as a Cascade");
      Alcotest.(check bool) "the child cannot heal past its parent" false
        (Manager.heal mgr "c");
      Alcotest.(check bool) "the parent heals" true (Manager.heal mgr "p");
      Alcotest.(check bool) "and brings the child back" true
        (Manager.view_health mgr "c" = Manager.Healthy);
      Alcotest.(check bool) "child pending cleared" true
        (Manager.pending mgr "c" = []);
      Alcotest.(check bool) "consistent" true (Manager.all_consistent mgr))

(* ------------------------------------------------------------------ *)
(* Refresh hardening                                                   *)
(* ------------------------------------------------------------------ *)

let refresh_survives_mid_drain_failure () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 db in
  let dv =
    Manager.define_view mgr ~name:"dv" ~mode:Manager.Deferred
      Query.Expr.(base "R")
  in
  ignore (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 4 ]) ]);
  ignore (Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 9; 4 ]) ]);
  let saved_r = Relation.copy (Database.find db "R") in
  let saved_dv = Relation.copy (View.contents dv) in
  let pending_before = Manager.pending mgr "dv" in
  with_faults ~only:[ "eval" ] ~rate:1.0 (fun () ->
      match Manager.refresh mgr "dv" with
      | _ -> Alcotest.fail "the injected fault must escape refresh"
      | exception Fault.Injected _ -> ());
  (* The failed drain must be a perfect no-op: rewound insertions
     restored, materialization untouched, deltas still banked. *)
  check_rel "base restored after the failed drain" saved_r
    (Database.find db "R");
  check_rel "materialization untouched" saved_dv (View.contents dv);
  Alcotest.(check bool) "pending still banked" true
    (Manager.pending mgr "dv" = pending_before);
  (match Manager.refresh mgr "dv" with
  | Some _ -> ()
  | None -> Alcotest.fail "deferred view must produce a report");
  check_rel "caught up after the retry"
    (Query.Eval.eval db Query.Expr.(base "R"))
    (View.contents dv);
  Alcotest.(check bool) "consistent" true (Manager.consistent mgr "dv")

(* An invalid transaction must raise before anything moves.  Commit 1
   quarantines [v] through an injected task fault; commit 2 inserts a
   tuple already in R.  Had the commit healed [v] and spent a sequence
   number before netting, the live manager would be ahead of its log. *)
let invalid_after_quarantine ?durability () =
  let db = example_db () in
  let mgr =
    Manager.create ~domains:1 ~policy:Policy.Quarantine ?durability db
  in
  ignore (Manager.define_view mgr ~name:"v" Query.Expr.(base "R"));
  with_faults ~only:[ "task" ] ~rate:1.0 (fun () ->
      ignore
        (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 4 ]) ]));
  let health = Manager.view_health mgr "v" in
  Alcotest.(check bool) "quarantined by the injected fault" true
    (match health with Manager.Quarantined _ -> true | _ -> false);
  (match
     Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 1; 2 ]) ]
   with
  | _ -> Alcotest.fail "a duplicate insert must be refused"
  | exception Transaction.Invalid _ -> ());
  Alcotest.(check int) "no sequence number spent" 1 (Manager.commit_seq mgr);
  Alcotest.(check bool) "no heal ran" true (Manager.view_health mgr "v" = health);
  mgr

let invalid_txn_changes_nothing () = ignore (invalid_after_quarantine ())

let invalid_txn_recovers_to_live_state () =
  with_wal "invalid-txn" (fun config ->
      let live = invalid_after_quarantine ~durability:config () in
      let expected = Manager.capture_state live in
      let mgr =
        Manager.create ~domains:1 ~policy:Policy.Quarantine ~durability:config
          (example_db ())
      in
      ignore (Manager.define_view mgr ~name:"v" Query.Expr.(base "R"));
      ignore (Manager.recover mgr);
      match Durability.State.diff expected (Manager.capture_state mgr) with
      | None -> ()
      | Some d -> Alcotest.fail ("recovered state differs: " ^ d))

(* ------------------------------------------------------------------ *)
(* Commit fast path                                                    *)
(* ------------------------------------------------------------------ *)

let untouched_views_skip_maintenance () =
  let db = example_db () in
  let mgr = Manager.create ~domains:1 db in
  ignore (Manager.define_view mgr ~name:"s_only" Query.Expr.(base "S"));
  let reports =
    Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 3; 4 ]) ]
  in
  Alcotest.(check int) "no report for the untouched view" 0
    (List.length reports);
  Alcotest.(check int) "no stats either" 0
    (Manager.stats mgr "s_only").Manager.commits;
  let reports =
    Manager.commit mgr [ Transaction.insert "S" (Tuple.of_ints [ 5; 5 ]) ]
  in
  Alcotest.(check int) "touched commit maintains it" 1 (List.length reports);
  Alcotest.(check int) "and lands stats" 1
    (Manager.stats mgr "s_only").Manager.commits;
  Alcotest.(check bool) "still consistent" true (Manager.all_consistent mgr)

(* ------------------------------------------------------------------ *)
(* Abort is all-or-nothing under random faulted streams                *)
(* ------------------------------------------------------------------ *)

(* The oracle harness checks exactly the Abort contract after every
   commit: either the commit succeeded and all materializations match
   the from-scratch recompute, or it raised [Commit_failed] and base
   relations and materializations are bit-identical to the reference's
   pre-commit deep copy. *)
let abort_all_or_nothing seed =
  let s = Oracle.Stream.generate ~domains:1 ~seed ~transactions:10 () in
  match Oracle.Harness.run ~fault_rate:0.3 ~policy:Policy.Abort s with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "%s@.%s"
      (Format.asprintf "%a" Oracle.Harness.pp_divergence d)
      (Format.asprintf "%a" Oracle.Stream.pp s)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"commit under Abort either succeeds or changes nothing"
         QCheck.(int_range 0 1_000_000)
         abort_all_or_nothing);
  ]

let () =
  Alcotest.run "resilience"
    [
      ("fault injection", fault_tests);
      ("journal", journal_tests);
      ("retry", retry_tests);
      ( "transactional commit",
        [
          quick "abort restores the exact pre-commit state" torn_commit;
          quick "unprotected policy keeps the legacy torn behaviour"
            unprotected_commit_tears;
          quick "an invalid transaction heals nothing and spends no seq"
            invalid_txn_changes_nothing;
          quick "an invalid transaction leaves recovery equal to live"
            invalid_txn_recovers_to_live_state;
        ] );
      ( "quarantine",
        [
          quick "a failing view is isolated and heals on demand"
            quarantine_isolates_and_heals;
          quick "quarantined views self-heal on the next commit"
            self_heal_on_next_commit;
          quick "exhausted heals disable the view; repair revives it"
            disable_after_exhausted_heals_then_repair;
          quick "a differential heal drops every deleted duplicate"
            heal_drops_every_deleted_duplicate;
          quick "a sharded row fault is reported as itself"
            sharded_row_fault_reads_as_itself;
        ] );
      ( "dependents",
        [
          quick "a failing child aborts the whole commit"
            dependent_failure_aborts;
          quick "a failing child quarantines and banks the parent delta"
            dependent_failure_quarantines;
          quick "a quarantined child logs its own view rollback"
            dependent_quarantine_logs_rollback;
          quick "a stale parent cascades; its heal restores the child"
            stale_parent_cascades;
        ] );
      ( "refresh",
        [
          quick "a mid-drain failure is a perfect no-op"
            refresh_survives_mid_drain_failure;
        ] );
      ( "fast path",
        [ quick "untouched views skip maintenance" untouched_views_skip_maintenance ] );
      ("properties", property_tests);
    ]
