(* The self-maintenance runtime: certificates compiled from the
   IVM050/IVM051 analysis, the zero-base-read delta computation (enforced
   by the Database read probe), the Manager's Self_maintain strategy with
   its differential fallback, and a QCheck lockstep soundness property
   against the naive reference engine. *)

open Relalg
open Helpers
module View = Ivm.View
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module SM = Ivm.Self_maintain
module Advisor = Ivm.Advisor
module Generate = Workload.Generate
module Rng = Workload.Rng
module Reference = Oracle.Reference
open Condition.Formula.Dsl

let lookup_of db name = Relation.schema (Database.find db name)

let spj_of db expr = Query.Spj.compile (lookup_of db) expr

let full_keys = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let certificate_tests =
  [
    quick "single-source views certify inserts and deletes" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ] ]) ] in
        let expr = Query.Expr.(project [ "B" ] (base "R")) in
        match SM.of_spj ~name:"v" ~keys:[] ~lookup:(lookup_of db) (spj_of db expr) with
        | None -> Alcotest.fail "expected a certificate"
        | Some cert ->
          Alcotest.(check (list string)) "insertable" [ "R" ] (SM.insertable cert);
          Alcotest.(check (list string)) "deletable" [ "R" ] (SM.deletable cert));
    quick "keyed join certifies deletes only" (fun () ->
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] []); ("S", rel [ "B"; "C" ] []) ]
        in
        let expr = Query.Expr.(join (base "R") (base "S")) in
        match
          SM.of_spj ~name:"v" ~keys:full_keys ~lookup:(lookup_of db)
            (spj_of db expr)
        with
        | None -> Alcotest.fail "expected a certificate"
        | Some cert ->
          Alcotest.(check (list string)) "no insert coverage" []
            (SM.insertable cert);
          Alcotest.(check (list string)) "both drainable" [ "R"; "S" ]
            (List.sort String.compare (SM.deletable cert)));
    quick "keyless joins carry no certificate" (fun () ->
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] []); ("S", rel [ "B"; "C" ] []) ]
        in
        let expr = Query.Expr.(join (base "R") (base "S")) in
        Alcotest.(check bool) "no certificate" true
          (SM.of_spj ~name:"v" ~keys:[] ~lookup:(lookup_of db) (spj_of db expr)
           = None));
    quick "applies checks per-relation, per-direction coverage" (fun () ->
        let db =
          db_of
            [ ("R", rel [ "A"; "B" ] []); ("S", rel [ "B"; "C" ] []) ]
        in
        let expr = Query.Expr.(join (base "R") (base "S")) in
        let cert =
          Option.get
            (SM.of_spj ~name:"v" ~keys:full_keys ~lookup:(lookup_of db)
               (spj_of db expr))
        in
        let t = Tuple.of_ints [ 1; 2 ] in
        Alcotest.(check bool) "delete-only net applies" true
          (SM.applies cert ~net:[ ("R", ([], [ t ])) ]);
        Alcotest.(check bool) "insert blocks it" false
          (SM.applies cert ~net:[ ("R", ([ t ], [ t ])) ]);
        Alcotest.(check bool) "untouched net is not applicable" false
          (SM.applies cert ~net:[]);
        Alcotest.(check bool) "foreign relation blocks it" false
          (SM.applies cert ~net:[ ("T", ([], [ t ])) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Zero-base-read deltas                                               *)
(* ------------------------------------------------------------------ *)

let delta_tests =
  [
    quick "the probe counts ordinary reads" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ] ]) ] in
        let _, reads =
          Database.probe_reads (fun () -> ignore (Database.find db "R"))
        in
        Alcotest.(check bool) "at least one read" true (reads >= 1));
    quick "p = 1 delta is computed without touching the database" (fun () ->
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ] ]) ] in
        let expr =
          Query.Expr.(project [ "B" ] (select (v "A" <% i 10) (base "R")))
        in
        let view = View.define ~name:"v" ~db expr in
        let cert = Option.get (View.self_maintain view) in
        let net : Transaction.net =
          [
            ( "R",
              ( [ Tuple.of_ints [ 5; 6 ]; Tuple.of_ints [ 50; 60 ] ],
                [ Tuple.of_ints [ 1; 2 ] ] ) );
          ]
        in
        let delta, reads =
          Database.probe_reads (fun () ->
              SM.delta cert ~contents:(View.contents view) ~net)
        in
        Alcotest.(check int) "zero base reads" 0 reads;
        (* (5,6) passes A<10, (50,60) fails; the delete projects to (2). *)
        Alcotest.(check (list (pair (list int) int)))
          "insert delta" [ ([ 6 ], 1) ]
          (ints_contents delta.Ivm.Delta.inserts);
        Alcotest.(check (list (pair (list int) int)))
          "delete delta" [ ([ 2 ], 1) ]
          (ints_contents delta.Ivm.Delta.deletes));
    quick "keyed drain removes every derivation of the victim tuple"
      (fun () ->
        (* pi_B(R |x| S) with R:(1,2) joining two S rows: the view holds
           (2) with count 2.  Deleting (1,2) from R must drain both. *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 9; 7 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 2; 5 ]; [ 2; 6 ]; [ 7; 8 ] ]);
            ]
        in
        let expr =
          Query.Expr.(project [ "A"; "B" ] (join (base "R") (base "S")))
        in
        let view = View.define ~name:"v" ~db ~keys:[ ("R", [ "A"; "B" ]) ] expr in
        let cert = Option.get (View.self_maintain view) in
        let net : Transaction.net =
          [ ("R", ([], [ Tuple.of_ints [ 1; 2 ] ])) ]
        in
        let delta, reads =
          Database.probe_reads (fun () ->
              SM.delta cert ~contents:(View.contents view) ~net)
        in
        Alcotest.(check int) "zero base reads" 0 reads;
        Alcotest.(check (list (pair (list int) int)))
          "full multiplicity drained"
          [ ([ 1; 2 ], 2) ]
          (ints_contents delta.Ivm.Delta.deletes);
        Alcotest.(check int) "no inserts" 0
          (Relation.cardinal delta.Ivm.Delta.inserts));
    quick "keyed drain index follows recompute and rollback" (fun () ->
        (* The drain probes an index on the view's contents; recompute
           and journal rollback rewrite those contents in place, and the
           index must follow both. *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 9; 7 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 2; 5 ]; [ 2; 6 ]; [ 7; 8 ] ]);
            ]
        in
        let expr =
          Query.Expr.(project [ "A"; "B" ] (join (base "R") (base "S")))
        in
        let view = View.define ~name:"v" ~db ~keys:[ ("R", [ "A"; "B" ]) ] expr in
        let cert = Option.get (View.self_maintain view) in
        let contents = View.contents view in
        let drains msg victim expected =
          let net : Transaction.net = [ ("R", ([], [ Tuple.of_ints victim ])) ] in
          Alcotest.(check (list (pair (list int) int)))
            msg expected
            (ints_contents (SM.delta cert ~contents ~net).Ivm.Delta.deletes)
        in
        drains "first drain builds the index" [ 1; 2 ] [ ([ 1; 2 ], 2) ];
        Relation.add (Database.find db "R") (Tuple.of_ints [ 4; 7 ]);
        View.recompute view db;
        drains "recomputed tuple found" [ 4; 7 ] [ ([ 4; 7 ], 1) ];
        let journal = Resilience.Journal.create () in
        Resilience.Journal.record_restore_fn journal (View.checkpoint view);
        Relation.remove (Database.find db "R") (Tuple.of_ints [ 1; 2 ]);
        View.recompute view db;
        Resilience.Journal.update journal contents (Tuple.of_ints [ 4; 7 ]) (-1);
        drains "recomputed-away tuple gone" [ 1; 2 ] [];
        drains "journaled delete gone" [ 4; 7 ] [];
        Resilience.Journal.rollback journal;
        drains "rollback restores the recomputed-away tuple" [ 1; 2 ]
          [ ([ 1; 2 ], 2) ];
        drains "rollback restores the deleted tuple" [ 4; 7 ] [ ([ 4; 7 ], 1) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Manager integration                                                 *)
(* ------------------------------------------------------------------ *)

let forced_sm =
  { Maintenance.default_options with strategy = Maintenance.Self_maintain }

let manager_tests =
  [
    quick "forced self-maintenance stays consistent and is counted"
      (fun () ->
        let rng = Rng.make 7 in
        let db = db_of [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ] ]) ] in
        let mgr = Manager.create db in
        ignore
          (Manager.define_view mgr ~name:"v" ~options:forced_sm
             Query.Expr.(project [ "B" ] (select (v "A" <% i 40) (base "R"))));
        for _ = 1 to 30 do
          let txn =
            Generate.transaction rng db "R"
              ~columns:[ Generate.Uniform (0, 80); Generate.Uniform (0, 9) ]
              ~inserts:2 ~deletes:2
          in
          ignore (Manager.commit mgr txn)
        done;
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "v");
        let stats = Manager.stats mgr "v" in
        Alcotest.(check bool) "self-maintained commits counted" true
          (stats.Manager.self_maintained > 0);
        Alcotest.(check int) "never recomputed" 0 stats.Manager.recomputations);
    quick "keyed join falls back to differential on inserts" (fun () ->
        let rng = Rng.make 11 in
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 2 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 2; 5 ]; [ 4; 6 ] ]);
            ]
        in
        let mgr = Manager.create db in
        ignore
          (Manager.define_view mgr ~name:"j" ~options:forced_sm ~keys:full_keys
             Query.Expr.(join (base "R") (base "S")));
        let columns = [ Generate.Uniform (0, 40); Generate.Uniform (0, 9) ] in
        for _ = 1 to 15 do
          (* Insert-bearing commits must fall back; delete-only commits
             take the certified drain path. *)
          ignore
            (Manager.commit mgr
               (Generate.transaction rng db "R" ~columns ~inserts:2 ~deletes:0));
          ignore
            (Manager.commit mgr
               (Generate.transaction rng db "R" ~columns ~inserts:0 ~deletes:1))
        done;
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "j");
        let stats = Manager.stats mgr "j" in
        Alcotest.(check bool) "some commits self-maintained" true
          (stats.Manager.self_maintained > 0);
        Alcotest.(check bool) "but not all (fallback ran)" true
          (stats.Manager.self_maintained < stats.Manager.commits));
    quick "adaptive advisor picks the certified arm on small deltas"
      (fun () ->
        let tuples = List.init 300 (fun i -> [ i; i mod 9 ]) in
        let db = db_of [ ("R", rel [ "A"; "B" ] tuples) ] in
        let mgr = Manager.create db in
        let adaptive =
          { Maintenance.default_options with strategy = Maintenance.Adaptive }
        in
        ignore
          (Manager.define_view mgr ~name:"v" ~options:adaptive
             Query.Expr.(project [ "B" ] (base "R")));
        ignore
          (Manager.commit mgr [ Transaction.insert "R" (Tuple.of_ints [ 900; 1 ]) ]);
        let stats = Manager.stats mgr "v" in
        Alcotest.(check int) "self-maintained" 1 stats.Manager.self_maintained;
        Alcotest.(check bool) "consistent" true (Manager.consistent mgr "v"));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: lockstep soundness against the naive reference engine       *)
(* ------------------------------------------------------------------ *)

(* A 200-commit mixed stream over R(A,B) / S(B,C): a forced
   self-maintained projection, a forced self-maintained keyed join
   (falling back differentially when a commit's net is not covered), and
   an adaptive control view.  After every commit each materialization
   must be bit-identical (counters included) to the reference's
   from-scratch recompute.  The zero-base-read contract is enforced
   inside the engine: any Database read during a certified delta raises
   Base_read_detected, which would fail this property. *)
let lockstep_commits = 200

let lockstep_once seed =
  let rng = Rng.make seed in
  let r_columns = [ Generate.Uniform (0, 60); Generate.Uniform (0, 7) ] in
  let s_columns = [ Generate.Uniform (0, 7); Generate.Uniform (0, 12) ] in
  let db =
    db_of
      [
        ( "R",
          rel [ "A"; "B" ]
            (List.init 12 (fun i -> [ i * 3 mod 60; i mod 7 ])) );
        ("S", rel [ "B"; "C" ] (List.init 8 (fun i -> [ i mod 7; i ])));
      ]
  in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"sm_project" ~options:forced_sm
       Query.Expr.(project [ "B" ] (select (v "A" <% i 45) (base "R"))));
  ignore
    (Manager.define_view mgr ~name:"sm_join" ~options:forced_sm ~keys:full_keys
       Query.Expr.(join (base "R") (base "S")));
  ignore
    (Manager.define_view mgr ~name:"control"
       ~options:
         { Maintenance.default_options with strategy = Maintenance.Adaptive }
       ~keys:full_keys
       Query.Expr.(
         project [ "A"; "C" ]
           (select ((v "A" <% i 50) &&% (v "C" >% i 2))
              (join (base "R") (base "S")))));
  let reference = Reference.create db in
  Reference.define reference ~name:"sm_project"
    Query.Expr.(project [ "B" ] (select (v "A" <% i 45) (base "R")));
  Reference.define reference ~name:"sm_join"
    Query.Expr.(join (base "R") (base "S"));
  Reference.define reference ~name:"control"
    Query.Expr.(
      project [ "A"; "C" ]
        (select ((v "A" <% i 50) &&% (v "C" >% i 2))
           (join (base "R") (base "S"))));
  for k = 1 to lockstep_commits do
    let txn =
      match k mod 4 with
      | 0 ->
        (* Delete-only: the keyed join's certified drain path. *)
        Generate.mixed_transaction rng db
          [ ("R", r_columns, 0, 2); ("S", s_columns, 0, 1) ]
      | 1 | 2 ->
        Generate.mixed_transaction rng db
          [ ("R", r_columns, 2, 2); ("S", s_columns, 1, 1) ]
      | _ ->
        Generate.transaction rng db "R" ~columns:r_columns ~inserts:3
          ~deletes:0
    in
    ignore (Manager.commit mgr txn);
    Reference.step reference txn;
    List.iter
      (fun name ->
        let engine = View.contents (Manager.view mgr name) in
        let oracle = Reference.contents reference name in
        if not (Relation.equal engine oracle) then
          QCheck.Test.fail_reportf
            "seed %d, commit %d: %s diverged from the reference@.engine:@.%s@.reference:@.%s"
            seed k name
            (Relation.to_ascii engine)
            (Relation.to_ascii oracle))
      [ "sm_project"; "sm_join"; "control" ]
  done;
  (* The stream must actually exercise the certified path, or the
     property proves nothing. *)
  (Manager.stats mgr "sm_project").Manager.self_maintained > 0
  && (Manager.stats mgr "sm_join").Manager.self_maintained > 0

let lockstep_soundness =
  QCheck.Test.make ~count:5
    ~name:
      (Printf.sprintf
         "%d-commit streams: self-maintained views stay bit-identical to the \
          reference"
         lockstep_commits)
    QCheck.small_nat
    (fun seed -> lockstep_once (seed + 1))

let property_tests = [ QCheck_alcotest.to_alcotest lockstep_soundness ]

let () =
  Alcotest.run "self-maintenance"
    [
      ("certificates", certificate_tests);
      ("zero-read deltas", delta_tests);
      ("manager", manager_tests);
      ("properties", property_tests);
    ]
