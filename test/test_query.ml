open Relalg
open Helpers
module F = Condition.Formula
module Expr = Query.Expr
module Spj = Query.Spj
module Planner = Query.Planner
module Eval = Query.Eval
module Tableau = Query.Tableau
open F.Dsl

let lookup_in db name = Relation.schema (Database.find db name)

(* A small shared database: R(A,B), S(B,C), T(C,D). *)
let chain_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 10 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 10; 100 ]; [ 20; 200 ]; [ 30; 300 ] ]);
      ("T", rel [ "C"; "D" ] [ [ 100; 7 ]; [ 200; 8 ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)
(* ------------------------------------------------------------------ *)

let expr_tests =
  [
    quick "base_names in occurrence order" (fun () ->
        let e = Expr.(join (join (base "R") (base "S")) (base "R")) in
        Alcotest.(check (list string)) "names" [ "R"; "S"; "R" ]
          (Expr.base_names e));
    quick "schema of natural join merges shared attributes" (fun () ->
        let db = chain_db () in
        let e = Expr.(join (base "R") (base "S")) in
        Alcotest.(check (list string)) "schema" [ "A"; "B"; "C" ]
          (Schema.names (Expr.schema_of (lookup_in db) e)));
    quick "schema of product requires disjoint" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Expr.schema_of (lookup_in db)
                  Expr.(product (base "R") (base "R")));
             false
           with Invalid_argument _ -> true));
    quick "schema of projection" (fun () ->
        let db = chain_db () in
        let e = Expr.(project [ "B" ] (base "R")) in
        Alcotest.(check (list string)) "schema" [ "B" ]
          (Schema.names (Expr.schema_of (lookup_in db) e)));
    quick "join_all left-associates" (fun () ->
        let e = Expr.(join_all [ base "R"; base "S"; base "T" ]) in
        Alcotest.(check (list string)) "names" [ "R"; "S"; "T" ]
          (Expr.base_names e));
    quick "join_all rejects empty" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Expr.join_all: empty list") (fun () ->
            ignore (Expr.join_all [])));
  ]

(* ------------------------------------------------------------------ *)
(* Spj compilation                                                    *)
(* ------------------------------------------------------------------ *)

let spj_tests =
  [
    quick "base relation compiles to identity view" (fun () ->
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) (Expr.base "R") in
        Alcotest.(check int) "one source" 1 (List.length spj.Spj.sources);
        Alcotest.(check (list string)) "projection" [ "A"; "B" ]
          (List.map fst spj.Spj.projection));
    quick "natural join becomes equality atoms" (fun () ->
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) Expr.(join (base "R") (base "S")) in
        Alcotest.(check int) "two sources" 2 (List.length spj.Spj.sources);
        (match spj.Spj.condition_dnf with
        | [ [ atom ] ] -> (
          match atom with
          | { F.left = F.O_var "R.B"; cmp = F.Eq; right = F.O_var "S.B"; _ } ->
            ()
          | _ -> Alcotest.fail "wrong join atom")
        | _ -> Alcotest.fail "expected one equality atom");
        Alcotest.(check (list string)) "projection outputs" [ "A"; "B"; "C" ]
          (List.map fst spj.Spj.projection));
    quick "self-join gets distinct aliases" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(join (base "S") (project [ "B" ] (base "S")))
        in
        let aliases = List.map (fun s -> s.Spj.alias) spj.Spj.sources in
        Alcotest.(check bool) "distinct aliases" true
          (List.length (List.sort_uniq String.compare aliases) = 2));
    quick "selection conditions are qualified" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(select (v "A" <% i 10) (base "R"))
        in
        match spj.Spj.condition_dnf with
        | [ [ { F.left = F.O_var "R.A"; _ } ] ] -> ()
        | _ -> Alcotest.fail "selection not qualified");
    quick "selection on projected-away attribute fails" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Spj.compile (lookup_in db)
                  Expr.(select (v "A" <% i 1) (project [ "B" ] (base "R"))));
             false
           with Spj.Compile_error _ -> true));
    quick "projection of unknown attribute fails" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Spj.compile (lookup_in db) Expr.(project [ "Z" ] (base "R")));
             false
           with Spj.Compile_error _ -> true));
    quick "unknown base relation fails" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Spj.compile (lookup_in db) (Expr.base "NOPE"));
             false
           with Spj.Compile_error _ -> true));
    quick "product with overlapping visible attributes fails" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Spj.compile (lookup_in db) Expr.(product (base "R") (base "R")));
             false
           with Spj.Compile_error _ -> true));
    quick "projection composition keeps outer order" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(project [ "B"; "A" ] (project [ "A"; "B" ] (base "R")))
        in
        Alcotest.(check (list string)) "order" [ "B"; "A" ]
          (List.map fst spj.Spj.projection));
    quick "output_schema types" (fun () ->
        let db =
          db_of
            [
              ( "P",
                Relation.of_tuples
                  (Schema.make
                     [ ("id", Value.Int_ty); ("name", Value.Str_ty) ])
                  [ [| Value.Int 1; Value.Str "a" |] ] );
            ]
        in
        let spj = Spj.compile (lookup_in db) (Expr.base "P") in
        let out = Spj.output_schema (lookup_in db) spj in
        Alcotest.(check bool) "name is str" true
          (Schema.ty out "name" = Value.Str_ty));
    quick "typing resolves qualified attributes" (fun () ->
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) Expr.(join (base "R") (base "S")) in
        let typing = Spj.typing (lookup_in db) spj in
        Alcotest.(check bool) "int" true (typing "R.A" = Value.Int_ty));
    quick "eval matches the tree evaluator" (fun () ->
        let db = chain_db () in
        let exprs =
          [
            Expr.base "R";
            Expr.(select (v "A" >% i 1) (base "R"));
            Expr.(project [ "B" ] (base "R"));
            Expr.(join (base "R") (base "S"));
            Expr.(join (join (base "R") (base "S")) (base "T"));
            Expr.(
              project [ "A"; "D" ]
                (select (v "A" <% i 3) (join_all [ base "R"; base "S"; base "T" ])));
            Expr.(select ((v "A" =% i 1) ||% (v "C" >% i 150)) (join (base "R") (base "S")));
          ]
        in
        List.iteri
          (fun idx e ->
            let spj = Spj.compile (lookup_in db) e in
            check_rel
              (Printf.sprintf "expr %d" idx)
              (Eval.eval db e)
              (Spj.eval (lookup_in db) db spj))
          exprs);
    quick "example 4.1 prints as pi, sigma and product lines" (fun () ->
        let db = example_4_1_db () in
        let spj = Spj.compile (lookup_in db) (example_4_1_expr ()) in
        Alcotest.(check (list string))
          "lines"
          [
            "pi[A:=R.A, D:=S.D]";
            "sigma[((R.A < 10 /\\ S.C > 5) /\\ R.B = S.C)]";
            "(R x S)";
          ]
          (String.split_on_char '\n' (Format.asprintf "%a" Spj.pp spj)));
  ]

(* ------------------------------------------------------------------ *)
(* Planner                                                            *)
(* ------------------------------------------------------------------ *)

let run_view db expr ~order ~join_impl =
  let spj = Spj.compile (lookup_in db) expr in
  let sources =
    List.map
      (fun (s : Spj.source) ->
        ( s.Spj.alias,
          Relation.reschema
            (Database.find db s.Spj.relation)
            (Spj.qualified_schema (lookup_in db) s) ))
      spj.Spj.sources
  in
  Planner.run ~order ~join_impl ~sources ~condition_dnf:spj.Spj.condition_dnf
    ~projection:spj.Spj.projection ()

let planner_tests =
  [
    quick "single source with filter" (fun () ->
        let db = chain_db () in
        check_rel "filtered" (rel [ "A"; "B" ] [ [ 2; 20 ]; [ 3; 10 ] ])
          (run_view db
             Expr.(select (v "A" >% i 1) (base "R"))
             ~order:`Greedy ~join_impl:`Hash));
    quick "declaration order agrees with greedy" (fun () ->
        let db = chain_db () in
        let e =
          Expr.(
            project [ "A"; "D" ]
              (select (v "A" <% i 3) (join_all [ base "R"; base "S"; base "T" ])))
        in
        check_rel "same result"
          (run_view db e ~order:`Greedy ~join_impl:`Hash)
          (run_view db e ~order:`Declaration ~join_impl:`Hash));
    quick "nested loop agrees with hash join" (fun () ->
        let db = chain_db () in
        let e = Expr.(join (base "R") (base "S")) in
        check_rel "same result"
          (run_view db e ~order:`Greedy ~join_impl:`Hash)
          (run_view db e ~order:`Greedy ~join_impl:`Nested_loop));
    quick "multi-disjunct condition" (fun () ->
        let db = chain_db () in
        let e =
          Expr.(
            select ((v "A" =% i 1) ||% (v "C" >% i 250)) (join (base "R") (base "S")))
        in
        check_rel "same as tree eval" (Eval.eval db e)
          (run_view db e ~order:`Greedy ~join_impl:`Hash));
    quick "disjunction across sources (no pushdown possible)" (fun () ->
        let db = chain_db () in
        let e =
          Expr.(
            select ((v "A" =% i 1) ||% (v "B" =% i 20)) (product (base "R") (base "T")))
        in
        check_rel "same as tree eval" (Eval.eval db e)
          (run_view db e ~order:`Greedy ~join_impl:`Hash));
    quick "empty source short-circuits" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ] ]);
              ("S", rel [ "B"; "C" ] []);
            ]
        in
        let e = Expr.(join (base "R") (base "S")) in
        Alcotest.(check int) "empty" 0
          (Relation.cardinal (run_view db e ~order:`Greedy ~join_impl:`Hash)));
    quick "false condition yields the empty view" (fun () ->
        let db = chain_db () in
        let e = Expr.(select ((v "A" <% i 0) &&% (v "A" >% i 0)) (base "R")) in
        let out = run_view db e ~order:`Greedy ~join_impl:`Hash in
        Alcotest.(check int) "empty" 0 (Relation.cardinal out);
        Alcotest.(check (list string)) "schema kept" [ "A"; "B" ]
          (Schema.names (Relation.schema out)));
    quick "cross-source inequality applied while joining" (fun () ->
        let db = chain_db () in
        let e =
          Expr.(select (v "A" <% v "C") (product (base "R") (base "T")))
        in
        check_rel "same as tree eval" (Eval.eval db e)
          (run_view db e ~order:`Greedy ~join_impl:`Hash));
  ]

(* ------------------------------------------------------------------ *)
(* run_many                                                           *)
(* ------------------------------------------------------------------ *)

let run_many_tests =
  [
    quick "run_many equals run on every variant" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(
              project [ "A"; "C" ]
                (select (v "A" >% i 0) (join (base "R") (base "S"))))
        in
        let qualified s =
          Relation.reschema
            (Database.find db s.Spj.relation)
            (Spj.qualified_schema (lookup_in db) s)
        in
        let r_src, s_src =
          match spj.Spj.sources with
          | [ a; b ] -> (a, b)
          | _ -> Alcotest.fail "expected two sources"
        in
        let tiny =
          Relation.reschema
            (rel [ "A"; "B" ] [ [ 9; 10 ] ])
            (Spj.qualified_schema (lookup_in db) r_src)
        in
        let variants =
          [
            [ (r_src.Spj.alias, qualified r_src); (s_src.Spj.alias, qualified s_src) ];
            [ (r_src.Spj.alias, tiny); (s_src.Spj.alias, qualified s_src) ];
            (* shared prefix with variant 2 *)
            [ (r_src.Spj.alias, tiny); (s_src.Spj.alias, qualified s_src) ];
          ]
        in
        let many =
          Planner.run_many ~variants ~condition_dnf:spj.Spj.condition_dnf
            ~projection:spj.Spj.projection ()
        in
        List.iter2
          (fun sources result ->
            check_rel "variant agrees"
              (Planner.run ~sources ~condition_dnf:spj.Spj.condition_dnf
                 ~projection:spj.Spj.projection ())
              result)
          variants many);
    quick "run_many with empty variant operand" (fun () ->
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) Expr.(join (base "R") (base "S")) in
        let qualified s =
          Relation.reschema
            (Database.find db s.Spj.relation)
            (Spj.qualified_schema (lookup_in db) s)
        in
        let r_src, s_src =
          match spj.Spj.sources with
          | [ a; b ] -> (a, b)
          | _ -> Alcotest.fail "expected two sources"
        in
        let empty =
          Relation.create (Spj.qualified_schema (lookup_in db) r_src)
        in
        let variants =
          [ [ (r_src.Spj.alias, empty); (s_src.Spj.alias, qualified s_src) ] ]
        in
        let many =
          Planner.run_many ~variants ~condition_dnf:spj.Spj.condition_dnf
            ~projection:spj.Spj.projection ()
        in
        Alcotest.(check int) "empty result" 0
          (Relation.cardinal (List.hd many)));
  ]

(* ------------------------------------------------------------------ *)
(* Tableau minimization                                               *)
(* ------------------------------------------------------------------ *)

let tableau_tests =
  [
    quick "duplicate self-join folds away" (fun () ->
        (* S |x| S on the full schema: the second occurrence is redundant. *)
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) Expr.(join (base "S") (base "S")) in
        Alcotest.(check int) "two sources before" 2
          (List.length spj.Spj.sources);
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "one source after" 1
          (List.length minimized.Spj.sources);
        Alcotest.(check int) "folded count" 1 (Tableau.folded_sources spj);
        (* Visible tuples are preserved. *)
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "non-redundant join is untouched" (fun () ->
        let db = chain_db () in
        let spj = Spj.compile (lookup_in db) Expr.(join (base "R") (base "S")) in
        Alcotest.(check int) "still two" 2
          (List.length (Tableau.minimize spj).Spj.sources));
    quick "projected-away semijoin duplicate still folds" (fun () ->
        (* R |x| pi_B(R): the second occurrence is implied by the first,
           so folding is sound even though A2 is projected away. *)
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(join (base "R") (project [ "B" ] (base "R")))
        in
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "one source" 1 (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "partially-equated self-join with extra condition is kept" (fun () ->
        (* R |x| pi_B(sigma_{A>2}(R)): the second occurrence constrains A
           beyond the first, so it must not fold. *)
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(join (base "R") (project [ "B" ] (select (v "A" >% i 2) (base "R"))))
        in
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "still two" 2 (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "fold rewrites projection and condition" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(select (v "C" >% i 150) (join (base "S") (base "S")))
        in
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "one source" 1 (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "multi-disjunct views are left alone" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(
              select ((v "B" =% i 10) ||% (v "C" =% i 200))
                (join (base "S") (base "S")))
        in
        Alcotest.(check int) "unchanged" 2
          (List.length (Tableau.minimize spj).Spj.sources));
    quick "triple duplicate folds to one" (fun () ->
        let db = chain_db () in
        let spj =
          Spj.compile (lookup_in db)
            Expr.(join (join (base "S") (base "S")) (base "S"))
        in
        Alcotest.(check int) "one source" 1
          (List.length (Tableau.minimize spj).Spj.sources));
    quick "homomorphism folds a branching self-join" (fun () ->
        (* exists x y z u v. R(x,y) & R(x,z) & S(y,u) & S(z,v) is
           equivalent to exists x y u. R(x,y) & S(y,u) via theta(z)=y,
           theta(v)=u — a fold the plain duplicate test cannot see
           because z and y are different classes. *)
        let db = chain_db () in
        let r2 = Expr.(rename [ ("A", "A2"); ("B", "B2") ] (base "R")) in
        let s1 = Expr.(rename [ ("B", "SB1"); ("C", "C1") ] (base "S")) in
        let s2 = Expr.(rename [ ("B", "SB2"); ("C", "C2") ] (base "S")) in
        let branching =
          Expr.(
            project []
              (select
                 ((v "A" =% v "A2") &&% (v "B" =% v "SB1")
                 &&% (v "B2" =% v "SB2"))
                 (product (product (product (base "R") r2) s1) s2)))
        in
        let spj = Spj.compile (lookup_in db) branching in
        Alcotest.(check int) "four sources before" 4
          (List.length spj.Spj.sources);
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "two sources after" 2
          (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "distinguished endpoints block the path fold" (fun () ->
        (* ans(A, B2) :- R(A,y), R(y,B2): both end classes are projected,
           so no proper homomorphism exists. *)
        let db = chain_db () in
        let path2 =
          Expr.(
            project [ "A"; "B2" ]
              (select
                 (v "B" =% v "A2")
                 (product (base "R") (rename [ ("A", "A2"); ("B", "B2") ] (base "R")))))
        in
        let spj = Spj.compile (lookup_in db) path2 in
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "still two" 2 (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
    quick "a path query is already minimal (it is a core)" (fun () ->
        (* exists x y z. R(x,y) & R(y,z) does NOT fold onto one edge:
           R = {(1,2)} satisfies the one-edge query but not the path. *)
        let db = chain_db () in
        let path2 =
          Expr.(
            project []
              (select
                 (v "B" =% v "A2")
                 (product (base "R") (rename [ ("A", "A2"); ("B", "B2") ] (base "R")))))
        in
        let spj = Spj.compile (lookup_in db) path2 in
        let minimized = Tableau.minimize spj in
        Alcotest.(check int) "still two" 2 (List.length minimized.Spj.sources);
        Alcotest.check relation_set_testable "same visible tuples"
          (Spj.eval (lookup_in db) db spj)
          (Spj.eval (lookup_in db) db minimized));
  ]

(* ------------------------------------------------------------------ *)
(* Rename                                                             *)
(* ------------------------------------------------------------------ *)

let rename_tests =
  [
    quick "rename changes the output schema" (fun () ->
        let db = chain_db () in
        let e = Expr.(rename [ ("A", "X") ] (base "R")) in
        Alcotest.(check (list string)) "schema" [ "X"; "B" ]
          (Schema.names (Expr.schema_of (lookup_in db) e)));
    quick "rename enables self-products" (fun () ->
        let db = chain_db () in
        let e =
          Expr.(
            select (v "B" =% v "A2")
              (product (base "R") (rename [ ("A", "A2"); ("B", "B2") ] (base "R"))))
        in
        let spj = Spj.compile (lookup_in db) e in
        check_rel "tree eval agrees" (Eval.eval db e)
          (Spj.eval (lookup_in db) db spj));
    quick "rename collision rejected" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Spj.compile (lookup_in db)
                  Expr.(rename [ ("A", "B") ] (base "R")));
             false
           with Spj.Compile_error _ -> true));
    quick "rename in a maintained view" (fun () ->
        let db = chain_db () in
        let mgr, view =
          managed ~name:"self" db
            Expr.(
              project [ "A"; "B2" ]
                (select (v "B" =% v "A2")
                   (product (base "R")
                      (rename [ ("A", "A2"); ("B", "B2") ] (base "R")))))
        in
        ignore
          (Ivm.Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 10; 1 ]) ]);
        Alcotest.(check bool) "consistent" true (Ivm.View.consistent view db));
  ]

(* ------------------------------------------------------------------ *)
(* Key preservation (Section 5.2 alternative 2)                        *)
(* ------------------------------------------------------------------ *)

let keys_tests =
  let analyse db keys expr =
    Query.Keys.projection_preserves_keys ~keys
      (Spj.compile (lookup_in db) expr)
  in
  [
    quick "identity view preserves the key" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "preserved" true
          (analyse db [ ("R", [ "A" ]) ] (Expr.base "R")));
    quick "projecting the key away loses it" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "lost" false
          (analyse db [ ("R", [ "A" ]) ] Expr.(project [ "B" ] (base "R"))));
    quick "join view preserving both keys" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "preserved" true
          (analyse db
             [ ("R", [ "A" ]); ("S", [ "B" ]) ]
             Expr.(project [ "A"; "B" ] (join (base "R") (base "S")))));
    quick "key determined through an equality chain" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "preserved" true
          (analyse db
             [ ("R", [ "A"; "B" ]); ("S", [ "B" ]) ]
             Expr.(project [ "A"; "B" ] (join (base "R") (base "S")))));
    quick "key pinned by a constant counts as determined" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "preserved" true
          (analyse db
             [ ("R", [ "A" ]); ("S", [ "B" ]) ]
             Expr.(
               project [ "A" ]
                 (select (v "B" =% i 10) (join (base "R") (base "S"))))));
    quick "missing key declaration rejects" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "rejected" false
          (analyse db [ ("R", [ "A" ]) ] Expr.(join (base "R") (base "S"))));
    quick "multi-attribute keys" (fun () ->
        let db = chain_db () in
        Alcotest.(check bool) "preserved" true
          (analyse db [ ("R", [ "A"; "B" ]) ] (Expr.base "R"));
        Alcotest.(check bool) "half a key is not enough" false
          (analyse db [ ("R", [ "A"; "B" ]) ] Expr.(project [ "A" ] (base "R"))));
    quick "duplicate-free views really have unit counters" (fun () ->
        (* Soundness: maintain a key-preserving view through transactions
           that respect the declared keys; every counter must stay 1. *)
        let rng = Workload.Rng.make 37 in
        let db =
          db_of
            [
              (* A is genuinely unique in R; B is genuinely unique in S. *)
              ( "R",
                rel [ "A"; "B" ]
                  (List.init 50 (fun a -> [ a; a mod 10 ])) );
              ( "S",
                rel [ "B"; "C" ]
                  (List.init 10 (fun b -> [ b; 100 + b ])) );
            ]
        in
        let mgr, view =
          managed ~keys:[ ("R", [ "A" ]); ("S", [ "B" ]) ] ~name:"kp" db
            Expr.(project [ "A"; "B" ] (join (base "R") (base "S")))
        in
        Alcotest.(check bool) "flagged" true (Ivm.View.duplicate_free view);
        let next_a = ref 50 in
        for _ = 1 to 20 do
          (* Delete a random R row and insert a fresh one with a new
             unique A, keeping the key valid. *)
          let victims = Workload.Generate.pick rng (Database.find db "R") 1 in
          let fresh =
            Tuple.of_ints [ !next_a; Workload.Rng.int rng 10 ]
          in
          incr next_a;
          let txn =
            List.map (fun t -> Transaction.delete "R" t) victims
            @ [ Transaction.insert "R" fresh ]
          in
          ignore (Ivm.Manager.commit mgr txn);
          Relation.iter
            (fun _ c -> Alcotest.(check int) "unit counter" 1 c)
            (Ivm.View.contents view)
        done);
    quick "non-key-preserving view is not flagged" (fun () ->
        let db = chain_db () in
        let view =
          Ivm.View.define ~keys:[ ("R", [ "A" ]) ] ~name:"np" ~db
            Expr.(project [ "B" ] (base "R"))
        in
        Alcotest.(check bool) "not flagged" false
          (Ivm.View.duplicate_free view));
  ]

(* ------------------------------------------------------------------ *)
(* Hypergraph / Yannakakis                                            *)
(* ------------------------------------------------------------------ *)

let hypergraph_tests =
  let eval_both db expr =
    let lookup = lookup_in db in
    let spj = Spj.compile lookup expr in
    let sources =
      List.map
        (fun (s : Spj.source) ->
          ( s.Spj.alias,
            Relation.reschema
              (Database.find db s.Spj.relation)
              (Spj.qualified_schema lookup s) ))
        spj.Spj.sources
    in
    let planner =
      Planner.run ~sources ~condition_dnf:spj.Spj.condition_dnf
        ~projection:spj.Spj.projection ()
    in
    let yannakakis = Query.Hypergraph.eval ~lookup ~sources spj in
    (planner, yannakakis)
  in
  [
    quick "a chain is acyclic" (fun () ->
        let db = chain_db () in
        let lookup = lookup_in db in
        let spj =
          Spj.compile lookup Expr.(join_all [ base "R"; base "S"; base "T" ])
        in
        Alcotest.(check bool) "acyclic" true
          (Query.Hypergraph.acyclic ~lookup spj));
    quick "a triangle is cyclic" (fun () ->
        (* R(A,B) |x| S(B,C) |x| T2(C,A): the three join classes form a
           cycle. *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 1 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 1; 1 ] ]);
              ("T2", rel [ "C"; "A" ] [ [ 1; 1 ] ]);
            ]
        in
        let lookup = lookup_in db in
        let spj =
          Spj.compile lookup Expr.(join_all [ base "R"; base "S"; base "T2" ])
        in
        Alcotest.(check bool) "cyclic" false
          (Query.Hypergraph.acyclic ~lookup spj));
    quick "a star is acyclic" (fun () ->
        let db =
          db_of
            [
              ("Hub", rel [ "A"; "B"; "C" ] [ [ 1; 2; 3 ] ]);
              ("X", rel [ "A"; "P" ] [ [ 1; 0 ] ]);
              ("Y", rel [ "B"; "Q" ] [ [ 2; 0 ] ]);
              ("Z", rel [ "C"; "W" ] [ [ 3; 0 ] ]);
            ]
        in
        let lookup = lookup_in db in
        let spj =
          Spj.compile lookup
            Expr.(join_all [ base "Hub"; base "X"; base "Y"; base "Z" ])
        in
        Alcotest.(check bool) "acyclic" true
          (Query.Hypergraph.acyclic ~lookup spj));
    quick "multi-disjunct conditions have no tree" (fun () ->
        let db = chain_db () in
        let lookup = lookup_in db in
        let spj =
          Spj.compile lookup
            Expr.(
              select ((v "A" =% i 1) ||% (v "C" =% i 100))
                (join (base "R") (base "S")))
        in
        Alcotest.(check bool) "no tree" true
          (Query.Hypergraph.join_tree ~lookup spj = None));
    quick "yannakakis equals the planner on a chain" (fun () ->
        let db = chain_db () in
        let planner, yannakakis =
          eval_both db
            Expr.(
              project [ "A"; "D" ]
                (select (v "A" >% i 0)
                   (join_all [ base "R"; base "S"; base "T" ])))
        in
        check_rel "equal" planner yannakakis);
    quick "yannakakis falls back on cyclic queries" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 2; 3 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 2; 5 ]; [ 3; 5 ] ]);
              ("T2", rel [ "C"; "A" ] [ [ 5; 1 ] ]);
            ]
        in
        let planner, yannakakis =
          eval_both db Expr.(join_all [ base "R"; base "S"; base "T2" ])
        in
        check_rel "equal" planner yannakakis);
    quick "semijoin reduction prunes dangling tuples" (fun () ->
        (* Dangling R tuples (B = 99) must not inflate intermediates;
           result equality is the observable check. *)
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 99 ]; [ 3; 10 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 7 ] ]);
              ("T", rel [ "C"; "D" ] [ [ 7; 0 ] ]);
            ]
        in
        let planner, yannakakis =
          eval_both db Expr.(join_all [ base "R"; base "S"; base "T" ])
        in
        check_rel "equal" planner yannakakis;
        Alcotest.(check int) "two results" 2 (Relation.cardinal yannakakis));
    quick "yannakakis equals the planner on random inputs" (fun () ->
        let rng = Workload.Rng.make 19 in
        for _ = 1 to 30 do
          let scenario, names =
            Workload.Scenario.chain ~rng ~p:3
              ~size:(20 + Workload.Rng.int rng 40)
              ~key_range:6
          in
          let db = scenario.Workload.Scenario.db in
          let planner, yannakakis =
            eval_both db
              Expr.(
                project [ "K0"; "K3" ]
                  (select (v "K0" <=% v "K3" +% 3)
                     (join_all (List.map base names))))
          in
          check_rel "equal" planner yannakakis
        done);
    quick "counted semantics preserved through semijoins" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ] ]);
              ("S", rel [ "B"; "C" ] [ [ 10; 7 ] ]);
            ]
        in
        let planner, yannakakis =
          eval_both db Expr.(project [ "B" ] (join (base "R") (base "S")))
        in
        (* B = 10 must carry counter 2 in both. *)
        check_rel "equal" planner yannakakis;
        Alcotest.(check int) "counter" 2
          (Relation.count yannakakis (Tuple.of_ints [ 10 ])));
  ]

let () =
  Alcotest.run "query"
    [
      ("expr", expr_tests);
      ("spj", spj_tests);
      ("planner", planner_tests);
      ("run_many", run_many_tests);
      ("tableau", tableau_tests);
      ("rename", rename_tests);
      ("keys", keys_tests);
      ("hypergraph", hypergraph_tests);
    ]
