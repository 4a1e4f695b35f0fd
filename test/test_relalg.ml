open Relalg
open Helpers

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let value_tests =
  [
    quick "equal int" (fun () ->
        Alcotest.(check bool) "5 = 5" true (Value.equal (Int 5) (Int 5)));
    quick "equal cross-type" (fun () ->
        Alcotest.(check bool) "5 <> \"5\"" false
          (Value.equal (Int 5) (Str "5")));
    quick "compare ints" (fun () ->
        Alcotest.(check bool) "3 < 7" true (Value.compare (Int 3) (Int 7) < 0));
    quick "compare strings" (fun () ->
        Alcotest.(check bool) "a < b" true
          (Value.compare (Str "a") (Str "b") < 0));
    quick "ints sort before strings" (fun () ->
        Alcotest.(check bool) "Int < Str" true
          (Value.compare (Int 1000) (Str "") < 0));
    quick "hash consistent with equal" (fun () ->
        Alcotest.(check int) "same hash" (Value.hash (Int 42))
          (Value.hash (Int 42)));
    quick "ty_of" (fun () ->
        Alcotest.(check bool) "int ty" true (Value.ty_of (Int 1) = Value.Int_ty);
        Alcotest.(check bool) "str ty" true
          (Value.ty_of (Str "x") = Value.Str_ty));
    quick "int extraction" (fun () ->
        Alcotest.(check int) "int payload" 7 (Value.int (Int 7));
        Alcotest.check_raises "str is not int"
          (Invalid_argument "Value.int: \"x\" is not an integer") (fun () ->
            ignore (Value.int (Str "x"))));
    quick "str extraction" (fun () ->
        Alcotest.(check string) "str payload" "hi" (Value.str (Str "hi")));
    quick "to_string" (fun () ->
        Alcotest.(check string) "int" "12" (Value.to_string (Int 12));
        Alcotest.(check string) "str" "ab" (Value.to_string (Str "ab")));
  ]

(* ------------------------------------------------------------------ *)
(* Attr                                                               *)
(* ------------------------------------------------------------------ *)

let attr_tests =
  [
    quick "qualify" (fun () ->
        Alcotest.(check string) "qualified" "o.price"
          (Attr.qualify ~alias:"o" "price"));
    quick "base of qualified" (fun () ->
        Alcotest.(check string) "base" "price" (Attr.base "o.price"));
    quick "base of plain" (fun () ->
        Alcotest.(check string) "unchanged" "price" (Attr.base "price"));
    quick "alias_of" (fun () ->
        Alcotest.(check (option string)) "some" (Some "o")
          (Attr.alias_of "o.price");
        Alcotest.(check (option string)) "none" None (Attr.alias_of "price"));
    quick "is_qualified" (fun () ->
        Alcotest.(check bool) "yes" true (Attr.is_qualified "a.b");
        Alcotest.(check bool) "no" false (Attr.is_qualified "ab"));
  ]

(* ------------------------------------------------------------------ *)
(* Schema                                                             *)
(* ------------------------------------------------------------------ *)

let schema_tests =
  [
    quick "make rejects duplicates" (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Schema.make: duplicate attribute \"A\"")
          (fun () -> ignore (int_schema [ "A"; "B"; "A" ])));
    quick "position" (fun () ->
        let s = int_schema [ "A"; "B"; "C" ] in
        Alcotest.(check int) "B at 1" 1 (Schema.position s "B"));
    quick "position_opt missing" (fun () ->
        Alcotest.(check (option int)) "missing" None
          (Schema.position_opt (int_schema [ "A" ]) "Z"));
    quick "arity and names" (fun () ->
        let s = int_schema [ "X"; "Y" ] in
        Alcotest.(check int) "arity" 2 (Schema.arity s);
        Alcotest.(check (list string)) "names" [ "X"; "Y" ] (Schema.names s));
    quick "common keeps first order" (fun () ->
        let a = int_schema [ "A"; "B"; "C" ] in
        let b = int_schema [ "C"; "B"; "D" ] in
        Alcotest.(check (list string)) "common" [ "B"; "C" ] (Schema.common a b));
    quick "disjoint" (fun () ->
        Alcotest.(check bool) "disjoint" true
          (Schema.disjoint (int_schema [ "A" ]) (int_schema [ "B" ]));
        Alcotest.(check bool) "overlap" false
          (Schema.disjoint (int_schema [ "A" ]) (int_schema [ "A" ])));
    quick "concat requires disjoint" (fun () ->
        Alcotest.check_raises "overlap"
          (Invalid_argument "Schema.concat: schemas share attribute names")
          (fun () ->
            ignore (Schema.concat (int_schema [ "A" ]) (int_schema [ "A" ]))));
    quick "project returns positions" (fun () ->
        let s = int_schema [ "A"; "B"; "C" ] in
        let sub, positions = Schema.project s [ "C"; "A" ] in
        Alcotest.(check (list string)) "sub names" [ "C"; "A" ]
          (Schema.names sub);
        Alcotest.(check (array int)) "positions" [| 2; 0 |] positions);
    quick "project missing raises" (fun () ->
        Alcotest.check_raises "missing" Not_found (fun () ->
            ignore (Schema.project (int_schema [ "A" ]) [ "Z" ])));
    quick "qualify" (fun () ->
        let s = Schema.qualify ~alias:"r" (int_schema [ "A"; "B" ]) in
        Alcotest.(check (list string)) "qualified" [ "r.A"; "r.B" ]
          (Schema.names s));
    quick "rename detects collisions" (fun () ->
        Alcotest.check_raises "collision"
          (Invalid_argument "Schema.make: duplicate attribute \"x\"")
          (fun () ->
            ignore (Schema.rename (fun _ -> "x") (int_schema [ "A"; "B" ]))));
    quick "equal" (fun () ->
        Alcotest.check schema_testable "same" (int_schema [ "A" ])
          (int_schema [ "A" ]);
        Alcotest.(check bool) "different order" false
          (Schema.equal (int_schema [ "A"; "B" ]) (int_schema [ "B"; "A" ])));
    quick "mixed types" (fun () ->
        let s = Schema.make [ ("n", Value.Str_ty); ("k", Value.Int_ty) ] in
        Alcotest.(check bool) "n is str" true (Schema.ty s "n" = Value.Str_ty);
        Alcotest.(check bool) "k is int" true (Schema.ty_at s 1 = Value.Int_ty));
  ]

(* ------------------------------------------------------------------ *)
(* Tuple                                                              *)
(* ------------------------------------------------------------------ *)

let tuple_tests =
  [
    quick "of_ints" (fun () ->
        Alcotest.check tuple_testable "ints"
          [| Value.Int 1; Value.Int 2 |]
          (Tuple.of_ints [ 1; 2 ]));
    quick "project" (fun () ->
        Alcotest.check tuple_testable "projected" (Tuple.of_ints [ 3; 1 ])
          (Tuple.project [| 2; 0 |] (Tuple.of_ints [ 1; 2; 3 ])));
    quick "concat" (fun () ->
        Alcotest.check tuple_testable "concat" (Tuple.of_ints [ 1; 2; 3 ])
          (Tuple.concat (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 2; 3 ])));
    quick "value by name" (fun () ->
        let s = int_schema [ "A"; "B" ] in
        Alcotest.check value_testable "B" (Value.Int 9)
          (Tuple.value s (Tuple.of_ints [ 4; 9 ]) "B"));
    quick "equal tuples share hash" (fun () ->
        let a = Tuple.of_ints [ 1; 2; 3 ] and b = Tuple.of_ints [ 1; 2; 3 ] in
        Alcotest.(check bool) "equal" true (Tuple.equal a b);
        Alcotest.(check int) "hash" (Tuple.hash a) (Tuple.hash b));
    quick "compare is lexicographic" (fun () ->
        Alcotest.(check bool) "(1,2) < (1,3)" true
          (Tuple.compare (Tuple.of_ints [ 1; 2 ]) (Tuple.of_ints [ 1; 3 ]) < 0);
        Alcotest.(check bool) "shorter first" true
          (Tuple.compare (Tuple.of_ints [ 9 ]) (Tuple.of_ints [ 1; 1 ]) < 0));
    quick "check arity" (fun () ->
        Alcotest.check_raises "arity"
          (Invalid_argument "Tuple.check: arity 1, schema expects 2")
          (fun () ->
            Tuple.check (int_schema [ "A"; "B" ]) (Tuple.of_ints [ 1 ])));
    quick "check types" (fun () ->
        let s = Schema.make [ ("A", Value.Str_ty) ] in
        Alcotest.check_raises "type"
          (Invalid_argument "Tuple.check: type mismatch at attribute A")
          (fun () -> Tuple.check s (Tuple.of_ints [ 1 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Relation                                                           *)
(* ------------------------------------------------------------------ *)

let relation_tests =
  [
    quick "add and count" (fun () ->
        let r = Relation.create (int_schema [ "A" ]) in
        Relation.add r (Tuple.of_ints [ 1 ]);
        Relation.add ~count:2 r (Tuple.of_ints [ 1 ]);
        Alcotest.(check int) "count" 3 (Relation.count r (Tuple.of_ints [ 1 ]));
        Alcotest.(check int) "cardinal" 1 (Relation.cardinal r);
        Alcotest.(check int) "total" 3 (Relation.total r));
    quick "update to zero removes" (fun () ->
        let r = counted_rel [ "A" ] [ ([ 1 ], 2) ] in
        Relation.update r (Tuple.of_ints [ 1 ]) (-2);
        Alcotest.(check bool) "gone" false (Relation.mem r (Tuple.of_ints [ 1 ]));
        Alcotest.(check int) "total" 0 (Relation.total r));
    quick "negative count raises" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        Alcotest.(check bool) "raises" true
          (try
             Relation.update r (Tuple.of_ints [ 1 ]) (-2);
             false
           with Relation.Negative_count _ -> true));
    quick "remove absent raises" (fun () ->
        let r = Relation.create (int_schema [ "A" ]) in
        Alcotest.(check bool) "raises" true
          (try
             Relation.remove r (Tuple.of_ints [ 5 ]);
             false
           with Relation.Negative_count _ -> true));
    quick "add rejects non-positive count" (fun () ->
        let r = Relation.create (int_schema [ "A" ]) in
        Alcotest.check_raises "zero"
          (Invalid_argument "Relation.add: count must be positive") (fun () ->
            Relation.add ~count:0 r (Tuple.of_ints [ 1 ])));
    quick "union sums counts" (fun () ->
        let a = counted_rel [ "A" ] [ ([ 1 ], 1); ([ 2 ], 2) ] in
        let b = counted_rel [ "A" ] [ ([ 2 ], 3); ([ 3 ], 1) ] in
        check_rel "union"
          (counted_rel [ "A" ] [ ([ 1 ], 1); ([ 2 ], 5); ([ 3 ], 1) ])
          (Relation.union a b));
    quick "diff subtracts counts" (fun () ->
        let a = counted_rel [ "A" ] [ ([ 1 ], 3); ([ 2 ], 1) ] in
        let b = counted_rel [ "A" ] [ ([ 1 ], 1); ([ 2 ], 1) ] in
        check_rel "diff"
          (counted_rel [ "A" ] [ ([ 1 ], 2) ])
          (Relation.diff a b));
    quick "diff underflow raises" (fun () ->
        let a = rel [ "A" ] [ [ 1 ] ] in
        let b = counted_rel [ "A" ] [ ([ 1 ], 2) ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Relation.diff a b);
             false
           with Relation.Negative_count _ -> true));
    quick "equal is counter-sensitive" (fun () ->
        let a = counted_rel [ "A" ] [ ([ 1 ], 2) ] in
        let b = counted_rel [ "A" ] [ ([ 1 ], 1) ] in
        Alcotest.(check bool) "not equal" false (Relation.equal a b);
        Alcotest.(check bool) "set equal" true (Relation.set_equal a b));
    quick "copy is deep" (fun () ->
        let a = rel [ "A" ] [ [ 1 ] ] in
        let b = Relation.copy a in
        Relation.add b (Tuple.of_ints [ 2 ]);
        Alcotest.(check int) "a unchanged" 1 (Relation.cardinal a);
        Alcotest.(check int) "b grew" 2 (Relation.cardinal b));
    quick "reschema shares storage" (fun () ->
        let a = rel [ "A"; "B" ] [ [ 1; 2 ] ] in
        let b = Relation.reschema a (int_schema [ "r.A"; "r.B" ]) in
        Alcotest.(check int) "same contents" 1 (Relation.cardinal b);
        Alcotest.(check (list string)) "renamed" [ "r.A"; "r.B" ]
          (Schema.names (Relation.schema b)));
    quick "reschema arity mismatch" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Relation.reschema: arity mismatch") (fun () ->
            ignore (Relation.reschema (rel [ "A" ] [ [ 1 ] ]) (int_schema [ "A"; "B" ]))));
    quick "of_tuples accumulates duplicates" (fun () ->
        let r =
          Relation.of_tuples (int_schema [ "A" ])
            [ Tuple.of_ints [ 1 ]; Tuple.of_ints [ 1 ] ]
        in
        Alcotest.(check int) "count 2" 2 (Relation.count r (Tuple.of_ints [ 1 ])));
    quick "sorted_elements sorted" (fun () ->
        let r = rel [ "A" ] [ [ 3 ]; [ 1 ]; [ 2 ] ] in
        Alcotest.(check (list (pair (list int) int)))
          "sorted"
          [ ([ 1 ], 1); ([ 2 ], 1); ([ 3 ], 1) ]
          (ints_contents r));
    quick "to_ascii shows counters when needed" (fun () ->
        let r = counted_rel [ "A" ] [ ([ 1 ], 2) ] in
        Alcotest.(check bool) "has # column" true
          (String.length (Relation.to_ascii r) > 0
          && String.contains (Relation.to_ascii r) '#'));
  ]

(* ------------------------------------------------------------------ *)
(* Ops — the redefined counted operators of Section 5.2               *)
(* ------------------------------------------------------------------ *)

let ops_tests =
  [
    quick "select preserves counters" (fun () ->
        let r = counted_rel [ "A" ] [ ([ 1 ], 2); ([ 5 ], 1) ] in
        check_rel "filtered"
          (counted_rel [ "A" ] [ ([ 1 ], 2) ])
          (Ops.select (fun t -> Value.int (Tuple.get t 0) < 3) r));
    quick "project sums counters (Example 5.1 data)" (fun () ->
        (* r = {(1,10), (2,10), (3,20)} projected on B gives 10 with
           counter 2 and 20 with counter 1. *)
        let r = rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ] in
        check_rel "projected"
          (counted_rel [ "B" ] [ ([ 10 ], 2); ([ 20 ], 1) ])
          (Ops.project r [ "B" ]));
    quick "projection distributes over difference with counters" (fun () ->
        (* The whole point of the multiplicity counter: pi(r1 - r2) =
           pi(r1) - pi(r2). *)
        let r1 = rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ] in
        let r2 = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        check_rel "distributive"
          (Ops.project (Relation.diff r1 r2) [ "B" ])
          (Relation.diff (Ops.project r1 [ "B" ]) (Ops.project r2 [ "B" ])));
    quick "product multiplies counters" (fun () ->
        let a = counted_rel [ "A" ] [ ([ 1 ], 2) ] in
        let b = counted_rel [ "B" ] [ ([ 7 ], 3) ] in
        check_rel "product"
          (counted_rel [ "A"; "B" ] [ ([ 1; 7 ], 6) ])
          (Ops.product a b));
    quick "natural join on shared attribute" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ] ] in
        let s = rel [ "B"; "C" ] [ [ 10; 5 ]; [ 10; 6 ]; [ 30; 7 ] ] in
        check_rel "join"
          (rel [ "A"; "B"; "C" ] [ [ 1; 10; 5 ]; [ 1; 10; 6 ] ])
          (Ops.natural_join r s));
    quick "natural join without shared attrs is a product" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        let s = rel [ "B" ] [ [ 2 ] ] in
        check_rel "product" (rel [ "A"; "B" ] [ [ 1; 2 ] ])
          (Ops.natural_join r s));
    quick "natural join multiplies counters (paper's '*')" (fun () ->
        let r = counted_rel [ "A"; "B" ] [ ([ 1; 10 ], 2) ] in
        let s = counted_rel [ "B"; "C" ] [ ([ 10; 5 ], 3) ] in
        check_rel "counted join"
          (counted_rel [ "A"; "B"; "C" ] [ ([ 1; 10; 5 ], 6) ])
          (Ops.natural_join r s));
    quick "equijoin keeps both sides" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        let s = rel [ "C"; "D" ] [ [ 10; 5 ] ] in
        check_rel "equijoin"
          (rel [ "A"; "B"; "C"; "D" ] [ [ 1; 10; 10; 5 ] ])
          (Ops.equijoin r s ~keys:[ ("B", "C") ]));
    quick "equijoin equals nested loop" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 30 ] ] in
        let s = rel [ "C"; "D" ] [ [ 10; 1 ]; [ 30; 2 ]; [ 40; 3 ] ] in
        check_rel "same"
          (Ops.equijoin r s ~keys:[ ("B", "C") ])
          (Ops.nested_loop_join r s ~keys:[ ("B", "C") ]));
    quick "equijoin without keys is a product" (fun () ->
        let r = rel [ "A" ] [ [ 1 ]; [ 2 ] ] in
        let s = rel [ "B" ] [ [ 3 ] ] in
        check_rel "product" (rel [ "A"; "B" ] [ [ 1; 3 ]; [ 2; 3 ] ])
          (Ops.equijoin r s ~keys:[]));
    quick "join with both sides empty" (fun () ->
        let r = Relation.create (int_schema [ "A"; "B" ]) in
        let s = Relation.create (int_schema [ "B"; "C" ]) in
        Alcotest.(check int) "empty" 0
          (Relation.cardinal (Ops.natural_join r s)));
    quick "rename" (fun () ->
        let r = rel [ "A" ] [ [ 1 ] ] in
        let renamed = Ops.rename (fun a -> "x." ^ a) r in
        Alcotest.(check (list string)) "renamed" [ "x.A" ]
          (Schema.names (Relation.schema renamed)));
  ]

(* ------------------------------------------------------------------ *)
(* Database                                                           *)
(* ------------------------------------------------------------------ *)

let database_tests =
  [
    quick "register and find" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        Alcotest.(check int) "found" 1 (Relation.cardinal (Database.find db "R")));
    quick "register duplicate raises" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [] ) ] in
        Alcotest.check_raises "dup"
          (Invalid_argument "Database.register: \"R\" already exists")
          (fun () -> Database.register db "R" (rel [ "A" ] [])));
    quick "find missing raises the typed exception" (fun () ->
        Alcotest.check_raises "missing" (Database.Unknown_relation "Z")
          (fun () -> ignore (Database.find (Database.create ()) "Z")));
    quick "names sorted" (fun () ->
        let db = db_of [ ("B", rel [ "X" ] []); ("A", rel [ "Y" ] []) ] in
        Alcotest.(check (list string)) "sorted" [ "A"; "B" ] (Database.names db));
    quick "copy is deep" (fun () ->
        let db = db_of [ ("R", rel [ "A" ] [ [ 1 ] ]) ] in
        let db2 = Database.copy db in
        Relation.add (Database.find db2 "R") (Tuple.of_ints [ 2 ]);
        Alcotest.(check int) "original intact" 1
          (Relation.cardinal (Database.find db "R")));
  ]

(* ------------------------------------------------------------------ *)
(* Transaction                                                        *)
(* ------------------------------------------------------------------ *)

let transaction_tests =
  let fresh_db () =
    db_of
      [
        ("R", rel [ "A" ] [ [ 1 ]; [ 2 ] ]);
        ("S", rel [ "B" ] [ [ 10 ] ]);
      ]
  in
  [
    quick "simple insert" (fun () ->
        let db = fresh_db () in
        let net = Transaction.net_effect db [ Transaction.insert "R" (Tuple.of_ints [ 3 ]) ] in
        Alcotest.(check int) "one entry" 1 (List.length net);
        let inserts, deletes = List.assoc "R" net in
        Alcotest.(check int) "one insert" 1 (List.length inserts);
        Alcotest.(check int) "no delete" 0 (List.length deletes));
    quick "insert then delete cancels" (fun () ->
        let db = fresh_db () in
        let t = Tuple.of_ints [ 3 ] in
        let net =
          Transaction.net_effect db
            [ Transaction.insert "R" t; Transaction.delete "R" t ]
        in
        Alcotest.(check int) "empty net" 0 (List.length net));
    quick "delete then reinsert cancels" (fun () ->
        let db = fresh_db () in
        let t = Tuple.of_ints [ 1 ] in
        let net =
          Transaction.net_effect db
            [ Transaction.delete "R" t; Transaction.insert "R" t ]
        in
        Alcotest.(check int) "empty net" 0 (List.length net));
    quick "strict insert of existing raises" (fun () ->
        let db = fresh_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Transaction.net_effect db
                  [ Transaction.insert "R" (Tuple.of_ints [ 1 ]) ]);
             false
           with Transaction.Invalid _ -> true));
    quick "strict delete of absent raises" (fun () ->
        let db = fresh_db () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Transaction.net_effect db
                  [ Transaction.delete "R" (Tuple.of_ints [ 99 ]) ]);
             false
           with Transaction.Invalid _ -> true));
    quick "non-strict ignores no-ops" (fun () ->
        let db = fresh_db () in
        let net =
          Transaction.net_effect ~strict:false db
            [
              Transaction.insert "R" (Tuple.of_ints [ 1 ]);
              Transaction.delete "R" (Tuple.of_ints [ 99 ]);
            ]
        in
        Alcotest.(check int) "empty" 0 (List.length net));
    quick "multi-relation net is sorted by name" (fun () ->
        let db = fresh_db () in
        let net =
          Transaction.net_effect db
            [
              Transaction.insert "S" (Tuple.of_ints [ 20 ]);
              Transaction.insert "R" (Tuple.of_ints [ 5 ]);
            ]
        in
        Alcotest.(check (list string)) "sorted" [ "R"; "S" ]
          (List.map fst net));
    quick "net does not modify the database" (fun () ->
        let db = fresh_db () in
        ignore
          (Transaction.net_effect db
             [ Transaction.insert "R" (Tuple.of_ints [ 3 ]) ]);
        Alcotest.(check int) "unchanged" 2
          (Relation.cardinal (Database.find db "R")));
    quick "apply installs the net effect" (fun () ->
        let db = fresh_db () in
        let net =
          Transaction.net_effect db
            [
              Transaction.insert "R" (Tuple.of_ints [ 3 ]);
              Transaction.delete "R" (Tuple.of_ints [ 1 ]);
            ]
        in
        Transaction.apply db net;
        check_rel "final" (rel [ "A" ] [ [ 2 ]; [ 3 ] ]) (Database.find db "R"));
    quick "sequential equivalence" (fun () ->
        (* Applying the net effect equals applying the ops one by one. *)
        let db1 = fresh_db () and db2 = fresh_db () in
        let t3 = Tuple.of_ints [ 3 ] and t1 = Tuple.of_ints [ 1 ] in
        let txn =
          [
            Transaction.insert "R" t3;
            Transaction.delete "R" t3;
            Transaction.delete "R" t1;
            Transaction.insert "R" t3;
          ]
        in
        Transaction.apply db1 (Transaction.net_effect db1 txn);
        List.iter
          (fun op ->
            match op with
            | Transaction.Insert (n, t) -> Relation.add (Database.find db2 n) t
            | Transaction.Delete (n, t) ->
              Relation.remove (Database.find db2 n) t)
          txn;
        check_rel "same final state" (Database.find db2 "R")
          (Database.find db1 "R"));
    quick "of_sets drops empty entries" (fun () ->
        let net =
          Transaction.of_sets
            [ ("B", ([], [])); ("A", ([ Tuple.of_ints [ 1 ] ], [])) ]
        in
        Alcotest.(check (list string)) "only A" [ "A" ] (List.map fst net));
    quick "type checking inside transactions" (fun () ->
        let db = fresh_db () in
        Alcotest.(check bool) "bad arity rejected" true
          (try
             ignore
               (Transaction.net_effect db
                  [ Transaction.insert "R" (Tuple.of_ints [ 1; 2 ]) ]);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Domain bounds                                                      *)
(* ------------------------------------------------------------------ *)

let bounds_tests =
  [
    quick "bounded schema exposes its bounds" (fun () ->
        let s =
          Schema.make_bounded
            [ ("A", Value.Int_ty, Some (0, 9)); ("B", Value.Int_ty, None) ]
        in
        Alcotest.(check (option (pair int int))) "A" (Some (0, 9))
          (Schema.bounds s "A");
        Alcotest.(check (option (pair int int))) "B" None (Schema.bounds s "B"));
    quick "bounds survive qualify, project and concat" (fun () ->
        let s = Schema.make_bounded [ ("A", Value.Int_ty, Some (1, 5)) ] in
        let q = Schema.qualify ~alias:"r" s in
        Alcotest.(check (option (pair int int))) "qualified" (Some (1, 5))
          (Schema.bounds q "r.A");
        let sub, _ = Schema.project q [ "r.A" ] in
        Alcotest.(check (option (pair int int))) "projected" (Some (1, 5))
          (Schema.bounds sub "r.A");
        let c = Schema.concat q (int_schema [ "X" ]) in
        Alcotest.(check (option (pair int int))) "concatenated" (Some (1, 5))
          (Schema.bounds c "r.A"));
    quick "bounds on strings rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Schema.make_bounded [ ("n", Value.Str_ty, Some (0, 1)) ]);
             false
           with Invalid_argument _ -> true));
    quick "empty domain rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Schema.make_bounded [ ("A", Value.Int_ty, Some (5, 4)) ]);
             false
           with Invalid_argument _ -> true));
    quick "tuple check enforces bounds" (fun () ->
        let s = Schema.make_bounded [ ("A", Value.Int_ty, Some (0, 9)) ] in
        Tuple.check s (Tuple.of_ints [ 9 ]);
        Alcotest.(check bool) "raises" true
          (try
             Tuple.check s (Tuple.of_ints [ 10 ]);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* CSV serialization                                                  *)
(* ------------------------------------------------------------------ *)

let contains_substring needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i =
    i + n <= h && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

(* [text] must fail to load with a [Parse_error] naming [line] and
   mentioning [fragment]. *)
let csv_rejected text ~line fragment =
  match Csv.of_string text with
  | _ -> Alcotest.fail ("accepted: " ^ String.escaped text)
  | exception Csv.Parse_error message ->
    Alcotest.(check bool)
      (Printf.sprintf "line %d, %s: %s" line fragment message)
      true
      (contains_substring (Printf.sprintf "line %d:" line) message
      && contains_substring fragment message)

(* Token-level CSV text: header cells (bounded, duplicated, malformed)
   and value cells (out of domain, huge, quoted) joined into lines. *)
let csv_token_text =
  QCheck.Gen.(
    let cells tokens = map (String.concat ",") (list_size (int_range 1 3) (oneofl tokens)) in
    let header =
      cells
        [ "A:int"; "B:str"; "A:int[5..1]"; "A:int[1..3]"; "C:int[0..9]";
          "#"; "A:int[x..1]"; "\"A:int\""; "A:"; ":int"; "A:int[" ]
    in
    let row =
      cells
        [ "1"; "2"; "9"; "-3"; "x"; "\"q\""; "\"\""; "";
          "4611686018427387903"; "99999999999999999999" ]
    in
    map2
      (fun h rows -> String.concat "\n" (h :: rows))
      header (list_size (int_bound 4) row))

let csv_fuzz ~name gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       (fun text ->
         match Csv.of_string text with
         | _ -> true
         | exception Csv.Parse_error _ -> true
         | exception e ->
           QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e)))

let csv_tests =
  let roundtrip r = Csv.of_string (Csv.to_string r) in
  [
    quick "integer relation round-trips" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
        check_rel "roundtrip" r (roundtrip r));
    quick "counters round-trip" (fun () ->
        let r = counted_rel [ "A" ] [ ([ 1 ], 3); ([ 2 ], 1) ] in
        check_rel "roundtrip" r (roundtrip r));
    quick "strings with commas and quotes round-trip" (fun () ->
        let schema =
          Schema.make [ ("id", Value.Int_ty); ("name", Value.Str_ty) ]
        in
        let r =
          Relation.of_tuples schema
            [
              [| Value.Int 1; Value.Str "plain" |];
              [| Value.Int 2; Value.Str "with, comma" |];
              [| Value.Int 3; Value.Str "say \"hi\"" |];
              [| Value.Int 4; Value.Str "" |];
              [| Value.Int 5; Value.Str " padded " |];
              [| Value.Int 6; Value.Str "12345" |];
            ]
        in
        check_rel "roundtrip" r (roundtrip r));
    quick "bounds round-trip through the header" (fun () ->
        let schema = Schema.make_bounded [ ("A", Value.Int_ty, Some (0, 9)) ] in
        let r = Relation.of_tuples schema [ Tuple.of_ints [ 5 ] ] in
        let back = roundtrip r in
        Alcotest.(check (option (pair int int))) "bounds" (Some (0, 9))
          (Schema.bounds (Relation.schema back) "A"));
    quick "empty relation round-trips" (fun () ->
        let r = rel [ "A" ] [] in
        check_rel "roundtrip" r (roundtrip r));
    quick "random relations round-trip" (fun () ->
        let rng = Workload.Rng.make 5 in
        for _ = 1 to 50 do
          let schema =
            Schema.make [ ("k", Value.Int_ty); ("s", Value.Str_ty) ]
          in
          let r = Relation.create schema in
          let pool = [| "a"; "b,c"; "\""; " x"; ""; "0"; "long text here" |] in
          for _ = 1 to Workload.Rng.int rng 20 do
            Relation.add
              ~count:(1 + Workload.Rng.int rng 3)
              r
              [|
                Value.Int (Workload.Rng.range rng ~lo:(-50) ~hi:50);
                Value.Str (Workload.Rng.choice rng pool);
              |]
          done;
          check_rel "roundtrip" r (roundtrip r)
        done);
    quick "parse errors carry line numbers" (fun () ->
        List.iter
          (fun (text, fragment) ->
            match Csv.of_string text with
            | _ -> Alcotest.fail ("expected failure for " ^ fragment)
            | exception Csv.Parse_error message ->
              Alcotest.(check bool)
                (Printf.sprintf "mentions %s" fragment)
                true
                (contains_substring fragment message))
          [
            ("A:int\nx\n", "not an integer");
            ("A:int\n1,2\n", "expected 1 cells");
            ("A:what\n", "unknown type");
            ("A:int,#,B:int\n", "last header column");
            ("A:int\n\"1\n", "unterminated");
          ]);
    quick "database save and load round-trips" (fun () ->
        let db =
          db_of
            [
              ("R", rel [ "A" ] [ [ 1 ]; [ 2 ] ]);
              ("S", counted_rel [ "B" ] [ ([ 7 ], 2) ]);
            ]
        in
        let dir = Filename.temp_file "ivm" "dir" in
        Sys.remove dir;
        Csv.save_database ~dir db;
        let back = Csv.load_database ~dir in
        Alcotest.(check (list string)) "names" [ "R"; "S" ] (Database.names back);
        check_rel "R" (Database.find db "R") (Database.find back "R");
        check_rel "S" (Database.find db "S") (Database.find back "S"));
    quick "a duplicate header attribute is a parse error" (fun () ->
        csv_rejected "A:int,A:int\n1,2\n" ~line:1 "duplicate attribute");
    quick "an empty header domain is a parse error" (fun () ->
        csv_rejected "A:int[5..1]\n" ~line:1 "empty domain");
    quick "a value outside its domain is a parse error" (fun () ->
        csv_rejected "A:int[1..3]\n1\n9\n" ~line:3 "outside domain");
    quick "a counter sum past max_int is a parse error" (fun () ->
        csv_rejected "A:int,#\n1,4611686018427387903\n1,4611686018427387903\n"
          ~line:3 "counter overflow");
    csv_fuzz ~name:"token-level text" csv_token_text;
    csv_fuzz ~name:"byte-level text"
      QCheck.Gen.(string_size ~gen:char (int_bound 40));
  ]


(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                  *)
(* ------------------------------------------------------------------ *)

let index_tests =
  let matches index key =
    let out = ref [] in
    Relation.iter_matches index key (fun t c ->
        out := (Array.to_list t, c) :: !out);
    List.sort compare !out
  in
  (* Relations of (A, B), indexed on B. *)
  let on_b = [| 1 |] in
  [
    quick "build indexes existing tuples" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ] in
        let index = Relation.index r ~positions:on_b in
        Alcotest.(check int) "two keys" 2 (Relation.key_count index);
        Alcotest.(check (list (pair (list value_testable) int)))
          "B=10"
          [ ([ Value.Int 1; Value.Int 10 ], 1); ([ Value.Int 2; Value.Int 10 ], 1) ]
          (matches index (Tuple.of_ints [ 10 ])));
    quick "index follows inserts and deletes" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        let index = Relation.index r ~positions:on_b in
        Relation.add r (Tuple.of_ints [ 2; 10 ]);
        Relation.add r (Tuple.of_ints [ 3; 30 ]);
        Relation.remove r (Tuple.of_ints [ 1; 10 ]);
        Alcotest.(check int) "keys" 2 (Relation.key_count index);
        Alcotest.(check int) "B=10 matches" 1
          (List.length (matches index (Tuple.of_ints [ 10 ]))));
    quick "index follows counters" (fun () ->
        let r = Relation.create (int_schema [ "A"; "B" ]) in
        let index = Relation.index r ~positions:on_b in
        Relation.add ~count:3 r (Tuple.of_ints [ 1; 10 ]);
        Relation.update r (Tuple.of_ints [ 1; 10 ]) (-2);
        Alcotest.(check (list (pair (list value_testable) int)))
          "count 1"
          [ ([ Value.Int 1; Value.Int 10 ], 1) ]
          (matches index (Tuple.of_ints [ 10 ])));
    quick "empty key bucket disappears" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        let index = Relation.index r ~positions:on_b in
        Relation.remove r (Tuple.of_ints [ 1; 10 ]);
        Alcotest.(check int) "no keys" 0 (Relation.key_count index));
    quick "find by storage id survives reschema" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        ignore (Relation.index r ~positions:on_b);
        let view = Relation.reschema r (int_schema [ "r.A"; "r.B" ]) in
        Alcotest.(check bool) "found" true
          (Relation.find_index view ~positions:on_b <> None));
    quick "copy does not share the index" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        ignore (Relation.index r ~positions:on_b);
        Alcotest.(check bool) "copy unfound" true
          (Relation.find_index (Relation.copy r) ~positions:on_b = None));
    quick "drop stops maintenance and lookup" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        ignore (Relation.index r ~positions:on_b);
        Relation.drop_index r ~positions:on_b;
        Alcotest.(check bool) "gone" true
          (Relation.find_index r ~positions:on_b = None);
        (* Updating after drop must not raise. *)
        Relation.add r (Tuple.of_ints [ 2; 20 ]));
    quick "build is idempotent" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        let i1 = Relation.index r ~positions:on_b in
        let i2 = Relation.index r ~positions:on_b in
        Alcotest.(check bool) "same index" true (i1 == i2));
    quick "an index built through an alias serves the store" (fun () ->
        let r = rel [ "A"; "B" ] [ [ 1; 10 ] ] in
        let alias = Relation.reschema r (int_schema [ "r.A"; "r.B" ]) in
        let index = Relation.index alias ~positions:on_b in
        Relation.add r (Tuple.of_ints [ 2; 10 ]);
        (match Relation.find_index r ~positions:on_b with
        | Some found ->
          Alcotest.(check bool) "the same index" true (found == index)
        | None -> Alcotest.fail "not found on the store");
        Alcotest.(check int) "follows the store's writes" 2
          (List.length (matches index (Tuple.of_ints [ 10 ]))));
    quick "an index dies with its relation" (fun () ->
        (* 30 indexed 20k-tuple relations, built and let go: nothing may
           keep their indexes alive. *)
        let live () =
          Gc.compact ();
          (Gc.stat ()).Gc.live_words
        in
        let before = live () in
        for _ = 1 to 30 do
          let r = Relation.create ~size_hint:20_000 (int_schema [ "A"; "B" ]) in
          for a = 1 to 20_000 do
            Relation.add r (Tuple.of_ints [ a; a mod 97 ])
          done;
          ignore (Relation.index r ~positions:on_b)
        done;
        let grown_mb = float_of_int ((live () - before) * 8) /. 1e6 in
        Alcotest.(check bool)
          (Printf.sprintf "live heap grew %.1f MB (< 4 MB)" grown_mb)
          true (grown_mb < 4.0));
    quick "indexed planner joins agree with unindexed" (fun () ->
        let rng = Workload.Rng.make 61 in
        let scenario =
          Workload.Scenario.pair ~rng ~size_r:300 ~size_s:300 ~key_range:40
        in
        let db = scenario.Workload.Scenario.db in
        ignore (Relation.index (Database.find db "S") ~positions:[| 0 |]);
        let mgr, view =
          managed ~name:"ix" db Query.Expr.(join (base "R") (base "S"))
        in
        for _ = 1 to 15 do
          let txn =
            Workload.Generate.mixed_transaction rng db
              [
                ("R", Workload.Scenario.columns_of scenario "R", 2, 2);
                ("S", Workload.Scenario.columns_of scenario "S", 2, 2);
              ]
          in
          ignore (Ivm.Manager.commit mgr txn)
        done;
        Alcotest.(check bool) "consistent" true (Ivm.View.consistent view db));
  ]

(* ------------------------------------------------------------------ *)
(* Hashing: every relation, index and join table keys on Tuple.hash     *)
(* ------------------------------------------------------------------ *)

(* The longest chain when [hashes] fill 2^16 buckets by their low bits,
   the way a table of that size indexes them. *)
let longest_chain hashes =
  let buckets = Array.make 65536 0 in
  List.iter
    (fun h ->
      let i = h land 0xFFFF in
      buckets.(i) <- buckets.(i) + 1)
    hashes;
  Array.fold_left max 0 buckets

let check_spread what hashes =
  let chain = longest_chain hashes in
  Alcotest.(check bool)
    (Printf.sprintf "%s: longest chain %d <= 12" what chain)
    true (chain <= 12)

let hash_tests =
  [
    quick "equal values and tuples hash equal" (fun () ->
        List.iter
          (fun (a, b) ->
            Alcotest.(check bool) "equal" true (Value.equal a b);
            Alcotest.(check int) "value hash" (Value.hash a) (Value.hash b))
          [
            (Value.Int 0, Value.Int 0);
            (Value.Int (-1), Value.Int (-1));
            (Value.Int max_int, Value.Int max_int);
            (Value.Int min_int, Value.Int min_int);
            (Value.Str "", Value.Str "");
            (Value.Str "north", Value.Str (String.concat "" [ "nor"; "th" ]));
          ];
        let a = [| Value.Int 7; Value.Str "east"; Value.Int (-3) |] in
        let b = Array.map Fun.id a in
        Alcotest.(check int) "tuple hash" (Tuple.hash a) (Tuple.hash b));
    quick "sequential and strided ints spread over low bits" (fun () ->
        check_spread "sequential values"
          (List.init 40_000 (fun i -> Value.hash (Value.Int i)));
        check_spread "sequential 1-tuples"
          (List.init 40_000 (fun i -> Tuple.hash (Tuple.of_ints [ i ])));
        check_spread "1,024 stride"
          (List.init 40_000 (fun i -> Value.hash (Value.Int (i * 1024))));
        check_spread "1,024 stride 1-tuples"
          (List.init 40_000 (fun i -> Tuple.hash (Tuple.of_ints [ i * 1024 ]))));
    quick "orders tuples and short strings spread over low bits" (fun () ->
        let sc =
          Workload.Scenario.orders ~rng:(Workload.Rng.make 1986)
            ~customers:2_000 ~orders:40_000
        in
        check_spread "orders"
          (Relation.fold
             (fun t _ acc -> Tuple.hash t :: acc)
             (Database.find sc.Workload.Scenario.db "orders")
             []);
        check_spread "short strings"
          (List.init 40_000 (fun i ->
               Value.hash (Value.Str (Printf.sprintf "s%d" i)))));
  ]

let () =
  Alcotest.run "relalg"
    [
      ("value", value_tests);
      ("hash", hash_tests);
      ("attr", attr_tests);
      ("schema", schema_tests);
      ("tuple", tuple_tests);
      ("relation", relation_tests);
      ("ops", ops_tests);
      ("database", database_tests);
      ("transaction", transaction_tests);
      ("bounds", bounds_tests);
      ("csv", csv_tests);
      ("index", index_tests);
    ]
