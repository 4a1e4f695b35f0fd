(* Shared builders for the test suites. *)

open Relalg

let int_schema names =
  Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

(* [rel ["A"; "B"] [[1; 2]; [3; 4]]] builds a unit-count relation. *)
let rel names rows =
  Relation.of_tuples (int_schema names) (List.map Tuple.of_ints rows)

let counted_rel names rows =
  Relation.of_counted (int_schema names)
    (List.map (fun (row, c) -> (Tuple.of_ints row, c)) rows)

let db_of assoc =
  let db = Database.create () in
  List.iter (fun (name, relation) -> Database.register db name relation) assoc;
  db

let relation_testable = Alcotest.testable Relation.pp Relation.equal
let relation_set_testable = Alcotest.testable Relation.pp Relation.set_equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let schema_testable = Alcotest.testable Schema.pp Schema.equal

let value_testable = Alcotest.testable Value.pp Value.equal

let verdict_testable =
  Alcotest.testable Condition.Satisfiability.pp_verdict ( = )

let check_rel msg expected actual =
  Alcotest.check relation_testable msg expected actual

(* Sorted (tuple, count) view of a relation, for order-insensitive
   assertions with readable diffs. *)
let contents r =
  List.map
    (fun (t, c) -> (Array.to_list t, c))
    (Relation.sorted_elements r)

let ints_contents r =
  List.map (fun (vs, c) -> (List.map Value.int vs, c)) (contents r)

(* Paper Example 4.1 database: r(A,B) and s(C,D). *)
let example_4_1_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 5; 10 ] ]);
      ("S", rel [ "C"; "D" ] [ [ 2; 10 ]; [ 10; 20 ]; [ 12; 15 ] ]);
    ]

(* The view of Example 4.1: pi_{A,D}(sigma_{A<10 & C>5 & B=C}(R x S)). *)
let example_4_1_expr () =
  let open Condition.Formula.Dsl in
  let cond = (v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C") in
  Query.Expr.(project [ "A"; "D" ] (select cond (product (base "R") (base "S"))))

(* A manager over [db] with the one view [expr] registered as [name];
   the suites commit through [Manager.commit].  [force] keeps a
   definition the analyzer would reject, as [View.define] does. *)
let managed ?options ?keys ~name db expr =
  let mgr = Ivm.Manager.create db in
  (mgr, Ivm.Manager.define_view mgr ~name ?options ?keys ~force:true expr)

let quick name f = Alcotest.test_case name `Quick f
