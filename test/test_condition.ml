open Relalg
open Helpers
module F = Condition.Formula
module Norm = Condition.Norm
module Graph = Condition.Constraint_graph
module Sat = Condition.Satisfiability
module Sub = Condition.Substitute
module Eq = Condition.Eq_solver
open F.Dsl

let lookup_of assoc v =
  match List.assoc_opt v assoc with
  | Some x -> x
  | None -> raise Not_found

let int_lookup assoc v = Value.Int (lookup_of assoc v)

let check_verdict msg expected actual =
  Alcotest.check verdict_testable msg expected actual

(* ------------------------------------------------------------------ *)
(* Formula construction and evaluation                                *)
(* ------------------------------------------------------------------ *)

let formula_tests =
  [
    quick "eval atoms for every comparator" (fun () ->
        let l = int_lookup [ ("x", 5); ("y", 7) ] in
        let cases =
          [
            (v "x" =% i 5, true);
            (v "x" =% i 6, false);
            (v "x" <>% i 6, true);
            (v "x" <% v "y", true);
            (v "x" <=% i 5, true);
            (v "x" >% i 4, true);
            (v "x" >=% i 6, false);
          ]
        in
        List.iteri
          (fun idx (f, expected) ->
            Alcotest.(check bool)
              (Printf.sprintf "case %d" idx)
              expected (F.eval l f))
          cases);
    quick "shift arithmetic x < y + c" (fun () ->
        let l = int_lookup [ ("x", 9); ("y", 7) ] in
        Alcotest.(check bool) "9 < 7+3" true (F.eval l (v "x" <% v "y" +% 3));
        Alcotest.(check bool) "9 < 7+2 is false" false
          (F.eval l (v "x" <% v "y" +% 2)));
    quick "shift on the left side moves right" (fun () ->
        (* x + 2 <= y  <=>  x <= y - 2 *)
        let l = int_lookup [ ("x", 5); ("y", 7) ] in
        Alcotest.(check bool) "5+2 <= 7" true (F.eval l (v "x" +% 2 <=% v "y"));
        Alcotest.(check bool) "5+3 <= 7 false" false
          (F.eval l (v "x" +% 3 <=% v "y")));
    quick "constant folding in the smart constructor" (fun () ->
        match v "x" <% i 5 +% 3 with
        | F.Atom { F.right = F.O_const (Value.Int 8); shift = 0; _ } -> ()
        | _ -> Alcotest.fail "shift not folded into constant");
    quick "string shift rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (F.atom (F.O_var "x") F.Eq ~shift:1 (F.O_const (Value.Str "a")));
             false
           with Invalid_argument _ -> true));
    quick "boolean connectives" (fun () ->
        let l = int_lookup [ ("x", 5) ] in
        Alcotest.(check bool) "and" false
          (F.eval l ((v "x" <% i 10) &&% (v "x" >% i 5)));
        Alcotest.(check bool) "or" true
          (F.eval l ((v "x" <% i 3) ||% (v "x" =% i 5)));
        Alcotest.(check bool) "not" true (F.eval l (not_ (v "x" =% i 6))));
    quick "negate_atom truth tables" (fun () ->
        let l = int_lookup [ ("x", 5); ("y", 5) ] in
        List.iter
          (fun f ->
            match f with
            | F.Atom a ->
              Alcotest.(check bool) "negation flips" (not (F.eval_atom l a))
                (F.eval_atom l (F.negate_atom a))
            | _ -> Alcotest.fail "expected atom")
          [
            v "x" =% v "y";
            v "x" <>% v "y";
            v "x" <% v "y";
            v "x" <=% v "y";
            v "x" >% v "y";
            v "x" >=% v "y";
          ]);
    quick "converse comparators" (fun () ->
        let l = int_lookup [ ("x", 3); ("y", 8) ] in
        List.iter
          (fun cmp ->
            let direct = F.eval_atom l (F.atom (F.O_var "x") cmp (F.O_var "y")) in
            let flipped =
              F.eval_atom l (F.atom (F.O_var "y") (F.converse cmp) (F.O_var "x"))
            in
            Alcotest.(check bool) "converse agrees" direct flipped)
          [ F.Eq; F.Neq; F.Lt; F.Leq; F.Gt; F.Geq ]);
    quick "vars are sorted and unique" (fun () ->
        Alcotest.(check (list string)) "vars" [ "a"; "b"; "c" ]
          (F.vars ((v "c" <% v "a") &&% (v "b" =% v "a"))));
    quick "True and False" (fun () ->
        let l = int_lookup [] in
        Alcotest.(check bool) "true" true (F.eval l F.True);
        Alcotest.(check bool) "false" false (F.eval l F.False));
    quick "unbound variable raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (F.eval (int_lookup []) (v "z" <% i 1));
             false
           with Not_found -> true));
  ]

(* ------------------------------------------------------------------ *)
(* DNF conversion                                                     *)
(* ------------------------------------------------------------------ *)

let dnf_equiv f assignments =
  let d = F.to_dnf f in
  List.for_all
    (fun assignment ->
      let l = int_lookup assignment in
      F.eval l f = F.eval_dnf l d)
    assignments

let all_assignments vars lo hi =
  let rec go = function
    | [] -> [ [] ]
    | v :: rest ->
      let tails = go rest in
      List.concat_map
        (fun x -> List.map (fun tail -> (v, x) :: tail) tails)
        (List.init (hi - lo + 1) (fun k -> lo + k))
  in
  go vars

let dnf_tests =
  [
    quick "atom is a single disjunct" (fun () ->
        Alcotest.(check int) "one disjunct" 1
          (List.length (F.to_dnf (v "x" <% i 5))));
    quick "and of atoms stays one disjunct" (fun () ->
        Alcotest.(check int) "one" 1
          (List.length (F.to_dnf ((v "x" <% i 5) &&% (v "y" >% i 2)))));
    quick "or of atoms gives two disjuncts" (fun () ->
        Alcotest.(check int) "two" 2
          (List.length (F.to_dnf ((v "x" <% i 5) ||% (v "y" >% i 2)))));
    quick "distribution (a or b) and (c or d)" (fun () ->
        let f =
          ((v "a" <% i 1) ||% (v "b" <% i 1))
          &&% ((v "c" <% i 1) ||% (v "d" <% i 1))
        in
        Alcotest.(check int) "four" 4 (List.length (F.to_dnf f)));
    quick "de morgan under negation" (fun () ->
        let f = not_ ((v "x" <% i 5) &&% (v "y" >% i 2)) in
        Alcotest.(check int) "two disjuncts" 2 (List.length (F.to_dnf f)));
    quick "semantic equivalence on nested shapes" (fun () ->
        let shapes =
          [
            not_ ((v "x" <% i 2) ||% ((v "y" =% i 1) &&% (v "x" >=% i 1)));
            (v "x" <% v "y") &&% not_ (v "y" <% i 2) ||% (v "x" =% i 3);
            not_ (not_ (v "x" =% i 0));
            (v "x" <=% v "y") &&% ((v "y" <=% i 2) ||% not_ (v "x" =% i 1));
          ]
        in
        let assignments = all_assignments [ "x"; "y" ] 0 3 in
        List.iteri
          (fun idx f ->
            Alcotest.(check bool)
              (Printf.sprintf "shape %d" idx)
              true (dnf_equiv f assignments))
          shapes);
    quick "True gives the empty conjunction" (fun () ->
        Alcotest.(check bool) "[[]]" true (F.to_dnf F.True = [ [] ]));
    quick "False gives no disjuncts" (fun () ->
        Alcotest.(check bool) "[]" true (F.to_dnf F.False = []));
    quick "blowup guard" (fun () ->
        let big =
          F.conj (List.init 14 (fun k -> (v "x" =% i k) ||% (v "y" =% i k)))
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (F.to_dnf ~max_disjuncts:100 big);
             false
           with F.Dnf_too_large -> true));
    quick "of_dnf round trip" (fun () ->
        let f = (v "x" <% i 5) ||% ((v "y" =% i 1) &&% (v "x" >% i 0)) in
        let assignments = all_assignments [ "x"; "y" ] 0 3 in
        let round = F.of_dnf (F.to_dnf f) in
        Alcotest.(check bool) "equivalent" true
          (List.for_all
             (fun a ->
               let l = int_lookup a in
               F.eval l f = F.eval l round)
             assignments));
  ]

(* ------------------------------------------------------------------ *)
(* Normalization to difference constraints                            *)
(* ------------------------------------------------------------------ *)

let get_atom f =
  match f with
  | F.Atom a -> a
  | _ -> Alcotest.fail "expected an atom"

let norm_tests =
  [
    quick "x <= y + c" (fun () ->
        match Norm.normalize_atom (get_atom (v "x" <=% v "y" +% 3)) with
        | Norm.Constraints
            [ { Norm.from_node = Norm.Var "x"; to_node = Norm.Var "y"; bound = 3 } ]
          ->
          ()
        | _ -> Alcotest.fail "wrong normalization");
    quick "x < y becomes x - y <= -1" (fun () ->
        match Norm.normalize_atom (get_atom (v "x" <% v "y")) with
        | Norm.Constraints [ { Norm.bound = -1; _ } ] -> ()
        | _ -> Alcotest.fail "wrong bound");
    quick "x > y + c" (fun () ->
        match Norm.normalize_atom (get_atom (v "x" >% v "y" +% 2)) with
        | Norm.Constraints
            [
              { Norm.from_node = Norm.Var "y"; to_node = Norm.Var "x"; bound = -3 };
            ] ->
          ()
        | _ -> Alcotest.fail "wrong normalization");
    quick "equality yields two constraints" (fun () ->
        match Norm.normalize_atom (get_atom (v "x" =% v "y" +% 1)) with
        | Norm.Constraints [ _; _ ] -> ()
        | _ -> Alcotest.fail "expected two constraints");
    quick "x <= c uses the zero node" (fun () ->
        match Norm.normalize_atom (get_atom (v "x" <=% i 7)) with
        | Norm.Constraints
            [ { Norm.from_node = Norm.Var "x"; to_node = Norm.Zero; bound = 7 } ]
          ->
          ()
        | _ -> Alcotest.fail "wrong normalization");
    quick "c <= x flips through the converse" (fun () ->
        match Norm.normalize_atom (get_atom (i 7 <=% v "x")) with
        | Norm.Constraints
            [ { Norm.from_node = Norm.Zero; to_node = Norm.Var "x"; bound = -7 } ]
          ->
          ()
        | _ -> Alcotest.fail "wrong normalization");
    quick "constant atom evaluates" (fun () ->
        Alcotest.(check bool) "3 < 5" true
          (Norm.normalize_atom (get_atom (i 3 <% i 5)) = Norm.Truth true);
        Alcotest.(check bool) "5 < 3" true
          (Norm.normalize_atom (get_atom (i 5 <% i 3)) = Norm.Truth false));
    quick "integer disequality is outside the class" (fun () ->
        Alcotest.(check bool) "not normalizable" true
          (Norm.normalize_atom (get_atom (v "x" <>% v "y"))
          = Norm.Not_normalizable));
    quick "string operand rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Norm.normalize_atom (get_atom (v "x" =% s "a")));
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Constraint graph                                                   *)
(* ------------------------------------------------------------------ *)

let graph_of constraints vars =
  let g = Graph.create vars in
  List.iter (Graph.add_constraint g) constraints;
  g

let dc from_node to_node bound = { Norm.from_node; to_node; bound }

let graph_tests =
  [
    quick "consistent chain has no negative cycle" (fun () ->
        let g =
          graph_of
            [
              dc (Norm.Var "x") (Norm.Var "y") 0;
              dc (Norm.Var "y") (Norm.Var "z") 0;
              dc (Norm.Var "z") (Norm.Var "x") 0;
            ]
            [ "x"; "y"; "z" ]
        in
        Alcotest.(check bool) "no cycle" false
          (Graph.floyd_warshall g).Graph.negative);
    quick "strict cycle is negative" (fun () ->
        let g =
          graph_of
            [
              dc (Norm.Var "x") (Norm.Var "y") (-1);
              dc (Norm.Var "y") (Norm.Var "z") (-1);
              dc (Norm.Var "z") (Norm.Var "x") (-1);
            ]
            [ "x"; "y"; "z" ]
        in
        Alcotest.(check bool) "negative" true
          (Graph.floyd_warshall g).Graph.negative);
    quick "bellman-ford agrees with floyd" (fun () ->
        let cases =
          [
            ( [
                dc (Norm.Var "x") Norm.Zero 5; dc Norm.Zero (Norm.Var "x") (-6);
              ],
              true );
            ( [
                dc (Norm.Var "x") Norm.Zero 5; dc Norm.Zero (Norm.Var "x") (-5);
              ],
              false );
            ( [
                dc (Norm.Var "x") (Norm.Var "y") 2;
                dc (Norm.Var "y") (Norm.Var "x") (-3);
              ],
              true );
          ]
        in
        List.iteri
          (fun idx (cs, expected) ->
            let g = graph_of cs [ "x"; "y" ] in
            Alcotest.(check bool)
              (Printf.sprintf "floyd %d" idx)
              expected (Graph.floyd_warshall g).Graph.negative;
            Alcotest.(check bool)
              (Printf.sprintf "bellman %d" idx)
              expected
              (Graph.bellman_ford_negative g))
          cases);
    quick "parallel edges keep the minimum" (fun () ->
        let g = Graph.create [ "x" ] in
        Graph.add_constraint g (dc (Norm.Var "x") Norm.Zero 10);
        Graph.add_constraint g (dc (Norm.Var "x") Norm.Zero 3);
        Graph.add_constraint g (dc Norm.Zero (Norm.Var "x") (-4));
        Alcotest.(check bool) "negative" true
          (Graph.floyd_warshall g).Graph.negative);
    quick "incremental zero-edge detection" (fun () ->
        let g = graph_of [ dc (Norm.Var "x") (Norm.Var "y") 0 ] [ "x"; "y" ] in
        let apsp = Graph.floyd_warshall g in
        let ix = Graph.node_index g "x" and iy = Graph.node_index g "y" in
        Alcotest.(check bool) "negative" true
          (Graph.negative_with_zero_edges apsp ~extra_in:[ (ix, -6) ]
             ~extra_out:[ (iy, 5) ]);
        Alcotest.(check bool) "satisfiable variant" false
          (Graph.negative_with_zero_edges apsp ~extra_in:[ (ix, -6) ]
             ~extra_out:[ (iy, 6) ]));
    quick "incremental detection matches full recomputation" (fun () ->
        let rng = Workload.Rng.make 7 in
        for _ = 1 to 200 do
          let vars = [ "a"; "b"; "c" ] in
          let pick () =
            match Workload.Rng.int rng 4 with
            | 0 -> Norm.Zero
            | 1 -> Norm.Var "a"
            | 2 -> Norm.Var "b"
            | _ -> Norm.Var "c"
          in
          let invariant =
            List.filter
              (fun c -> c.Norm.from_node <> c.Norm.to_node)
              (List.init (Workload.Rng.int rng 4) (fun _ ->
                   dc (pick ()) (pick ()) (Workload.Rng.range rng ~lo:(-5) ~hi:5)))
          in
          let g = graph_of invariant vars in
          let apsp = Graph.floyd_warshall g in
          if not apsp.Graph.negative then begin
            let extras =
              List.init
                (1 + Workload.Rng.int rng 3)
                (fun _ ->
                  let var = List.nth vars (Workload.Rng.int rng 3) in
                  let w = Workload.Rng.range rng ~lo:(-5) ~hi:5 in
                  if Workload.Rng.chance rng 0.5 then `In (var, w)
                  else `Out (var, w))
            in
            let extra_in =
              List.filter_map
                (function
                  | `In (name, w) -> Some (Graph.node_index g name, w)
                  | `Out _ -> None)
                extras
            in
            let extra_out =
              List.filter_map
                (function
                  | `Out (name, w) -> Some (Graph.node_index g name, w)
                  | `In _ -> None)
                extras
            in
            let incremental =
              Graph.negative_with_zero_edges apsp ~extra_in ~extra_out
            in
            let full_graph = graph_of invariant vars in
            List.iter
              (function
                | `In (name, w) ->
                  Graph.add_edge full_graph ~from_index:Graph.zero_index
                    ~to_index:(Graph.node_index full_graph name)
                    w
                | `Out (name, w) ->
                  Graph.add_edge full_graph
                    ~from_index:(Graph.node_index full_graph name)
                    ~to_index:Graph.zero_index w)
              extras;
            let full = (Graph.floyd_warshall full_graph).Graph.negative in
            Alcotest.(check bool) "incremental = full" full incremental
          end
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Equality solver (string fragment)                                  *)
(* ------------------------------------------------------------------ *)

let eq_tests =
  [
    quick "equality chain satisfiable" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve [ get_atom (v "a" =% v "b"); get_atom (v "b" =% v "c") ]
          = Eq.Sat));
    quick "constant conflict" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve [ get_atom (v "a" =% s "x"); get_atom (v "a" =% s "y") ]
          = Eq.Unsat));
    quick "transitive constant conflict" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "a" =% s "x");
               get_atom (v "a" =% v "b");
               get_atom (v "b" =% s "y");
             ]
          = Eq.Unsat));
    quick "disequality within a class" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve [ get_atom (v "a" =% v "b"); get_atom (v "a" <>% v "b") ]
          = Eq.Unsat));
    quick "disequality across classes is fine" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve [ get_atom (v "a" <>% v "b") ] = Eq.Sat));
    quick "distinct classes pinned to the same constant" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "a" =% s "x");
               get_atom (v "b" =% s "x");
               get_atom (v "a" <>% v "b");
             ]
          = Eq.Unsat));
    quick "constant disequality" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve [ get_atom (s "x" <>% s "y") ] = Eq.Sat);
        Alcotest.(check bool) "unsat" true
          (Eq.solve [ get_atom (s "x" <>% s "x") ] = Eq.Unsat));
    quick "ordering against a constant stays unknown" (fun () ->
        (* Strings have gaps (nothing between "a" and "a\x00"), so
           constant-adjacent orderings cannot be proven satisfiable. *)
        Alcotest.(check bool) "unknown" true
          (Eq.solve [ get_atom (v "a" <% s "m") ] = Eq.Unknown));
    quick "variable-only ordering chain is satisfiable" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve [ get_atom (v "a" <% v "b"); get_atom (v "b" <=% v "c") ]
          = Eq.Sat));
    quick "strict ordering cycle is unsatisfiable" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "a" <% v "b");
               get_atom (v "b" <% v "c");
               get_atom (v "c" <% v "a");
             ]
          = Eq.Unsat));
    quick "weak ordering cycle is satisfiable" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve
             [
               get_atom (v "a" <=% v "b");
               get_atom (v "b" <=% v "c");
               get_atom (v "c" <=% v "a");
             ]
          = Eq.Sat));
    quick "ordering contradicts an equality" (fun () ->
        (* a = b together with a < b collapses to a strict self-loop. *)
        Alcotest.(check bool) "unsat" true
          (Eq.solve [ get_atom (v "a" =% v "b"); get_atom (v "a" <% v "b") ]
          = Eq.Unsat));
    quick "constant order facts propagate" (fun () ->
        (* a <= "m" and a >= "z" forces "z" <= "m": false. *)
        Alcotest.(check bool) "unsat" true
          (Eq.solve [ get_atom (v "a" <=% s "m"); get_atom (v "a" >=% s "z") ]
          = Eq.Unsat));
    quick "ordering between pinned classes" (fun () ->
        (* a = "m", b = "z", b < a contradicts "m" < "z". *)
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "a" =% s "m");
               get_atom (v "b" =% s "z");
               get_atom (v "b" <% v "a");
             ]
          = Eq.Unsat));
    quick "consistent constant orderings stay unknown, not unsat" (fun () ->
        Alcotest.(check bool) "unknown" true
          (Eq.solve [ get_atom (v "a" >% s "m"); get_atom (v "a" <% s "z") ]
          = Eq.Unknown));
    quick "a weak cycle forces equality against a disequality" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "x" <>% v "y");
               get_atom (v "x" <=% v "y");
               get_atom (v "y" <=% v "x");
             ]
          = Eq.Unsat));
    quick "a three-variable weak cycle forces its ends equal" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "x" <=% v "y");
               get_atom (v "y" <=% v "z");
               get_atom (v "z" <=% v "x");
               get_atom (v "x" <>% v "z");
             ]
          = Eq.Unsat));
    quick "a weak cycle through an equality class" (fun () ->
        (* y = w merges one node; x <= y, w <= x closes the cycle. *)
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "y" =% v "w");
               get_atom (v "x" <=% v "y");
               get_atom (v "w" <=% v "x");
               get_atom (v "x" <>% v "w");
             ]
          = Eq.Unsat));
    quick "a weak cycle through a constant pins its class" (fun () ->
        Alcotest.(check bool) "unsat" true
          (Eq.solve
             [
               get_atom (v "x" <=% s "m");
               get_atom (s "m" <=% v "x");
               get_atom (v "x" <>% s "m");
             ]
          = Eq.Unsat));
    quick "one weak edge leaves a disequality satisfiable" (fun () ->
        Alcotest.(check bool) "sat" true
          (Eq.solve [ get_atom (v "x" <=% v "y"); get_atom (v "x" <>% v "y") ]
          = Eq.Sat));
  ]

(* ------------------------------------------------------------------ *)
(* Satisfiability                                                     *)
(* ------------------------------------------------------------------ *)

let conj_of f =
  match F.to_dnf f with
  | [ c ] -> c
  | _ -> Alcotest.fail "expected a conjunction"

let sat_tests =
  [
    quick "paper example: C(9,10,C) is satisfiable" (fun () ->
        let c =
          conj_of ((i 9 <% i 10) &&% (v "C" >% i 5) &&% (i 10 =% v "C"))
        in
        check_verdict "sat" Sat.Sat (Sat.conjunction c));
    quick "paper example: C(11,10,C) is unsatisfiable" (fun () ->
        let c =
          conj_of ((i 11 <% i 10) &&% (v "C" >% i 5) &&% (i 10 =% v "C"))
        in
        check_verdict "unsat" Sat.Unsat (Sat.conjunction c));
    quick "empty range" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction (conj_of ((v "x" <% i 10) &&% (v "x" >% i 20)))));
    quick "tight but non-empty range" (fun () ->
        check_verdict "sat" Sat.Sat
          (Sat.conjunction (conj_of ((v "x" >=% i 10) &&% (v "x" <=% i 10)))));
    quick "integer gap: x > 5 and x < 6 is unsat" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction (conj_of ((v "x" >% i 5) &&% (v "x" <% i 6)))));
    quick "cyclic strict order" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction
             (conj_of
                ((v "x" <% v "y") &&% (v "y" <% v "z") &&% (v "z" <% v "x")))));
    quick "cyclic weak order is fine" (fun () ->
        check_verdict "sat" Sat.Sat
          (Sat.conjunction
             (conj_of
                ((v "x" <=% v "y") &&% (v "y" <=% v "z") &&% (v "z" <=% v "x")))));
    quick "shifted chain" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction
             (conj_of
                ((v "x" >=% v "y" +% 5)
                &&% (v "y" >=% v "z" +% 5)
                &&% (v "z" >=% v "x" +% -9)))));
    quick "equality propagation" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction
             (conj_of ((v "x" =% v "y") &&% (v "x" <% i 5) &&% (v "y" >% i 6)))));
    quick "disequality expansion finds the gap" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction
             (conj_of
                ((v "x" >=% i 0) &&% (v "x" <=% i 1) &&% (v "x" <>% i 0)
                &&% (v "x" <>% i 1)))));
    quick "disequality expansion keeps sat" (fun () ->
        check_verdict "sat" Sat.Sat
          (Sat.conjunction
             (conj_of ((v "x" >=% i 0) &&% (v "x" <=% i 2) &&% (v "x" <>% i 0)))));
    quick "too many disequalities degrade to unknown" (fun () ->
        let f =
          F.conj
            ((v "x" >=% i 0) :: (v "x" <=% i 10)
            :: List.init 6 (fun k -> v "x" <>% i k))
        in
        check_verdict "unknown" Sat.Unknown
          (Sat.conjunction ~neq_budget:3 (conj_of f)));
    quick "unsat dominates disequality budget" (fun () ->
        let f =
          F.conj
            ((v "x" >=% i 5) :: (v "x" <=% i 4)
            :: List.init 6 (fun k -> v "x" <>% i k))
        in
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction ~neq_budget:3 (conj_of f)));
    quick "constant-false atom kills the conjunction" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction (conj_of ((i 3 >% i 4) &&% (v "x" <% i 10)))));
    quick "string fragment integrates" (fun () ->
        let typing name =
          if String.length name = 1 then Value.Int_ty else Value.Str_ty
        in
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction ~typing
             (conj_of
                ((v "x" <% i 10) &&% (v "name" =% s "a") &&% (v "name" =% s "b")))));
    quick "cross-type equality is unsatisfiable" (fun () ->
        let typing _ = Value.Str_ty in
        check_verdict "unsat" Sat.Unsat
          (Sat.conjunction ~typing (conj_of (v "x" =% i 5))));
    quick "dnf: one satisfiable disjunct wins" (fun () ->
        check_verdict "sat" Sat.Sat
          (Sat.dnf
             (F.to_dnf (((v "x" <% i 0) &&% (v "x" >% i 0)) ||% (v "x" =% i 5)))));
    quick "dnf: all disjuncts unsat" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.dnf
             (F.to_dnf
                (((v "x" <% i 0) &&% (v "x" >% i 0))
                ||% ((v "x" <% i 5) &&% (v "x" >% i 7))))));
    quick "formula interface handles negation" (fun () ->
        check_verdict "unsat" Sat.Unsat
          (Sat.formula (not_ ((v "x" <% i 5) ||% (v "x" >=% i 5)))));
    quick "empty conjunction is satisfiable" (fun () ->
        check_verdict "sat" Sat.Sat (Sat.conjunction []));
    quick "brute force agreement on random conjunctions" (fun () ->
        let rng = Workload.Rng.make 13 in
        let vars = [ "x"; "y" ] in
        let random_atom () =
          let operand () =
            if Workload.Rng.chance rng 0.5 then
              F.O_var (List.nth vars (Workload.Rng.int rng 2))
            else F.O_const (Value.Int (Workload.Rng.range rng ~lo:0 ~hi:4))
          in
          let cmp =
            List.nth [ F.Eq; F.Lt; F.Leq; F.Gt; F.Geq ]
              (Workload.Rng.int rng 5)
          in
          F.atom (operand ()) cmp
            ~shift:(Workload.Rng.range rng ~lo:(-2) ~hi:2)
            (operand ())
        in
        for _ = 1 to 300 do
          let conj =
            List.init (1 + Workload.Rng.int rng 4) (fun _ -> random_atom ())
          in
          let verdict = Sat.conjunction conj in
          let witness =
            List.exists
              (fun assignment -> F.eval_conjunction (int_lookup assignment) conj)
              (all_assignments vars (-8) 12)
          in
          match verdict with
          | Sat.Unsat ->
            Alcotest.(check bool) "no witness when unsat" false witness
          | Sat.Sat -> Alcotest.(check bool) "witness when sat" true witness
          | Sat.Unknown -> Alcotest.fail "no disequalities were generated"
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Substitution (Definitions 4.1 - 4.3)                               *)
(* ------------------------------------------------------------------ *)

let substitute_tests =
  [
    quick "of_tuple binds schema attributes only" (fun () ->
        let schema = int_schema [ "A"; "B" ] in
        let lookup = Sub.of_tuple schema (Tuple.of_ints [ 4; 9 ]) in
        Alcotest.(check bool) "A bound" true (lookup "A" = Some (Value.Int 4));
        Alcotest.(check bool) "Z free" true (lookup "Z" = None));
    quick "atom substitution folds shifts" (fun () ->
        let schema = int_schema [ "B" ] in
        let lookup = Sub.of_tuple schema (Tuple.of_ints [ 9 ]) in
        match Sub.atom lookup (get_atom (v "x" <% v "B" +% 3)) with
        | { F.right = F.O_const (Value.Int 12); shift = 0; _ } -> ()
        | _ -> Alcotest.fail "shift not folded");
    quick "substitution leaves free variables" (fun () ->
        let schema = int_schema [ "A" ] in
        let lookup = Sub.of_tuple schema (Tuple.of_ints [ 1 ]) in
        match Sub.atom lookup (get_atom (v "A" =% v "C")) with
        | { F.left = F.O_const (Value.Int 1); right = F.O_var "C"; _ } -> ()
        | _ -> Alcotest.fail "wrong substitution");
    quick "combine takes the first binding" (fun () ->
        let l1 = Sub.of_tuple (int_schema [ "A" ]) (Tuple.of_ints [ 1 ]) in
        let l2 = Sub.of_tuple (int_schema [ "B" ]) (Tuple.of_ints [ 2 ]) in
        let combined = Sub.combine [ l1; l2 ] in
        Alcotest.(check bool) "A" true (combined "A" = Some (Value.Int 1));
        Alcotest.(check bool) "B" true (combined "B" = Some (Value.Int 2));
        Alcotest.(check bool) "C" true (combined "C" = None));
    quick "split into variant and invariant (Definition 4.2)" (fun () ->
        let conj =
          conj_of ((v "A" <% i 10) &&% (v "C" >% i 5) &&% (v "B" =% v "C"))
        in
        let bound a = List.mem a [ "A"; "B" ] in
        let split = Sub.split_conjunction ~bound conj in
        Alcotest.(check int) "two variant" 2 (List.length split.Sub.variant);
        Alcotest.(check int) "one invariant" 1 (List.length split.Sub.invariant));
    quick "substitute whole dnf" (fun () ->
        let d = F.to_dnf ((v "A" <% i 10) ||% (v "A" >% i 20)) in
        let lookup = Sub.of_tuple (int_schema [ "A" ]) (Tuple.of_ints [ 25 ]) in
        let substituted = Sub.dnf lookup d in
        Alcotest.(check bool) "evaluates true" true
          (F.eval_dnf (fun _ -> raise Not_found) substituted));
  ]

let () =
  Alcotest.run "condition"
    [
      ("formula", formula_tests);
      ("dnf", dnf_tests);
      ("norm", norm_tests);
      ("graph", graph_tests);
      ("eq_solver", eq_tests);
      ("satisfiability", sat_tests);
      ("substitute", substitute_tests);
    ]
