open Relalg
open Helpers
module F = Condition.Formula
module Expr = Query.Expr
module Parser = Query.Parser
open F.Dsl

let chain_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 10 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 10; 100 ]; [ 20; 200 ]; [ 30; 300 ] ]);
    ]

let lookup_in db name = Relation.schema (Database.find db name)

(* A parsed statement and a hand-built expression must evaluate to the
   same relation. *)
let check_same_eval db text expr =
  check_rel text
    (Query.Eval.eval db expr)
    (Query.Eval.eval db (Parser.view ~lookup:(lookup_in db) text))

let int_lookup assoc v =
  match List.assoc_opt v assoc with
  | Some x -> Value.Int x
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Conditions                                                         *)
(* ------------------------------------------------------------------ *)

let condition_tests =
  let equivalent text reference assignments =
    let parsed = Parser.condition text in
    List.for_all
      (fun assignment ->
        let l = int_lookup assignment in
        F.eval l parsed = F.eval l reference)
      assignments
  in
  let grid =
    List.concat_map
      (fun x -> List.map (fun y -> [ ("A", x); ("B", y) ]) [ 0; 5; 10; 15 ])
      [ 0; 5; 10; 15 ]
  in
  [
    quick "simple comparison" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "A < 10" (v "A" <% i 10) grid));
    quick "every comparator" (fun () ->
        List.iter
          (fun (text, reference) ->
            Alcotest.(check bool) text true (equivalent text reference grid))
          [
            ("A = 5", v "A" =% i 5);
            ("A <> 5", v "A" <>% i 5);
            ("A != 5", v "A" <>% i 5);
            ("A <= B", v "A" <=% v "B");
            ("A >= B", v "A" >=% v "B");
            ("A > 5", v "A" >% i 5);
          ]);
    quick "shifted comparison A < B + 3" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "A < B + 3" (v "A" <% v "B" +% 3) grid));
    quick "negative shift A >= B - 2" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "A >= B - 2" (v "A" >=% v "B" +% -2) grid));
    quick "and binds tighter than or" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "A = 0 OR A = 5 AND B = 5"
             ((v "A" =% i 0) ||% ((v "A" =% i 5) &&% (v "B" =% i 5)))
             grid));
    quick "parentheses override precedence" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "(A = 0 OR A = 5) AND B = 5"
             (((v "A" =% i 0) ||% (v "A" =% i 5)) &&% (v "B" =% i 5))
             grid));
    quick "not" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "NOT A < 10 AND B = 5"
             (not_ (v "A" <% i 10) &&% (v "B" =% i 5))
             grid));
    quick "string literal with escaped quote" (fun () ->
        match Parser.condition "name = 'O''Brien'" with
        | F.Atom { F.right = F.O_const (Value.Str "O'Brien"); _ } -> ()
        | _ -> Alcotest.fail "wrong string literal");
    quick "keywords are case-insensitive, identifiers are not" (fun () ->
        Alcotest.(check bool) "equivalent" true
          (equivalent "A = 1 and B = 2 Or A = 3"
             ((v "A" =% i 1) &&% (v "B" =% i 2) ||% (v "A" =% i 3))
             grid));
    quick "lexer errors carry positions" (fun () ->
        List.iter
          (fun text ->
            Alcotest.(check bool) text true
              (try
                 ignore (Parser.condition text);
                 false
               with Parser.Parse_error _ -> true))
          [ "A # 1"; "A <"; "A < 'oops"; "< 3"; "A = 1 AND"; "A = 1 2" ]);
  ]

(* ------------------------------------------------------------------ *)
(* SELECT statements                                                  *)
(* ------------------------------------------------------------------ *)

let select_tests =
  [
    quick "select star from one relation" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT * FROM R" (Expr.base "R"));
    quick "projection" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT B FROM R" Expr.(project [ "B" ] (base "R")));
    quick "selection" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT * FROM R WHERE A > 1"
          Expr.(select (v "A" >% i 1) (base "R")));
    quick "natural join via comma" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT A, C FROM R, S"
          Expr.(project [ "A"; "C" ] (join (base "R") (base "S"))));
    quick "JOIN keyword is a synonym" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT A, C FROM R JOIN S"
          Expr.(project [ "A"; "C" ] (join (base "R") (base "S"))));
    quick "full SPJ statement" (fun () ->
        let db = chain_db () in
        check_same_eval db "SELECT A, C FROM R, S WHERE A < 3 AND C > 100"
          Expr.(
            project [ "A"; "C" ]
              (select ((v "A" <% i 3) &&% (v "C" >% i 100))
                 (join (base "R") (base "S")))));
    quick "table alias renames attributes" (fun () ->
        let db = chain_db () in
        check_same_eval db
          "SELECT A, x_B FROM R, R AS x WHERE B = x_A"
          Expr.(
            project [ "A"; "x_B" ]
              (select
                 (v "B" =% v "x_A")
                 (join (base "R")
                    (rename [ ("A", "x_A"); ("B", "x_B") ] (base "R"))))));
    quick "parsed views maintain correctly" (fun () ->
        let db = chain_db () in
        let mgr, view =
          managed ~name:"parsed" db
            (Parser.view ~lookup:(lookup_in db)
               "SELECT A, C FROM R, S WHERE C <= 200")
        in
        ignore
          (Ivm.Manager.commit mgr
             [ Transaction.insert "R" (Tuple.of_ints [ 9; 20 ]) ]);
        Alcotest.(check bool) "consistent" true (Ivm.View.consistent view db));
    quick "statement errors" (fun () ->
        let db = chain_db () in
        List.iter
          (fun text ->
            Alcotest.(check bool) text true
              (try
                 ignore (Parser.view ~lookup:(lookup_in db) text);
                 false
               with Parser.Parse_error _ -> true))
          [
            "FROM R";
            "SELECT FROM R";
            "SELECT * R";
            "SELECT * FROM";
            "SELECT * FROM R WHERE";
            "SELECT * FROM NOPE AS x WHERE A = 1";
            "SELECT * FROM R extra";
          ]);
    quick "unknown relation surfaces as a compile error downstream"
      (fun () ->
        (* Unaliased unknown relations parse (the name is only resolved at
           compile time) and fail in Spj.compile. *)
        let db = chain_db () in
        let e = Parser.view ~lookup:(lookup_in db) "SELECT * FROM NOPE" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Query.Spj.compile (lookup_in db) e);
             false
           with Query.Spj.Compile_error _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Untrusted text: every input parses or raises Parse_error            *)
(* ------------------------------------------------------------------ *)

let parse_error_of f =
  match f () with
  | _ -> None
  | exception Parser.Parse_error message -> Some message

let mentions needle message =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length message
    && (String.sub message i n = needle || at (i + 1))
  in
  at 0

let out_of_range_tests =
  let check_rejected what f =
    match parse_error_of f with
    | Some message ->
      Alcotest.(check bool)
        (what ^ ": " ^ message)
        true
        (mentions "out of range" message)
    | None -> Alcotest.fail (what ^ " was accepted")
  in
  let lookup = lookup_in (chain_db ()) in
  [
    quick "an integer literal past max_int is a parse error" (fun () ->
        check_rejected "view" (fun () ->
            Parser.view ~lookup
              "SELECT A FROM R WHERE A < 99999999999999999999");
        check_rejected "condition" (fun () ->
            Parser.condition "A < 99999999999999999999"));
    quick "a negative literal below -max_int is a parse error" (fun () ->
        check_rejected "view" (fun () ->
            Parser.view ~lookup
              "SELECT A FROM R WHERE A < -4611686018427387904");
        check_rejected "condition" (fun () ->
            Parser.condition "A < -4611686018427387904"));
    quick "a shifted string literal is rejected" (fun () ->
        let check_shift what f =
          match parse_error_of f with
          | Some message ->
            Alcotest.(check bool)
              (what ^ ": " ^ message)
              true
              (mentions "string literal" message)
          | None -> Alcotest.fail (what ^ " was accepted")
        in
        check_shift "view" (fun () ->
            Parser.view ~lookup "SELECT A FROM R WHERE B <= 's' - 7");
        check_shift "condition" (fun () -> Parser.condition "B = 's' + 1");
        check_shift "fuzz counterexample" (fun () ->
            Parser.condition "B <= 's' - 7 MAX AND FROM <= 7 MAX A ="));
  ]

(* Token-level strings: SQL words, symbols and literals (huge ones
   included) in any order; byte-level strings: arbitrary bytes. *)
let token_text =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_bound 16)
         (oneofl
            [
              "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "AS"; "AND"; "OR";
              "NOT"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "*"; ","; "(";
              ")"; "="; "<>"; "!="; "<"; "<="; ">"; ">="; "+"; "-"; "R";
              "S"; "A"; "B"; "C"; "x"; "0"; "7"; "4611686018427387903";
              "4611686018427387904"; "99999999999999999999"; "'s'"; "'";
              "''"; ";"; ".";
            ])))

let byte_text = QCheck.Gen.(string_size ~gen:char (int_bound 40))

let only_parse_errors ~name gen parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       (fun text ->
         match parse text with
         | _ -> true
         | exception Parser.Parse_error _ -> true
         | exception e ->
           QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e)))

let fuzz_tests =
  let lookup = lookup_in (chain_db ()) in
  let view text = ignore (Parser.view ~lookup text) in
  let condition text = ignore (Parser.condition text) in
  [
    only_parse_errors ~name:"view: token-level text" token_text view;
    only_parse_errors ~name:"view: byte-level text" byte_text view;
    only_parse_errors ~name:"condition: token-level text" token_text condition;
    only_parse_errors ~name:"condition: byte-level text" byte_text condition;
  ]

let () =
  Alcotest.run "parser"
    [
      ("condition", condition_tests);
      ("select", select_tests);
      ("literals", out_of_range_tests);
      ("fuzz", fuzz_tests);
    ]
