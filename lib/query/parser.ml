open Relalg
module Formula = Condition.Formula

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | T_ident of string
  | T_int of int
  | T_string of string
  | T_keyword of string (* SELECT FROM WHERE AND OR NOT AS JOIN GROUP BY *)
  | T_symbol of string (* , ( ) * + - = <> < <= > >= *)
  | T_end

let keyword_list =
  [ "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "AS"; "JOIN"; "GROUP"; "BY" ]

let pp_token = function
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_int n -> Printf.sprintf "integer %d" n
  | T_string s -> Printf.sprintf "string %S" s
  | T_keyword k -> k
  | T_symbol s -> Printf.sprintf "%S" s
  | T_end -> "end of input"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let emit t position = tokens := (t, position) :: !tokens in
  let rec go i =
    if i >= n then emit T_end i
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | ',' | '(' | ')' | '*' | '+' | '-' | '=' ->
        emit (T_symbol (String.make 1 text.[i])) i;
        go (i + 1)
      | '<' when i + 1 < n && text.[i + 1] = '=' ->
        emit (T_symbol "<=") i;
        go (i + 2)
      | '<' when i + 1 < n && text.[i + 1] = '>' ->
        emit (T_symbol "<>") i;
        go (i + 2)
      | '<' ->
        emit (T_symbol "<") i;
        go (i + 1)
      | '>' when i + 1 < n && text.[i + 1] = '=' ->
        emit (T_symbol ">=") i;
        go (i + 2)
      | '>' ->
        emit (T_symbol ">") i;
        go (i + 1)
      | '!' when i + 1 < n && text.[i + 1] = '=' ->
        emit (T_symbol "<>") i;
        go (i + 2)
      | '\'' ->
        (* single-quoted string, '' escapes a quote *)
        let buffer = Buffer.create 16 in
        let rec scan j =
          if j >= n then parse_error "position %d: unterminated string" i
          else if text.[j] = '\'' then
            if j + 1 < n && text.[j + 1] = '\'' then begin
              Buffer.add_char buffer '\'';
              scan (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buffer text.[j];
            scan (j + 1)
          end
        in
        let next = scan (i + 1) in
        emit (T_string (Buffer.contents buffer)) i;
        go next
      | c when c >= '0' && c <= '9' ->
        let j = ref i in
        while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        let digits = String.sub text i (!j - i) in
        (match int_of_string_opt digits with
        | Some v -> emit (T_int v) i
        | None ->
          parse_error "position %d: integer literal %s is out of range" i
            digits);
        go !j
      | c when is_ident_start c ->
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        let word = String.sub text i (!j - i) in
        let upper = String.uppercase_ascii word in
        if List.mem upper keyword_list then emit (T_keyword upper) i
        else emit (T_ident word) i;
        go !j
      | c -> parse_error "position %d: unexpected character %C" i c
  in
  go 0;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { mutable tokens : (token * int) list }

let peek stream =
  match stream.tokens with
  | (t, _) :: _ -> t
  | [] -> T_end

let peek2 stream =
  match stream.tokens with
  | _ :: (t, _) :: _ -> t
  | _ -> T_end

let position stream =
  match stream.tokens with
  | (_, p) :: _ -> p
  | [] -> -1

let advance stream =
  match stream.tokens with
  | _ :: rest -> stream.tokens <- rest
  | [] -> ()

let expect stream token =
  if peek stream = token then advance stream
  else
    parse_error "position %d: expected %s, found %s" (position stream)
      (pp_token token)
      (pp_token (peek stream))

let accept stream token =
  if peek stream = token then begin
    advance stream;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Condition grammar                                                   *)
(*   disjunction := conjunction (OR conjunction)*                      *)
(*   conjunction := negation (AND negation)*                           *)
(*   negation    := NOT negation | '(' disjunction ')' | comparison    *)
(*   comparison  := operand cmp operand [('+'|'-') INT]                *)
(*   operand     := IDENT | INT | STRING                               *)
(* ------------------------------------------------------------------ *)

let parse_operand stream =
  match peek stream with
  | T_ident name ->
    advance stream;
    Formula.O_var name
  | T_int x ->
    advance stream;
    Formula.O_const (Value.Int x)
  | T_string s ->
    advance stream;
    Formula.O_const (Value.Str s)
  | other ->
    parse_error "position %d: expected an attribute or literal, found %s"
      (position stream) (pp_token other)

let comparator_of = function
  | "=" -> Some Formula.Eq
  | "<>" -> Some Formula.Neq
  | "<" -> Some Formula.Lt
  | "<=" -> Some Formula.Leq
  | ">" -> Some Formula.Gt
  | ">=" -> Some Formula.Geq
  | _ -> None

let parse_comparison stream =
  let left = parse_operand stream in
  let cmp =
    match peek stream with
    | T_symbol s -> (
      match comparator_of s with
      | Some cmp ->
        advance stream;
        cmp
      | None ->
        parse_error "position %d: expected a comparator, found %S"
          (position stream) s)
    | other ->
      parse_error "position %d: expected a comparator, found %s"
        (position stream) (pp_token other)
  in
  let right = parse_operand stream in
  let shift_at = position stream in
  let shift =
    match peek stream with
    | T_symbol (("+" | "-") as sign) -> (
      advance stream;
      match peek stream with
      | T_int x ->
        advance stream;
        if sign = "+" then x else -x
      | other ->
        parse_error "position %d: expected an integer after '%s', found %s"
          (position stream) sign (pp_token other))
    | _ -> 0
  in
  (* The paper's shifted form compares numbers; a string constant has
     nothing to shift. *)
  (match right with
  | Formula.O_const (Value.Str _) when shift <> 0 ->
    parse_error "position %d: a string literal cannot take a '+'/'-' shift"
      shift_at
  | _ -> ());
  Formula.Atom (Formula.atom left cmp ~shift right)

let rec parse_disjunction stream =
  let first = parse_conjunction stream in
  if accept stream (T_keyword "OR") then
    Formula.Or (first, parse_disjunction stream)
  else first

and parse_conjunction stream =
  let first = parse_negation stream in
  if accept stream (T_keyword "AND") then
    Formula.And (first, parse_conjunction stream)
  else first

and parse_negation stream =
  if accept stream (T_keyword "NOT") then Formula.Not (parse_negation stream)
  else if accept stream (T_symbol "(") then begin
    let inner = parse_disjunction stream in
    expect stream (T_symbol ")");
    inner
  end
  else parse_comparison stream

let condition text =
  let stream = { tokens = tokenize text } in
  let f = parse_disjunction stream in
  expect stream T_end;
  f

(* ------------------------------------------------------------------ *)
(* SELECT statement                                                    *)
(* ------------------------------------------------------------------ *)

type from_item = {
  relation : string;
  table_alias : string option;
}

let parse_ident stream what =
  match peek stream with
  | T_ident name ->
    advance stream;
    name
  | other ->
    parse_error "position %d: expected %s, found %s" (position stream) what
      (pp_token other)

let parse_from_item stream =
  let relation = parse_ident stream "a relation name" in
  let table_alias =
    if accept stream (T_keyword "AS") then
      Some (parse_ident stream "an alias")
    else None
  in
  { relation; table_alias }

let parse_from_list stream =
  let first = parse_from_item stream in
  let rec more acc =
    if accept stream (T_symbol ",") || accept stream (T_keyword "JOIN") then
      more (parse_from_item stream :: acc)
    else List.rev acc
  in
  more [ first ]

(* Aggregate function names are contextual, not keywords: an identifier
   only starts an aggregate when it is directly followed by '('. *)
let func_of_name name =
  match String.uppercase_ascii name with
  | "COUNT" -> Some `Count
  | "SUM" -> Some `Sum
  | "AVG" -> Some `Avg
  | "MIN" -> Some `Min
  | "MAX" -> Some `Max
  | _ -> None

type select_item =
  | S_column of string
  | S_aggregate of Aggregate.target

let default_output func =
  match Aggregate.source func with
  | None -> String.lowercase_ascii (Aggregate.func_name func)
  | Some a -> String.lowercase_ascii (Aggregate.func_name func) ^ "_" ^ a

let parse_aggregate stream kind =
  advance stream;
  expect stream (T_symbol "(");
  let func =
    match kind with
    | `Count ->
      (* COUNT( * ) and COUNT(attr) agree here: there are no nulls. *)
      if accept stream (T_symbol "*") then Aggregate.Count
      else begin
        ignore (parse_ident stream "an attribute or *");
        Aggregate.Count
      end
    | `Sum -> Aggregate.Sum (parse_ident stream "an attribute")
    | `Avg -> Aggregate.Avg (parse_ident stream "an attribute")
    | `Min -> Aggregate.Min (parse_ident stream "an attribute")
    | `Max -> Aggregate.Max (parse_ident stream "an attribute")
  in
  expect stream (T_symbol ")");
  let output =
    if accept stream (T_keyword "AS") then parse_ident stream "an output name"
    else default_output func
  in
  S_aggregate { Aggregate.func; output }

let parse_select_item stream =
  match peek stream, peek2 stream with
  | T_ident name, T_symbol "(" -> (
    match func_of_name name with
    | Some kind -> parse_aggregate stream kind
    | None -> S_column (parse_ident stream "an attribute"))
  | _ -> S_column (parse_ident stream "an attribute")

let parse_select_list stream =
  if accept stream (T_symbol "*") then `Star
  else begin
    let first = parse_select_item stream in
    let rec more acc =
      if accept stream (T_symbol ",") then
        more (parse_select_item stream :: acc)
      else List.rev acc
    in
    `Items (more [ first ])
  end

let view ~lookup text =
  let stream = { tokens = tokenize text } in
  expect stream (T_keyword "SELECT");
  let select = parse_select_list stream in
  expect stream (T_keyword "FROM");
  let from = parse_from_list stream in
  let where =
    if accept stream (T_keyword "WHERE") then Some (parse_disjunction stream)
    else None
  in
  let group =
    if accept stream (T_keyword "GROUP") then begin
      expect stream (T_keyword "BY");
      let first = parse_ident stream "a group-by key" in
      let rec more acc =
        if accept stream (T_symbol ",") then
          more (parse_ident stream "a group-by key" :: acc)
        else List.rev acc
      in
      Some (more [ first ])
    end
    else None
  in
  expect stream T_end;
  (* FROM items: aliased tables rename every attribute to alias_attr. *)
  let item_expr { relation; table_alias } =
    let base = Expr.base relation in
    match table_alias with
    | None -> base
    | Some alias ->
      let schema =
        match lookup relation with
        | schema -> schema
        | exception (Not_found | Failure _ | Relalg.Database.Unknown_relation _)
          ->
          parse_error "unknown relation %S" relation
      in
      Expr.rename
        (List.map
           (fun a -> (a, alias ^ "_" ^ a))
           (Schema.names schema))
        base
  in
  let joined = Expr.join_all (List.map item_expr from) in
  let selected =
    match where with
    | None -> joined
    | Some f -> Expr.select f joined
  in
  let items =
    match select with
    | `Star -> None
    | `Items items -> Some items
  in
  let has_aggregate =
    match items with
    | None -> false
    | Some items ->
      List.exists (function S_aggregate _ -> true | S_column _ -> false) items
  in
  match items, group, has_aggregate with
  | None, None, _ -> selected
  | None, Some _, _ -> parse_error "SELECT * cannot be combined with GROUP BY"
  | Some items, None, false ->
    Expr.project
      (List.map
         (function S_column c -> c | S_aggregate _ -> assert false)
         items)
      selected
  | Some items, group, true | Some items, (Some _ as group), false ->
    let keys = Option.value group ~default:[] in
    let columns =
      List.filter_map
        (function S_column c -> Some c | S_aggregate _ -> None)
        items
    in
    (* Plain select columns must be exactly the group keys, in order —
       any other column has no single value per group. *)
    if not (List.equal String.equal columns keys) then
      parse_error
        "non-aggregate SELECT columns must match the GROUP BY keys in order";
    let targets =
      List.filter_map
        (function S_aggregate t -> Some t | S_column _ -> None)
        items
    in
    Expr.group_by ~keys targets selected
