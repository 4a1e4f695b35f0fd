exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_quoting s =
  String.length s = 0
  || String.exists (fun c -> c = ',' || c = '"') s
  || s.[0] = ' '
  || s.[String.length s - 1] = ' '
  || String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s

let quote s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buffer "\"\""
      else Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let render_value = function
  | Value.Int x -> string_of_int x
  | Value.Str s ->
    if String.contains s '\n' then
      invalid_arg "Csv: newlines inside strings are not supported";
    if needs_quoting s then quote s else s

let render_header schema =
  String.concat ","
    (List.mapi
       (fun i (name, ty) ->
         let base =
           Printf.sprintf "%s:%s" name
             (match ty with
             | Value.Int_ty -> "int"
             | Value.Str_ty -> "str")
         in
         match Schema.bounds_at schema i with
         | Some (lo, hi) -> Printf.sprintf "%s[%d..%d]" base lo hi
         | None -> base)
       (Schema.attrs schema))

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

(* Split one line into raw cells, handling quoted cells with doubled
   quotes.  Returns cells tagged with whether they were quoted. *)
let split_line ~line_number line =
  let cells = ref [] in
  let buffer = Buffer.create 16 in
  let quoted = ref false in
  let finish () =
    cells := (Buffer.contents buffer, !quoted) :: !cells;
    Buffer.clear buffer;
    quoted := false
  in
  let n = String.length line in
  let rec plain i =
    if i >= n then finish ()
    else
      match line.[i] with
      | ',' ->
        finish ();
        plain (i + 1)
      | '"' when Buffer.length buffer = 0 && not !quoted ->
        quoted := true;
        in_quotes (i + 1)
      | c ->
        Buffer.add_char buffer c;
        plain (i + 1)
  and in_quotes i =
    if i >= n then
      parse_error "line %d: unterminated quoted cell" line_number
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buffer '"';
        in_quotes (i + 2)
      | '"' -> after_quotes (i + 1)
      | c ->
        Buffer.add_char buffer c;
        in_quotes (i + 1)
  and after_quotes i =
    if i >= n then finish ()
    else
      match line.[i] with
      | ',' ->
        finish ();
        plain (i + 1)
      | c ->
        parse_error "line %d: unexpected %C after closing quote" line_number c
  in
  plain 0;
  List.rev !cells

let parse_header ~line_number line =
  let parse_cell (cell, quoted) =
    if quoted then
      parse_error "line %d: quoted header cell %S" line_number cell;
    if String.equal cell "#" then `Counts
    else
      match String.index_opt cell ':' with
      | None -> parse_error "line %d: header cell %S lacks a type" line_number cell
      | Some i -> (
        let name = String.sub cell 0 i in
        let ty_text = String.sub cell (i + 1) (String.length cell - i - 1) in
        let base, bounds =
          match String.index_opt ty_text '[' with
          | None -> (ty_text, None)
          | Some j ->
            if ty_text.[String.length ty_text - 1] <> ']' then
              parse_error "line %d: malformed bounds in %S" line_number cell;
            let inner =
              String.sub ty_text (j + 1) (String.length ty_text - j - 2)
            in
            (match String.index_opt inner '.' with
            | Some k
              when k + 1 < String.length inner && inner.[k + 1] = '.' -> (
              let lo = String.sub inner 0 k in
              let hi = String.sub inner (k + 2) (String.length inner - k - 2) in
              try
                ( String.sub ty_text 0 j,
                  Some (int_of_string lo, int_of_string hi) )
              with Failure _ ->
                parse_error "line %d: malformed bounds in %S" line_number cell)
            | Some _ | None ->
              parse_error "line %d: malformed bounds in %S" line_number cell)
        in
        match base with
        | "int" -> `Attr (name, Value.Int_ty, bounds)
        | "str" ->
          if bounds <> None then
            parse_error "line %d: bounds on string attribute %S" line_number
              name;
          `Attr (name, Value.Str_ty, None)
        | other ->
          parse_error "line %d: unknown type %S in header" line_number other)
  in
  let parsed = List.map parse_cell (split_line ~line_number line) in
  let rec split_counts acc = function
    | [] -> (List.rev acc, false)
    | [ `Counts ] -> (List.rev acc, true)
    | `Counts :: _ ->
      parse_error "line %d: '#' must be the last header column" line_number
    | `Attr a :: rest -> split_counts (a :: acc) rest
  in
  let attrs, with_counts = split_counts [] parsed in
  match Schema.make_bounded attrs with
  | schema -> (schema, with_counts)
  | exception Invalid_argument message ->
    parse_error "line %d: %s" line_number message

let parse_value ~line_number ty (cell, quoted) =
  match ty, quoted with
  | Value.Str_ty, _ -> Value.Str cell
  | Value.Int_ty, true ->
    parse_error "line %d: quoted integer cell %S" line_number cell
  | Value.Int_ty, false -> (
    match int_of_string_opt (String.trim cell) with
    | Some x -> Value.Int x
    | None -> parse_error "line %d: %S is not an integer" line_number cell)

(* ------------------------------------------------------------------ *)
(* Convenience wrappers                                               *)
(* ------------------------------------------------------------------ *)

let to_string r =
  let buffer = Buffer.create 256 in
  let schema = Relation.schema r in
  let with_counts = Relation.fold (fun _ c acc -> acc || c > 1) r false in
  Buffer.add_string buffer (render_header schema);
  if with_counts then Buffer.add_string buffer ",#";
  Buffer.add_char buffer '\n';
  List.iter
    (fun (t, c) ->
      let cells = List.map render_value (Array.to_list t) in
      let cells = if with_counts then cells @ [ string_of_int c ] else cells in
      Buffer.add_string buffer (String.concat "," cells);
      Buffer.add_char buffer '\n')
    (Relation.sorted_elements r);
  Buffer.contents buffer

let of_string text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> parse_error "empty input: missing header"
  | header_line :: rest ->
    let schema, with_counts = parse_header ~line_number:1 header_line in
    let r = Relation.create schema in
    let arity = Schema.arity schema in
    List.iteri
      (fun idx line ->
        let line_number = idx + 2 in
        if not (String.equal line "") then begin
          let cells = split_line ~line_number line in
          let expected = if with_counts then arity + 1 else arity in
          if List.length cells <> expected then
            parse_error "line %d: expected %d cells, found %d" line_number
              expected (List.length cells);
          let value_cells, count =
            if with_counts then begin
              match List.rev cells with
              | (count_cell, false) :: rev_rest -> (
                match int_of_string_opt count_cell with
                | Some c when c > 0 -> (List.rev rev_rest, c)
                | Some _ | None ->
                  parse_error "line %d: bad counter %S" line_number count_cell)
              | (_, true) :: _ ->
                parse_error "line %d: quoted counter" line_number
              | [] -> assert false
            end
            else (cells, 1)
          in
          let t =
            Array.of_list
              (List.mapi
                 (fun i cell ->
                   parse_value ~line_number (Schema.ty_at schema i) cell)
                 value_cells)
          in
          match
            Tuple.check schema t;
            Relation.add ~count r t
          with
          | () -> ()
          | exception Invalid_argument message ->
            parse_error "line %d: %s" line_number message
          | exception Relation.Negative_count _ ->
            parse_error "line %d: counter overflow" line_number
        end)
      rest;
    r

let output_relation channel r = output_string channel (to_string r)
let input_relation channel = of_string (In_channel.input_all channel)
let save path r = Out_channel.with_open_text path (fun c -> output_relation c r)
let load path = In_channel.with_open_text path input_relation

let save_database ~dir db =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun name -> save (Filename.concat dir (name ^ ".csv")) (Database.find db name))
    (Database.names db)

let load_database ~dir =
  let db = Database.create () in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".csv" then
        Database.register db
          (Filename.chop_suffix file ".csv")
          (load (Filename.concat dir file)))
    (Sys.readdir dir);
  db
