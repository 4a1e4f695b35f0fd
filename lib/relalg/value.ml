type ty =
  | Int_ty
  | Str_ty

type t =
  | Int of int
  | Str of string

let ty_of = function
  | Int _ -> Int_ty
  | Str _ -> Str_ty

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

(* Every relation, index and join table keys on this, so an [Int] is
   hashed in registers: a multiply-xorshift finalizer (MurmurHash3's
   fmix64, constants cut to OCaml's 63-bit ints) that spreads sequential
   and strided keys over the low bits hash tables index by. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x7f51afd7ed558ccd in
  let x = x lxor (x lsr 33) in
  let x = x * 0x44ceb9fe1a85ec53 in
  x lxor (x lsr 33)

let hash = function
  | Int x -> mix x
  | Str s -> Hashtbl.hash s

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Str s -> Format.fprintf ppf "%S" s

let pp_ty ppf = function
  | Int_ty -> Format.pp_print_string ppf "int"
  | Str_ty -> Format.pp_print_string ppf "str"

let to_string = function
  | Int x -> string_of_int x
  | Str s -> s

let int = function
  | Int x -> x
  | Str s -> invalid_arg (Printf.sprintf "Value.int: %S is not an integer" s)

let str = function
  | Str s -> s
  | Int x ->
    invalid_arg (Printf.sprintf "Value.str: %d is not a string" x)
