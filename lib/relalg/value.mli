(** Atomic attribute values.

    The paper assumes all attributes range over discrete, finite domains and
    uses integers in every example.  We additionally support strings so that
    realistic example schemas (names, status codes) can be expressed; the
    satisfiability machinery of {!module:Condition} handles the integer
    fragment with the Rosenkrantz–Hunt procedure and the string fragment with
    an equality solver. *)

type ty =
  | Int_ty
  | Str_ty

type t =
  | Int of int
  | Str of string

val ty_of : t -> ty

val equal : t -> t -> bool

(** Total order: integers sort before strings; within a type the natural
    order is used. *)
val compare : t -> t -> int

(** Consistent with {!equal}.  Allocation-free: integers are mixed in
    registers, strings go through [Hashtbl.hash]. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

val pp_ty : Format.formatter -> ty -> unit

val to_string : t -> string

(** [int v] extracts an integer payload.
    @raise Invalid_argument if [v] is not an [Int]. *)
val int : t -> int

(** [str v] extracts a string payload.
    @raise Invalid_argument if [v] is not a [Str]. *)
val str : t -> string
