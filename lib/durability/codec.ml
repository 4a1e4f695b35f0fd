open Relalg

exception Corrupt of string
exception Frame_too_large of int

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Durability.Codec.Corrupt(%s)" msg)
    | Frame_too_large len ->
      Some (Printf.sprintf "Durability.Codec.Frame_too_large(%d)" len)
    | _ -> None)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)                 *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: table [k] advances a byte through [k] further zero
   bytes, so one step folds eight input bytes (two little-endian 32-bit
   loads) into the running value with eight lookups.  Everything stays
   in native ints; the tables are one flat array, table [k] at
   [k * 256]. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let get_u32_le s i =
  if Sys.big_endian then Int32.to_int (bswap32 (get32u s i)) land 0xffffffff
  else Int32.to_int (get32u s i) land 0xffffffff

let crc32 ?(crc = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Codec.crc32";
  let t = Lazy.force crc_tables in
  let tab k b = Array.unsafe_get t ((k * 256) + b) in
  let c = ref ((Int32.to_int crc land 0xffffffff) lxor 0xffffffff) in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let lo = !c lxor get_u32_le s !i in
    let hi = get_u32_le s (!i + 4) in
    c :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xff)
      lxor tab 2 ((hi lsr 8) land 0xff)
      lxor tab 1 ((hi lsr 16) land 0xff)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      tab 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

(* ------------------------------------------------------------------ *)
(* frames                                                               *)
(* ------------------------------------------------------------------ *)

let max_frame = 0xffff_ffff

let set_frame_header b pos ~len ~crc =
  if len < 0 || len > max_frame then raise (Frame_too_large len);
  Bytes.set_int32_le b pos (Int32.of_int len);
  Bytes.set_int32_le b (pos + 4) crc

(* ------------------------------------------------------------------ *)
(* primitives                                                           *)
(* ------------------------------------------------------------------ *)

let w_int b i = Buffer.add_int64_le b (Int64.of_int i)
let w_byte b i = Buffer.add_char b (Char.chr (i land 0xff))
let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list w b xs =
  w_int b (List.length xs);
  List.iter (w b) xs

let w_option w b = function
  | None -> w_bool b false
  | Some v ->
    w_bool b true;
    w b v

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let pos r = r.pos

(* Compared against the bytes left, not as [r.pos + n]: a hostile
   length near [max_int] would overflow that sum and pass. *)
let need r n =
  if n < 0 || n > String.length r.src - r.pos then
    corrupt "truncated input: need %d bytes at offset %d of %d" n r.pos
      (String.length r.src)

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let r_byte r =
  need r 1;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool byte %d at offset %d" n (r.pos - 1)

let r_string r =
  let n = r_int r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Length sanity: a decoded collection can never hold more elements
   than remaining bytes allow (every element costs at least [min_bytes]
   bytes).  Decoders may presize by the result, so this bound is also
   what keeps a corrupted prefix from driving a huge allocation. *)
let r_len ?(min_bytes = 1) r =
  let n = r_int r in
  if n < 0 || n > (String.length r.src - r.pos) / min_bytes then
    corrupt "implausible length %d at offset %d" n (r.pos - 8);
  n

let r_list rd r =
  let n = r_len r in
  let acc = ref [] in
  for _ = 1 to n do
    acc := rd r :: !acc
  done;
  List.rev !acc

let r_option rd r = if r_bool r then Some (rd r) else None

let expect_end r =
  if r.pos <> String.length r.src then
    corrupt "trailing garbage: %d of %d bytes unread"
      (String.length r.src - r.pos)
      (String.length r.src)

(* ------------------------------------------------------------------ *)
(* relalg values                                                        *)
(* ------------------------------------------------------------------ *)

let w_value b = function
  | Value.Int i ->
    Buffer.add_char b '\000';
    w_int b i
  | Value.Str s ->
    Buffer.add_char b '\001';
    w_string b s

let r_value r =
  match r_byte r with
  | 0 -> Value.Int (r_int r)
  | 1 -> Value.Str (r_string r)
  | t -> corrupt "bad value tag %d at offset %d" t (r.pos - 1)

let w_tuple b t =
  w_int b (Array.length t);
  for i = 0 to Array.length t - 1 do
    w_value b (Array.unsafe_get t i)
  done

let r_tuple r =
  let n = r_len r in
  let a = Array.make n (Value.Int 0) in
  for i = 0 to n - 1 do
    a.(i) <- r_value r
  done;
  a

let w_ty b = function
  | Value.Int_ty -> Buffer.add_char b '\000'
  | Value.Str_ty -> Buffer.add_char b '\001'

let r_ty r =
  match r_byte r with
  | 0 -> Value.Int_ty
  | 1 -> Value.Str_ty
  | t -> corrupt "bad type tag %d at offset %d" t (r.pos - 1)

let w_bounds b bounds =
  w_option
    (fun b (lo, hi) ->
      w_int b lo;
      w_int b hi)
    b bounds

let r_bounds r =
  r_option
    (fun r ->
      let lo = r_int r in
      let hi = r_int r in
      (lo, hi))
    r

let w_schema b schema =
  w_list
    (fun b (attr, ty) ->
      w_string b attr;
      w_ty b ty;
      w_bounds b (Schema.bounds schema attr))
    b (Schema.attrs schema)

let r_schema r =
  let cols =
    r_list
      (fun r ->
        let attr = r_string r in
        let ty = r_ty r in
        let bounds = r_bounds r in
        (attr, ty, bounds))
      r
  in
  match Schema.make_bounded cols with
  | schema -> schema
  | exception Invalid_argument msg -> corrupt "bad schema: %s" msg

let chunk = 1 lsl 16

let w_relation ?flush b rel =
  w_schema b (Relation.schema rel);
  w_int b (Relation.cardinal rel);
  Relation.iter_sorted
    (fun tuple count ->
      w_tuple b tuple;
      w_int b count;
      match flush with
      | Some flush when Buffer.length b >= chunk ->
        flush b;
        Buffer.clear b
      | Some _ | None -> ())
    rel

(* Decodes straight into a relation presized by the length prefix; a
   counted tuple costs at least its arity word and its counter.  A
   repeated tuple adds up its counters, which can only overflow on
   corrupt input. *)
let r_relation r =
  let schema = r_schema r in
  let n = r_len ~min_bytes:16 r in
  let rel = Relation.create ~size_hint:n schema in
  match
    for _ = 1 to n do
      let tuple = r_tuple r in
      let count = r_int r in
      if count <= 0 then corrupt "non-positive counter %d" count;
      (match Tuple.check schema tuple with
      | () -> ()
      | exception Invalid_argument msg -> corrupt "bad relation: %s" msg);
      Relation.add ~count rel tuple
    done
  with
  | () -> rel
  | exception Relation.Negative_count _ -> corrupt "counter overflow"

let w_net b (net : Transaction.net) =
  w_list
    (fun b (relation, (inserts, deletes)) ->
      w_string b relation;
      w_list w_tuple b inserts;
      w_list w_tuple b deletes)
    b net

let r_net r : Transaction.net =
  r_list
    (fun r ->
      let relation = r_string r in
      let inserts = r_list r_tuple r in
      let deletes = r_list r_tuple r in
      (relation, (inserts, deletes)))
    r
