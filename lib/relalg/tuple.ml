type t = Value.t array

let make values = Array.of_list values
let of_ints ints = Array.of_list (List.map (fun i -> Value.Int i) ints)
let arity = Array.length
let get t i = t.(i)
let value schema t attr = t.(Schema.position schema attr)
let project positions t = Array.map (fun i -> t.(i)) positions
let concat = Array.append

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i = la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let hash t =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash t.(i)
  done;
  !h

let check schema t =
  if arity t <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Tuple.check: arity %d, schema expects %d" (arity t)
         (Schema.arity schema));
  Array.iteri
    (fun i v ->
      if Value.ty_of v <> Schema.ty_at schema i then
        invalid_arg
          (Printf.sprintf "Tuple.check: type mismatch at attribute %s"
             (Schema.name_at schema i));
      match Schema.bounds_at schema i, v with
      | Some (lo, hi), Value.Int x when x < lo || x > hi ->
        invalid_arg
          (Printf.sprintf "Tuple.check: %d outside domain [%d, %d] of %s" x
             lo hi
             (Schema.name_at schema i))
      | (Some _ | None), (Value.Int _ | Value.Str _) -> ())
    t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
