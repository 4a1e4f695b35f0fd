(* Exact order statistics over raw samples: no histograms, no
   bucketing. *)

(* Growable int buffer for per-call samples (ns). *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 4096 0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let length s = s.len

(* Heap words the buffer occupies, so heap figures can leave it out. *)
let words s = Array.length s.data + 1

let sum s =
  let total = ref 0 in
  for i = 0 to s.len - 1 do
    total := !total + s.data.(i)
  done;
  !total

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: an observed sample, never
   an interpolation. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (rank - 1)))

(* The percentile is reported only where at least ten samples lie
   beyond it. *)
let supported ~n p = float_of_int n *. (1.0 -. p) >= 10.0

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The samples, in arrival order, as consecutive blocks of [size]
   (a trailing partial block is dropped; fewer than [size] samples make
   one block), each sorted. *)
let blocks s ~size =
  if s.len < size then [ sorted s ]
  else
    List.init (s.len / size) (fun b ->
        let a = Array.sub s.data (b * size) size in
        Array.sort compare a;
        a)

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method)
   computes them, so spreads printed here match an external check of
   the same numbers. *)
let quartiles (xs : float list) =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (nan, nan)
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)
