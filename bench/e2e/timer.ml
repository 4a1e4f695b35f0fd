(* Monotonic nanosecond clock (CLOCK_MONOTONIC, through bechamel's
   allocation-free stub).  The engine's own [Obs.Clock] reads
   [gettimeofday], whose microsecond steps are too coarse for
   per-commit samples. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Origin for Chrome-trace timestamps, so they stay small. *)
let epoch = now ()

(* Mean cost of one back-to-back [now] pair: the overhead every timed
   layer call carries in the traced run. *)
let pair_cost_ns ?(pairs = 200_000) () =
  let total = ref 0 in
  for _ = 1 to pairs do
    let t0 = now () in
    let t1 = now () in
    total := !total + (t1 - t0)
  done;
  float_of_int !total /. float_of_int pairs
