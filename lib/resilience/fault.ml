exception Injected of string

type config = {
  seed : int;
  rate : float;
  only : string list option;
  at : (string * int list) list;
}

let enabled = Atomic.make false
let injected_count = Atomic.make 0
let mutex = Mutex.create ()
let current = ref { seed = 1986; rate = 0.0; only = None; at = [] }
let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16

(* splitmix64 finalizer: a full-avalanche mix of one 64-bit word. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let hash_unit ~seed name k =
  let h0 = Int64.of_int ((seed * 0x9e3779b9) lxor Hashtbl.hash name) in
  let h = mix64 (Int64.add (mix64 h0) (Int64.of_int k)) in
  (* Top 53 bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let configure ?(seed = 1986) ?only ?(at = []) ~rate () =
  Mutex.protect mutex (fun () ->
      let rate = Float.max 0.0 (Float.min 1.0 rate) in
      current := { seed; rate; only; at };
      Hashtbl.reset counters;
      Atomic.set injected_count 0;
      Atomic.set enabled (rate > 0.0 || at <> []))

let disable () = Atomic.set enabled false
let active () = Atomic.get enabled
let rate () = (!current).rate

let counter_for name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters name c;
        c)

let point name =
  if Atomic.get enabled then begin
    let cfg = !current in
    let fires =
      (match cfg.only with
      | Some names -> List.mem name names
      | None -> true)
      &&
      let k = Atomic.fetch_and_add (counter_for name) 1 in
      match List.assoc_opt name cfg.at with
      | Some ks -> List.mem k ks
      | None -> hash_unit ~seed:cfg.seed name k < cfg.rate
    in
    if fires then begin
      Atomic.incr injected_count;
      Obs.Metrics.add "ivm_resilience_faults_injected_total"
        ~labels:[ ("point", name) ] 1;
      raise (Injected name)
    end
  end

let injected () = Atomic.get injected_count

(* [IVM_FAULT_RATE] activates injection at program start (library
   initializers run before [main]). *)
let () =
  match Sys.getenv_opt "IVM_FAULT_RATE" with
  | None -> ()
  | Some s -> (
    match float_of_string_opt s with
    | Some r when r > 0.0 -> configure ~rate:r ()
    | _ -> ())
