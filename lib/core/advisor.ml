open Relalg

type arm =
  | Differential
  | Recompute
  | Self_maintain

let arm_name = function
  | Differential -> "differential"
  | Recompute -> "recompute"
  | Self_maintain -> "self_maintain"

type decision = {
  differential_cost : float;
  recompute_cost : float;
  self_maintain_cost : float option;
  choose : arm;
}

(* Calibrated against experiment E9 on the hash-join engine: differential
   work is dominated by re-hashing the old parts each modified row joins
   with, recomputation by one scan of every source plus materializing the
   view.  Self-maintenance touches each update tuple twice (condition or
   key probe, then the drain/apply) and nothing else. *)
let differential_weight = 1.0
let recompute_weight = 1.0
let self_maintain_weight = 1.0

let decide view ~db ~net =
  let spj = View.spj view in
  let sources = spj.Query.Spj.sources in
  let p = List.length sources in
  let source_size (s : Query.Spj.source) =
    Relation.cardinal (Database.find db s.Query.Spj.relation)
  in
  let sizes = List.map source_size sources in
  let total_sources = List.fold_left ( + ) 0 sizes in
  let modified_relations =
    List.sort_uniq String.compare (List.map fst net)
  in
  let k =
    List.length
      (List.filter
         (fun (s : Query.Spj.source) ->
           List.mem s.Query.Spj.relation modified_relations)
         sources)
  in
  let delta_total =
    List.fold_left
      (fun acc (_, (inserts, deletes)) ->
        acc + List.length inserts + List.length deletes)
      0 net
  in
  let avg_source =
    if p = 0 then 0.0 else float_of_int total_sources /. float_of_int p
  in
  (* Each truth-table row joins its delta operands against at most (p - 1)
     other operands; hash joins cost about the size of both sides.  Rows
     that draw several delta operands are tiny, so the row count enters
     sub-exponentially: k rows carry one delta, the rest shrink fast. *)
  let rows = float_of_int (max 1 ((2 * ((1 lsl max 0 k) - 1)) / max 1 k)) in
  let differential_cost =
    if k = 0 then 0.0
    else
      (* Every delta tuple is screened, hashed and merged (~3 touches)
         before the per-row join work. *)
      differential_weight
      *. ((3.0 *. float_of_int delta_total)
          +. (rows
              *. (float_of_int delta_total
                 +. (float_of_int (p - 1) *. avg_source /. 4.0))))
  in
  let recompute_cost =
    recompute_weight
    *. (float_of_int total_sources
       +. float_of_int (Relation.cardinal (View.contents view)))
  in
  let self_maintain_cost =
    match View.self_maintain view with
    | Some plan when Self_maintain.applies plan ~net ->
      Some (self_maintain_weight *. ((2.0 *. float_of_int delta_total) +. 1.0))
    | _ -> None
  in
  let cheaper_classic =
    if differential_cost <= recompute_cost then Differential else Recompute
  in
  let choose =
    match self_maintain_cost with
    | Some c
      when c <= differential_cost && c <= recompute_cost ->
      Self_maintain
    | _ -> cheaper_classic
  in
  { differential_cost; recompute_cost; self_maintain_cost; choose }

let pp_decision ppf d =
  Format.fprintf ppf "differential=%.0f recompute=%.0f%s -> %s"
    d.differential_cost d.recompute_cost
    (match d.self_maintain_cost with
    | None -> ""
    | Some c -> Printf.sprintf " self_maintain=%.0f" c)
    (arm_name d.choose)

(* ------------------------------------------------------------------ *)
(* calibration: predicted cost units vs measured wall time             *)
(* ------------------------------------------------------------------ *)

type sample = {
  view : string;
  decision : decision;
  used : arm;
  actual_ns : int;
}

let sample_capacity = 10_000

(* The newest [sample_capacity] samples in a FIFO ring of unboxed
   columns, allocated whole on first use: the store's footprint is fixed
   from the first commit on instead of growing with every commit up to
   the cap.  [tags] packs a sample's non-float fields into one byte:
   chosen arm (bits 0-1), used arm (bits 2-3) and whether a
   self-maintain cost is present (bit 4). *)
type ring = {
  views : string array;
  differential : Float.Array.t;
  recompute : Float.Array.t;
  self_maintain : Float.Array.t;
  actual : int array;
  tags : Bytes.t;
  mutable oldest : int;
  mutable length : int;
}

let arm_code = function
  | Differential -> 0
  | Recompute -> 1
  | Self_maintain -> 2

let arm_of_code = function
  | 0 -> Differential
  | 1 -> Recompute
  | _ -> Self_maintain

let store_mutex = Mutex.create ()
let store : ring option ref = ref None

let locked f =
  Mutex.lock store_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock store_mutex) f

let ring () =
  match !store with
  | Some r -> r
  | None ->
    let n = sample_capacity in
    let r =
      {
        views = Array.make n "";
        differential = Float.Array.make n 0.0;
        recompute = Float.Array.make n 0.0;
        self_maintain = Float.Array.make n 0.0;
        actual = Array.make n 0;
        tags = Bytes.make n '\000';
        oldest = 0;
        length = 0;
      }
    in
    store := Some r;
    r

(* Past capacity the slot after the newest is the oldest: overwrite it
   and move [oldest] on. *)
let push r ~view ~used ~actual_ns d =
  let i = (r.oldest + r.length) mod sample_capacity in
  if r.length < sample_capacity then r.length <- r.length + 1
  else r.oldest <- (r.oldest + 1) mod sample_capacity;
  r.views.(i) <- view;
  Float.Array.set r.differential i d.differential_cost;
  Float.Array.set r.recompute i d.recompute_cost;
  Float.Array.set r.self_maintain i
    (Option.value ~default:0.0 d.self_maintain_cost);
  r.actual.(i) <- actual_ns;
  Bytes.set_uint8 r.tags i
    (arm_code d.choose
    lor (arm_code used lsl 2)
    lor (if Option.is_some d.self_maintain_cost then 16 else 0))

(* The [k]-th oldest sample. *)
let get r k =
  let i = (r.oldest + k) mod sample_capacity in
  let tag = Bytes.get_uint8 r.tags i in
  let choose = arm_of_code (tag land 3) in
  {
    view = r.views.(i);
    decision =
      {
        differential_cost = Float.Array.get r.differential i;
        recompute_cost = Float.Array.get r.recompute i;
        self_maintain_cost =
          (if tag land 16 <> 0 then Some (Float.Array.get r.self_maintain i)
           else None);
        choose;
      };
    used = arm_of_code ((tag lsr 2) land 3);
    actual_ns = r.actual.(i);
  }

let record ~view ~used ~actual_ns decision =
  locked (fun () -> push (ring ()) ~view ~used ~actual_ns decision);
  if Obs.Control.enabled () then begin
    Obs.Metrics.add "ivm_advisor_decisions_total"
      ~labels:
        [
          ("view", view);
          ("predicted", arm_name decision.choose);
          ("used", arm_name used);
        ]
      1;
    Obs.Metrics.observe "ivm_advisor_actual_ns"
      ~labels:[ ("view", view); ("used", arm_name used) ]
      actual_ns;
    Obs.Metrics.set_gauge "ivm_advisor_predicted_cost"
      ~labels:[ ("view", view); ("strategy", "differential") ]
      decision.differential_cost;
    Obs.Metrics.set_gauge "ivm_advisor_predicted_cost"
      ~labels:[ ("view", view); ("strategy", "recompute") ]
      decision.recompute_cost;
    match decision.self_maintain_cost with
    | Some c ->
      Obs.Metrics.set_gauge "ivm_advisor_predicted_cost"
        ~labels:[ ("view", view); ("strategy", "self_maintain") ]
        c
    | None -> ()
  end

let samples () =
  locked (fun () ->
      match !store with
      | None -> []
      | Some r -> List.init r.length (get r))

let reset_samples () =
  locked (fun () ->
      match !store with
      | None -> ()
      | Some r ->
        Array.fill r.views 0 sample_capacity "";
        r.oldest <- 0;
        r.length <- 0)

type calibration = {
  n_samples : int;
  agreements : int;
  scale_differential : float option;
  scale_recompute : float option;
  scale_self_maintain : float option;
  mean_abs_rel_error : float option;
}

(* The model cost of the arm a sample actually ran; [None] when the arm
   carried no prediction (a forced Self_maintain without a certificate
   cannot happen, but a fallback-to-differential sample is an ordinary
   differential prediction). *)
let predicted s =
  match s.used with
  | Differential -> Some s.decision.differential_cost
  | Recompute -> Some s.decision.recompute_cost
  | Self_maintain -> s.decision.self_maintain_cost

let calibrate () =
  let samples = samples () in
  let n_samples = List.length samples in
  let agreements =
    List.length (List.filter (fun s -> s.decision.choose = s.used) samples)
  in
  let scale_for arm =
    let relevant =
      List.filter
        (fun s ->
          s.used = arm
          && match predicted s with Some p -> p > 0.0 | None -> false)
        samples
    in
    let sum_pred =
      List.fold_left
        (fun acc s -> acc +. Option.value ~default:0.0 (predicted s))
        0.0 relevant
    in
    let sum_actual =
      List.fold_left (fun acc s -> acc +. float_of_int s.actual_ns) 0.0 relevant
    in
    if sum_pred > 0.0 then Some (sum_actual /. sum_pred) else None
  in
  let scale_differential = scale_for Differential in
  let scale_recompute = scale_for Recompute in
  let scale_self_maintain = scale_for Self_maintain in
  let scale_of = function
    | Differential -> scale_differential
    | Recompute -> scale_recompute
    | Self_maintain -> scale_self_maintain
  in
  let errors =
    List.filter_map
      (fun s ->
        match (scale_of s.used, predicted s) with
        | Some scale, Some p when p > 0.0 && s.actual_ns > 0 ->
          Some
            (Float.abs ((p *. scale) -. float_of_int s.actual_ns)
            /. float_of_int s.actual_ns)
        | _ -> None)
      samples
  in
  let mean_abs_rel_error =
    match errors with
    | [] -> None
    | _ ->
      Some
        (List.fold_left ( +. ) 0.0 errors /. float_of_int (List.length errors))
  in
  { n_samples; agreements; scale_differential; scale_recompute;
    scale_self_maintain; mean_abs_rel_error }

let sample_json s =
  Obs.Json.Obj
    [
      ("view", Obs.Json.Str s.view);
      ("predicted_differential", Obs.Json.Float s.decision.differential_cost);
      ("predicted_recompute", Obs.Json.Float s.decision.recompute_cost);
      ( "predicted_self_maintain",
        match s.decision.self_maintain_cost with
        | Some c -> Obs.Json.Float c
        | None -> Obs.Json.Null );
      ("chose", Obs.Json.Str (arm_name s.decision.choose));
      ("used", Obs.Json.Str (arm_name s.used));
      ("actual_ns", Obs.Json.Int s.actual_ns);
    ]

let samples_json ?limit () =
  let all = samples () in
  let all =
    match limit with
    | None -> all
    | Some k ->
      let n = List.length all in
      if n <= k then all else List.filteri (fun i _ -> i >= n - k) all
  in
  Obs.Json.List (List.map sample_json all)

(* Algorithm R over the in-memory sample queue with a private LCG
   (Numerical Recipes constants): the snapshot keeps a fixed-size,
   deterministic cross-section of the whole run instead of just its
   tail, so two runs of the same workload diff cleanly. *)
let reservoir_samples ?(k = 64) ?(seed = 1986) () =
  let state = ref (Int64.of_int seed) in
  let rand bound =
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.unsigned_rem !state (Int64.of_int bound))
  in
  let reservoir = Array.make (max 1 k) None in
  List.iteri
    (fun i s ->
      if i < k then reservoir.(i) <- Some s
      else
        let j = rand (i + 1) in
        if j < k then reservoir.(j) <- Some s)
    (samples ());
  Array.to_list reservoir |> List.filter_map Fun.id

let reservoir_json ?k ?seed () =
  Obs.Json.List (List.map sample_json (reservoir_samples ?k ?seed ()))

let calibration_json () =
  let c = calibrate () in
  let opt = function
    | None -> Obs.Json.Null
    | Some x -> Obs.Json.Float x
  in
  Obs.Json.Obj
    [
      ("samples", Obs.Json.Int c.n_samples);
      ("agreements", Obs.Json.Int c.agreements);
      ("scale_differential_ns_per_unit", opt c.scale_differential);
      ("scale_recompute_ns_per_unit", opt c.scale_recompute);
      ("scale_self_maintain_ns_per_unit", opt c.scale_self_maintain);
      ("mean_abs_rel_error", opt c.mean_abs_rel_error);
    ]

let pp_calibration ppf c =
  let opt ppf = function
    | None -> Format.pp_print_string ppf "n/a"
    | Some x -> Format.fprintf ppf "%.3g" x
  in
  Format.fprintf ppf
    "%d samples, %d/%d agree; scale diff=%a rec=%a sm=%a ns/unit; mean |rel \
     err| %a"
    c.n_samples c.agreements c.n_samples opt c.scale_differential opt
    c.scale_recompute opt c.scale_self_maintain opt c.mean_abs_rel_error
