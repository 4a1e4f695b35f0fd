open Relalg

(* Runtime state of a GROUP BY view: the maintained inner SPJ
   materialization plus one accumulator per (group, target).  COUNT and
   SUM deltas combine by ring addition, so deletions are additions of
   negations; MIN/MAX have no additive inverse, so a deletion that
   drains the current extremum's support marks the target stale and the
   group is rescanned against the inner materialization after the delta
   has been fully applied (the only place the non-invertible monoids pay
   for their missing [neg]). *)

type sum_state = { mutable sum : int }

type ext_state = {
  is_min : bool;
  mutable ext : Value.t option;
  mutable support : int; (* multiplicity of rows attaining [ext] *)
  mutable stale : bool;
}

type target_state =
  | Ts_count
  | Ts_sum of sum_state
  | Ts_avg of sum_state
  | Ts_ext of ext_state

type group = {
  mutable members : int; (* total inner multiplicity in the group *)
  targets : target_state array;
}

module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash key = List.fold_left (fun h v -> (h * 31) + Value.hash v) 17 key
end)

type t = {
  spec : Query.Aggregate.t;
  inner : Relation.t;
  schema : Schema.t; (* grouped output schema *)
  key_positions : int list;
  source_positions : int array; (* -1 for COUNT *)
  groups : group Key_table.t;
}

let spec t = t.spec
let inner t = t.inner
let schema t = t.schema

let fresh_group t =
  {
    members = 0;
    targets =
      Array.of_list
        (List.map
           (fun tgt ->
             match tgt.Query.Aggregate.func with
             | Query.Aggregate.Count -> Ts_count
             | Query.Aggregate.Sum _ -> Ts_sum { sum = 0 }
             | Query.Aggregate.Avg _ -> Ts_avg { sum = 0 }
             | Query.Aggregate.Min _ ->
               Ts_ext { is_min = true; ext = None; support = 0; stale = false }
             | Query.Aggregate.Max _ ->
               Ts_ext { is_min = false; ext = None; support = 0; stale = false })
           t.spec.Query.Aggregate.targets);
  }

let key_of t tuple = List.map (fun i -> Tuple.get tuple i) t.key_positions

let group_of t key =
  match Key_table.find_opt t.groups key with
  | Some g -> g
  | None ->
    let g = fresh_group t in
    Key_table.replace t.groups key g;
    g

(* Fold one signed counted inner tuple into its group's accumulators. *)
let ingest t tuple c =
  let g = group_of t (key_of t tuple) in
  g.members <- g.members + c;
  Array.iteri
    (fun j state ->
      match state with
      | Ts_count -> ()
      | Ts_sum s | Ts_avg s ->
        s.sum <- s.sum + (c * Value.int (Tuple.get tuple t.source_positions.(j)))
      | Ts_ext e ->
        if not e.stale then begin
          let v = Tuple.get tuple t.source_positions.(j) in
          if c > 0 then begin
            match e.ext with
            | None ->
              e.ext <- Some v;
              e.support <- c
            | Some cur ->
              let cmp = Value.compare v cur in
              let better = if e.is_min then cmp < 0 else cmp > 0 in
              if better then begin
                e.ext <- Some v;
                e.support <- c
              end
              else if cmp = 0 then e.support <- e.support + c
          end
          else begin
            match e.ext with
            | Some cur when Value.compare v cur = 0 ->
              e.support <- e.support + c;
              if e.support <= 0 then begin
                (* The extremum's support drained: only a rescan of the
                   group can tell what the new extremum is. *)
                e.stale <- true;
                e.ext <- None
              end
            | _ -> ()
          end
        end)
    g.targets;
  g

let render_group t key g =
  let rendered =
    List.mapi
      (fun j tgt ->
        match tgt.Query.Aggregate.func, g.targets.(j) with
        | Query.Aggregate.Count, Ts_count -> Value.Int g.members
        | Query.Aggregate.Sum _, Ts_sum s -> Value.Int s.sum
        | Query.Aggregate.Avg _, Ts_avg s -> Value.Int (s.sum / g.members)
        | (Query.Aggregate.Min _ | Query.Aggregate.Max _), Ts_ext e ->
          Option.get e.ext
        | _ -> assert false)
      t.spec.Query.Aggregate.targets
  in
  Array.of_list (key @ rendered)

let rebuild t =
  Key_table.reset t.groups;
  Relation.iter (fun tuple c -> ignore (ingest t tuple c)) t.inner

let create spec ~inner =
  let inner_schema = Relation.schema inner in
  let position what a =
    match Schema.position_opt inner_schema a with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Grouped.create: unknown %s %S" what a)
  in
  let t =
    {
      spec;
      inner;
      schema = Query.Aggregate.output_schema spec ~inner:inner_schema;
      key_positions = List.map (position "group key") spec.Query.Aggregate.keys;
      source_positions =
        Array.of_list
          (List.map
             (fun tgt ->
               match Query.Aggregate.source tgt.Query.Aggregate.func with
               | None -> -1
               | Some a -> position "aggregate source" a)
             spec.Query.Aggregate.targets);
      groups = Key_table.create 16;
    }
  in
  rebuild t;
  t

let render t =
  let out = Relation.create t.schema in
  Key_table.iter
    (fun key g -> if g.members > 0 then Relation.add out (render_group t key g))
    t.groups;
  out

let step ?on_inner t delta =
  let touched = Key_table.create 8 in
  let touch key =
    if not (Key_table.mem touched key) then
      Key_table.replace touched key
        (match Key_table.find_opt t.groups key with
        | Some g when g.members > 0 -> Some (render_group t key g)
        | _ -> None)
  in
  let apply_tuple sign tuple c =
    let c = sign * c in
    (* The pre-change render must be captured before the accumulators
       move, and the inner update must go through the caller's hook so
       it lands in the undo journal. *)
    touch (key_of t tuple);
    (match on_inner with
    | Some f -> f tuple c
    | None -> Relation.update t.inner tuple c);
    ignore (ingest t tuple c)
  in
  Relation.iter (fun tp c -> apply_tuple (-1) tp c) delta.Delta.deletes;
  Relation.iter (fun tp c -> apply_tuple 1 tp c) delta.Delta.inserts;
  (* Rescan pass: one sweep over the inner materialization repairs every
     group whose extremum drained, after the delta is fully applied. *)
  let stale = Key_table.create 4 in
  Key_table.iter
    (fun key _ ->
      match Key_table.find_opt t.groups key with
      | Some g
        when g.members > 0
             && Array.exists
                  (function Ts_ext e -> e.stale | _ -> false)
                  g.targets -> Key_table.replace stale key g
      | _ -> ())
    touched;
  let rescans = Key_table.length stale in
  if rescans > 0 then begin
    Relation.iter
      (fun tuple c ->
        match Key_table.find_opt stale (key_of t tuple) with
        | None -> ()
        | Some g ->
          Array.iteri
            (fun j state ->
              match state with
              | Ts_ext e when e.stale -> (
                let v = Tuple.get tuple t.source_positions.(j) in
                match e.ext with
                | None ->
                  e.ext <- Some v;
                  e.support <- c
                | Some cur ->
                  let cmp = Value.compare v cur in
                  let better = if e.is_min then cmp < 0 else cmp > 0 in
                  if better then begin
                    e.ext <- Some v;
                    e.support <- c
                  end
                  else if cmp = 0 then e.support <- e.support + c)
              | _ -> ())
            g.targets)
      t.inner;
    Key_table.iter
      (fun _ g ->
        Array.iter
          (function Ts_ext e -> e.stale <- false | _ -> ())
          g.targets)
      stale
  end;
  (* Diff the touched groups' renders into an outer delta. *)
  let out = Delta.empty t.schema in
  Key_table.iter
    (fun key old ->
      match Key_table.find_opt t.groups key with
      | Some g when g.members > 0 -> (
        let now = render_group t key g in
        match old with
        | Some o when Tuple.equal o now -> ()
        | Some o ->
          Relation.add out.Delta.deletes o;
          Relation.add out.Delta.inserts now
        | None -> Relation.add out.Delta.inserts now)
      | Some g when g.members = 0 -> (
        Key_table.remove t.groups key;
        match old with
        | Some o -> Relation.add out.Delta.deletes o
        | None -> ())
      | Some _ -> invalid_arg "Grouped.step: inconsistent aggregate delta"
      | None -> (
        match old with
        | Some o -> Relation.add out.Delta.deletes o
        | None -> ()))
    touched;
  (out, Key_table.length touched, rescans)
