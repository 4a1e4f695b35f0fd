open Relalg

type source_input = {
  alias : string;
  old_part : Relation.t;
  delta : Delta.t option;
}

type result = {
  delta : Delta.t;
  rows_evaluated : int;
}

let input_for inputs alias =
  match List.find_opt (fun i -> String.equal i.alias alias) inputs with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Delta_eval.eval: missing input for alias %S" alias)

(* Operand relation for one source in one row, for the given part of the
   update set. *)
let operand (input : source_input) (choice : Truth_table.operand) part =
  match choice, input.delta with
  | Truth_table.Old_part, _ -> input.old_part
  | Truth_table.Delta_part, Some d -> (
    match part with
    | `Inserts -> d.Delta.inserts
    | `Deletes -> d.Delta.deletes)
  | Truth_table.Delta_part, None ->
    invalid_arg "Delta_eval: delta operand for an unmodified source"

let default_shard_min = 2048

let part_name = function `Inserts -> "inserts" | `Deletes -> "deletes"

(* Shards of operand [r], cached per operand by physical identity: the
   Inserts and Deletes sides of a row share their [Old_part] operands,
   and two [reschema] aliases of one store are two operands with two
   schemas, each needing shards that carry its own. *)
let shards_of cache ~n r =
  match List.assq_opt r !cache with
  | Some shards -> shards
  | None ->
    let shards =
      Obs.Span.with_span "shard"
        ~args:(fun () ->
          [ ("tuples", Obs.Json.Int (Relation.cardinal r)); ("shards", Obs.Json.Int n) ])
        (fun () -> Relation.shard ~n r)
    in
    cache := (r, shards) :: !cache;
    shards

(* The position of a row's largest operand when it holds at least
   [shard_min] tuples, else -1: the operand the row is sharded on. *)
let rec lead ~shard_min i best n = function
  | [] -> if n >= shard_min then best else -1
  | (_, r) :: rest ->
    let c = Relation.cardinal r in
    if c > n then lead ~shard_min (i + 1) i c rest
    else lead ~shard_min (i + 1) best n rest

let eval ?(order = `Greedy) ?(join_impl = `Hash) ?(reuse = false) ?pool
    ?(shard_min = default_shard_min) ~(spj : Query.Spj.t) ~inputs () =
  let condition_dnf = spj.Query.Spj.condition_dnf
  and projection = spj.Query.Spj.projection in
  (* Reorder inputs to the view's source order; with [reuse], place
     modified sources first (smallest deltas lead the shared prefixes). *)
  let ordered_inputs =
    List.map (fun s -> input_for inputs s.Query.Spj.alias) spj.Query.Spj.sources
  in
  let ordered_inputs =
    if not reuse then ordered_inputs
    else
      let modified, unmodified =
        List.partition
          (fun (i : source_input) ->
            match i.delta with
            | Some d -> not (Delta.is_empty d)
            | None -> false)
          ordered_inputs
      in
      let by_size f = List.sort (fun a b -> Int.compare (f a) (f b)) in
      by_size
        (fun (i : source_input) ->
          match i.delta with
          | Some d -> Delta.size d
          | None -> 0)
        modified
      @ by_size (fun i -> Relation.cardinal i.old_part) unmodified
  in
  let out =
    Delta.empty
      (Query.Planner.output_schema ~projection
         (List.map (fun i -> Relation.schema i.old_part) inputs))
  in
  let modified =
    Array.of_list
      (List.map
         (fun (i : source_input) ->
           match i.delta with
           | Some d -> not (Delta.is_empty d)
           | None -> false)
         ordered_inputs)
  in
  if not (Array.exists Fun.id modified) then { delta = out; rows_evaluated = 0 }
  else begin
    let rows = Truth_table.rows ~modified in
    (* One (part, sources) evaluation task per non-empty row side. *)
    let tasks =
      List.concat_map
        (fun row ->
          let side part =
            let sources =
              List.mapi
                (fun i input ->
                  (input.alias, operand input row.(i) part))
                ordered_inputs
            in
            if List.exists (fun (_, r) -> Relation.is_empty r) sources then
              None
            else Some (part, sources)
          in
          List.filter_map side [ `Inserts; `Deletes ])
        rows
    in
    let merge (part, relation) =
      match part with
      | `Inserts -> Relation.union_into ~into:out.Delta.inserts relation
      | `Deletes -> Relation.union_into ~into:out.Delta.deletes relation
    in
    let rows_evaluated = List.length tasks in
    if reuse then begin
      (* Shared-prefix evaluation runs all rows as one batch, so the rows
         cannot be traced individually; one span covers the batch. *)
      let results =
        Obs.Span.with_span "row"
          ~args:(fun () ->
            [ ("mode", Obs.Json.Str "reuse"); ("rows", Obs.Json.Int rows_evaluated) ])
          (fun () ->
            Resilience.Fault.point "row";
            Query.Planner.run_many ~join_impl
              ~variants:(List.map snd tasks)
              ~condition_dnf ~projection ())
      in
      List.iter2 (fun (part, _) r -> merge (part, r)) tasks results
    end
    else begin
      (* Intra-view sharding: the largest operand of each row that has
         at least [shard_min] tuples is partitioned across [pool_size]
         hash shards, the shard evaluations fan out on the pool, and
         their results are unioned — SPJ evaluation is linear in any
         single operand over multiset union, so the merged delta is
         exactly the unsharded one.  The merge-order independence is a
         payload-ring property, not an int one: [Relation.union_into]
         combines counters with the commutative, associative
         [Ring.Count.add], never by comparing payload magnitudes, so the
         bit-identity check against inline evaluation holds for any
         payload ring with those laws.  Smaller rows run inline on the
         caller while the workers chew, which keeps every domain busy
         without paying submission overhead for tiny rows; a size-1
         pool (or none) shards nothing, so every row runs inline. *)
      let pool_size = match pool with Some p -> Exec.Pool.size p | None -> 1 in
      let shard_min = if pool_size > 1 then shard_min else max_int in
      let run sources =
        Query.Planner.run ~order ~join_impl ~sources ~condition_dnf ~projection ()
      in
      let row ?shard row_index part sources =
        Obs.Span.with_span "row"
          ~args:(fun () ->
            [ ("row", Obs.Json.Int row_index); ("part", Obs.Json.Str (part_name part)) ]
            @ Option.fold ~none:[] ~some:(fun s -> [ ("shard", Obs.Json.Int s) ]) shard
            @ [ ("operands", Obs.Json.Int (List.length sources)) ])
          (fun () -> run sources)
      in
      let shard_cache = ref [] and failure = ref None and jobs = ref [] in
      let fail e = if !failure = None then failure := Some e in
      (* Fire each row's fault point in row order, before any row runs or
         fans out: an injected fault aborts the eval without ever
         spawning shard tasks, so no orphaned worker can be left reading
         relations the caller mutates after the raise. *)
      (try
         List.iteri
           (fun row_index (part, sources) ->
             Resilience.Fault.point "row";
             let lead = lead ~shard_min 0 (-1) (-1) sources in
             if lead >= 0 then
               Array.iteri
                 (fun shard_index shard ->
                   if not (Relation.is_empty shard) then
                     let sources =
                       List.mapi
                         (fun i (alias, r) ->
                           (alias, if i = lead then shard else r))
                         sources
                     in
                     jobs :=
                       (part, fun () -> row ~shard:shard_index row_index part sources)
                       :: !jobs)
                 (shards_of shard_cache ~n:pool_size (snd (List.nth sources lead))))
           tasks
       with e -> fail (e, Printexc.get_raw_backtrace ()));
      (* A failure while queueing submits nothing, so nothing is
         awaited either. *)
      let submitted =
        match !failure, pool, !jobs with
        | None, Some pool, (_ :: _ as jobs) ->
          let jobs = List.rev jobs in
          List.combine (List.map fst jobs)
            (Exec.Pool.submit_batch pool (List.map snd jobs))
        | _ -> []
      in
      (if !failure = None then
         try
           List.iteri
             (fun row_index (part, sources) ->
               if lead ~shard_min 0 (-1) (-1) sources < 0 then
                 merge (part, row row_index part sources))
             tasks
         with e -> fail (e, Printexc.get_raw_backtrace ()));
      (* Await every submitted future even after a failure: a shard task
         still in flight must finish before control returns to a caller
         that may mutate its operands. *)
      List.iter
        (fun (part, future) ->
          match Exec.Pool.await_result future with
          | Ok r -> if !failure = None then merge (part, r)
          | Error e -> fail e)
        submitted;
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure
    end;
    { delta = out; rows_evaluated }
  end
