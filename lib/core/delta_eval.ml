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

let output_schema ~(spj : Query.Spj.t) ~inputs =
  let ty_of q =
    let rec search = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Delta_eval.output_schema: unknown attribute %S" q)
      | input :: rest -> (
        let s = Relation.schema input.old_part in
        match Schema.position_opt s q with
        | Some i -> Schema.ty_at s i
        | None -> search rest)
    in
    search inputs
  in
  Schema.make
    (List.map (fun (out, q) -> (out, ty_of q)) spj.Query.Spj.projection)

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

let eval ?(order = `Greedy) ?(join_impl = `Hash) ?(reuse = false) ?pool
    ?(shard_min = default_shard_min) ~(spj : Query.Spj.t) ~inputs () =
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
  let out_schema = output_schema ~spj ~inputs in
  let out = Delta.empty out_schema in
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
    let part_name = function `Inserts -> "inserts" | `Deletes -> "deletes" in
    let pool_size =
      match pool with Some p -> Exec.Pool.size p | None -> 1
    in
    let run_sources sources =
      Query.Planner.run ~order ~join_impl ~sources
        ~condition_dnf:spj.Query.Spj.condition_dnf
        ~projection:spj.Query.Spj.projection ()
    in
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
              ~condition_dnf:spj.Query.Spj.condition_dnf
              ~projection:spj.Query.Spj.projection ())
      in
      List.iter2 (fun (part, _) r -> merge (part, r)) tasks results
    end
    else if pool_size <= 1 then
      List.iteri
        (fun row_index (part, sources) ->
          let r =
            Obs.Span.with_span "row"
              ~args:(fun () ->
                [
                  ("row", Obs.Json.Int row_index);
                  ("part", Obs.Json.Str (part_name part));
                  ("operands", Obs.Json.Int (List.length sources));
                ])
              (fun () ->
                Resilience.Fault.point "row";
                run_sources sources)
          in
          merge (part, r))
        tasks
    else begin
      (* Intra-view sharding: partition the largest operand of each
         sufficiently big row across [pool_size] hash shards, fan the
         shard evaluations out on the pool, and union the shard results
         — SPJ evaluation is linear in any single operand over multiset
         union, so the merged delta is exactly the unsharded one.  The
         merge-order independence is a payload-ring property, not an int
         one: [Relation.union_into] combines counters with the
         commutative, associative [Ring.Count.add], never by comparing
         payload magnitudes, so the bit-identity check against the
         sequential path holds for any payload ring with those laws.
         Sub-[shard_min] rows run inline on the caller while the workers
         chew, which keeps every domain busy without paying submission
         overhead for tiny rows. *)
      let pool = Option.get pool in
      (* Inserts and Deletes sides of a row share their [Old_part]
         operands, so shards are cached per operand, by physical
         identity: two [reschema] aliases of one store are two operands
         with two schemas, and each needs shards carrying its own. *)
      let shard_cache = ref [] in
      let shards_of r =
        match List.assq_opt r !shard_cache with
        | Some shards -> shards
        | None ->
          let shards =
            Obs.Span.with_span "shard"
              ~args:(fun () ->
                [
                  ("tuples", Obs.Json.Int (Relation.cardinal r));
                  ("shards", Obs.Json.Int pool_size);
                ])
              (fun () -> Relation.shard ~n:pool_size r)
          in
          shard_cache := (r, shards) :: !shard_cache;
          shards
      in
      let failure = ref None in
      let fail e = if !failure = None then failure := Some e in
      let inline_jobs = ref [] and shard_jobs = ref [] in
      (* Fire each row's fault point in submission order, before any
         fan-out: an injected fault aborts the eval without ever
         spawning shard tasks, so no orphaned worker can be left
         reading relations the caller mutates after the raise. *)
      (try
         List.iteri
           (fun row_index (part, sources) ->
             Resilience.Fault.point "row";
             let lead, lead_cardinal =
               List.fold_left
                 (fun (best, best_n) (i, (_, r)) ->
                   let n = Relation.cardinal r in
                   if n > best_n then (i, n) else (best, best_n))
                 (-1, -1)
                 (List.mapi (fun i s -> (i, s)) sources)
             in
             if lead_cardinal < shard_min then
               inline_jobs := (row_index, part, sources) :: !inline_jobs
             else
               Array.iteri
                 (fun shard_index shard ->
                   if not (Relation.is_empty shard) then
                     let sources =
                       List.mapi
                         (fun i (alias, r) ->
                           (alias, if i = lead then shard else r))
                         sources
                     in
                     let thunk () =
                       Obs.Span.with_span "row"
                         ~args:(fun () ->
                           [
                             ("row", Obs.Json.Int row_index);
                             ("part", Obs.Json.Str (part_name part));
                             ("shard", Obs.Json.Int shard_index);
                             ("operands", Obs.Json.Int (List.length sources));
                           ])
                         (fun () -> run_sources sources)
                     in
                     shard_jobs := (part, thunk) :: !shard_jobs)
                 (shards_of (snd (List.nth sources lead))))
           tasks
       with e -> fail (e, Printexc.get_raw_backtrace ()));
      (* A failure while queueing submits nothing, so nothing is
         awaited either. *)
      let submitted =
        match !failure with
        | Some _ -> []
        | None ->
          let shard_jobs = List.rev !shard_jobs in
          List.combine (List.map fst shard_jobs)
            (Exec.Pool.submit_batch pool (List.map snd shard_jobs))
      in
      (match !failure with
      | Some _ -> ()
      | None -> (
        try
          List.iter
            (fun (row_index, part, sources) ->
              let r =
                Obs.Span.with_span "row"
                  ~args:(fun () ->
                    [
                      ("row", Obs.Json.Int row_index);
                      ("part", Obs.Json.Str (part_name part));
                      ("operands", Obs.Json.Int (List.length sources));
                    ])
                  (fun () -> run_sources sources)
              in
              merge (part, r))
            (List.rev !inline_jobs)
        with e -> fail (e, Printexc.get_raw_backtrace ())));
      (* Await every submitted future even after a failure: a shard task
         still in flight must finish before control returns to a caller
         that may mutate its operands. *)
      List.iter
        (fun (part, future) ->
          match Exec.Pool.await_result future with
          | Ok r -> if !failure = None then merge (part, r)
          | Error e -> fail e)
        submitted;
      match !failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end;
    { delta = out; rows_evaluated }
  end
