(* Dump a durability directory in human-readable form: the checkpoint
   summary and every WAL record with its full net effect.  Debugging
   companion to `ivm-cli recover`; it only reads, so a torn tail or a
   missing log is reported, never repaired. *)

let pp_rel name (r : Relalg.Relation.t) =
  Printf.printf "    %s: %d tuples (%d counted)\n" name
    (Relalg.Relation.cardinal r)
    (Relalg.Relation.total r)

let tuples r =
  String.concat " "
    (List.map
       (fun (t, n) ->
         let s = Relalg.Tuple.to_string t in
         if n = 1 then s else Printf.sprintf "%sx%d" s n)
       (Relalg.Relation.sorted_elements r))

let dump_record lsn (record : Durability.Record.t) =
  Printf.printf "  [lsn %d] %s\n" lsn (Durability.Record.describe record);
  match record with
  | Durability.Record.Commit { net; _ } ->
    List.iter
      (fun (relation, (inserts, deletes)) ->
        if inserts <> [] then
          Printf.printf "      %s +%s\n" relation
            (String.concat " " (List.map Relalg.Tuple.to_string inserts));
        if deletes <> [] then
          Printf.printf "      %s -%s\n" relation
            (String.concat " " (List.map Relalg.Tuple.to_string deletes)))
      net
  | _ -> ()

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let config = Durability.Config.make dir in
  (match Durability.Checkpoint.read (Durability.Config.checkpoint_path config)
   with
  | None -> Printf.printf "checkpoint: none\n"
  | Some st ->
    Printf.printf "checkpoint: seq %d, lsn %d\n" st.Durability.State.seq
      st.Durability.State.lsn;
    List.iter (fun (n, r) -> pp_rel n r) st.Durability.State.relations;
    List.iter
      (fun (v : Durability.State.view_state) ->
        Printf.printf "    view %s: %s, %d tuples%s\n" v.Durability.State.view
          (Format.asprintf "%a" Durability.State.pp_health
             v.Durability.State.health)
          (Relalg.Relation.cardinal v.Durability.State.contents)
          (match v.Durability.State.pending with
          | [] -> ""
          | p ->
            Printf.sprintf ", banked: %s"
              (String.concat "; "
                 (List.map
                    (fun (rel, ins, del) ->
                      Printf.sprintf "%s +[%s] -[%s]" rel (tuples ins)
                        (tuples del))
                    p))))
      st.Durability.State.views);
  let entries, torn = Durability.Wal.read (Durability.Config.wal_path config) in
  Printf.printf "wal: %d records, last lsn %d%s\n" (List.length entries)
    (List.fold_left (fun acc (lsn, _) -> max acc lsn) 0 entries)
    (if torn > 0 then Printf.sprintf ", %d torn bytes after them" torn else "");
  List.iter (fun (lsn, record) -> dump_record lsn record) entries
