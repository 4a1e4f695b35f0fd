open Relalg
module Cert = Analysis.Check_self_maintain

exception Base_read_detected of { view : string; reads : int }

let () =
  Printexc.register_printer (function
    | Base_read_detected { view; reads } ->
      Some
        (Printf.sprintf
           "Self_maintain.Base_read_detected(view %s: %d base-relation \
            read(s) under a zero-read certificate)"
           view reads)
    | _ -> None)

type drain_plan = {
  sig_base : int array;  (* deleted-tuple positions forming the signature *)
  sig_outputs : int array;  (* view-tuple positions, aligned with sig_base *)
  consts : (int * Value.t) list;  (* deleted-tuple position -> pinned value *)
}

type single = {
  s_relation : string;
  s_qualified : Schema.t;
  s_positions : int array;  (* output position -> source tuple position *)
  s_dnf : Condition.Formula.dnf;
}

type t = {
  view_name : string;
  relations : string list;
  single : single option;
  drains : (string * drain_plan list) list;
}

let of_spj ~name ~keys ~lookup (spj : Query.Spj.t) =
  let cert = Cert.analyze ~keys ~lookup spj in
  let relations =
    List.sort_uniq String.compare
      (List.map (fun (s : Query.Spj.source) -> s.Query.Spj.relation)
         spj.Query.Spj.sources)
  in
  let single =
    match (cert.Cert.single_source, spj.Query.Spj.sources) with
    | Some (_, relation), [ source ] ->
      let qualified = Query.Spj.qualified_schema lookup source in
      Some
        {
          s_relation = relation;
          s_qualified = qualified;
          s_positions =
            Array.of_list
              (List.map
                 (fun (_, q) -> Schema.position qualified q)
                 spj.Query.Spj.projection);
          s_dnf = spj.Query.Spj.condition_dnf;
        }
    | _ -> None
  in
  let drains =
    if single <> None then []
    else
      List.filter_map
        (fun relation ->
          match Cert.delete_plans cert relation with
          | None -> None
          | Some plans ->
            let compile (p : Cert.delete_plan) =
              let outputs, consts =
                List.partition_map
                  (fun (pos, binding) ->
                    match binding with
                    | Cert.From_output j -> Either.Left (pos, j)
                    | Cert.Pinned v -> Either.Right (pos, v))
                  p.Cert.bindings
              in
              {
                sig_base = Array.of_list (List.map fst outputs);
                sig_outputs = Array.of_list (List.map snd outputs);
                consts;
              }
            in
            Some (relation, List.map compile plans))
        relations
  in
  if single = None && drains = [] then None
  else Some { view_name = name; relations; single; drains }

let insertable t =
  match t.single with
  | Some s -> [ s.s_relation ]
  | None -> []

let deletable t =
  match t.single with
  | Some s -> [ s.s_relation ]
  | None -> List.map fst t.drains

let covers_deletes t relation =
  List.mem relation (deletable t)

let covers_inserts t relation =
  List.mem relation (insertable t)

let applies t ~net =
  let touched =
    List.filter
      (fun (relation, (inserts, deletes)) ->
        List.mem relation t.relations && (inserts <> [] || deletes <> []))
      net
  in
  touched <> []
  && List.for_all
       (fun (relation, (inserts, deletes)) ->
         (inserts = [] || covers_inserts t relation)
         && (deletes = [] || covers_deletes t relation))
       touched

(* ------------------------------------------------------------------ *)
(* delta evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* All derivations of a view tuple share the one base tuple whose key the
   view recovers, so a matching deletion drains the tuple at its full
   multiplicity.  [drain] dedupes across plans and relations: a view tuple
   killed from two sides dies once. *)
let drain_matches plan contents deleted drain =
  if
    List.for_all
      (fun (pos, v) -> Value.equal deleted.(pos) v)
      plan.consts
  then
    Relation.iter_matches
      (Relation.index contents ~positions:plan.sig_outputs)
      (Tuple.project plan.sig_base deleted)
      drain

let delta t ~contents ~net =
  let schema = Relation.schema contents in
  (* Sized for the few update tuples this path serves; tables grow. *)
  let inserts = Relation.create ~size_hint:16 schema in
  let deletes = Relation.create ~size_hint:16 schema in
  List.iter
    (fun (relation, (ins, dels)) ->
      if List.mem relation t.relations then
        match t.single with
        | Some s when String.equal s.s_relation relation ->
          let project = Tuple.project s.s_positions in
          let passes tuple =
            let sub = Condition.Substitute.of_tuple s.s_qualified tuple in
            Condition.Formula.eval_dnf
              (fun a ->
                match sub a with
                | Some v -> v
                | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Self_maintain.delta: unbound attribute %s" a))
              s.s_dnf
          in
          let keep into tuple =
            if passes tuple then Relation.add into (project tuple)
          in
          List.iter (keep inserts) ins;
          List.iter (keep deletes) dels
        | _ -> (
          match List.assoc_opt relation t.drains with
          | None -> () (* not covered; [applies] rules this out *)
          | Some plans ->
            List.iter
              (fun deleted ->
                List.iter
                  (fun plan ->
                    drain_matches plan contents deleted (fun tuple count ->
                        if not (Relation.mem deletes tuple) then
                          Relation.update deletes tuple count))
                  plans)
              dels))
    net;
  { Delta.inserts; deletes }
