open Relalg

type health =
  | Healthy
  | Quarantined of {
      error : string;
      since : int;
      heal_failures : int;
      next_eligible : int;
    }
  | Disabled of { error : string; since : int; heal_failures : int }

type view_state = {
  view : string;
  health : health;
  contents : Relation.t;
  grouped : Relation.t option;
  pending : (string * Relation.t * Relation.t) list;
}

type t = {
  seq : int;
  lsn : int;
  relations : (string * Relation.t) list;
  views : view_state list;
}

let copy t =
  let rel = Relation.copy in
  {
    t with
    relations = List.map (fun (name, r) -> (name, rel r)) t.relations;
    views =
      List.map
        (fun v ->
          {
            v with
            contents = rel v.contents;
            grouped = Option.map rel v.grouped;
            pending =
              List.map
                (fun (name, ins, del) -> (name, rel ins, rel del))
                v.pending;
          })
        t.views;
  }

let w_health b = function
  | Healthy -> Buffer.add_char b '\000'
  | Quarantined { error; since; heal_failures; next_eligible } ->
    Buffer.add_char b '\001';
    Codec.w_string b error;
    Codec.w_int b since;
    Codec.w_int b heal_failures;
    Codec.w_int b next_eligible
  | Disabled { error; since; heal_failures } ->
    Buffer.add_char b '\002';
    Codec.w_string b error;
    Codec.w_int b since;
    Codec.w_int b heal_failures

let r_health r =
  match Codec.r_byte r with
  | 0 -> Healthy
  | 1 ->
    let error = Codec.r_string r in
    let since = Codec.r_int r in
    let heal_failures = Codec.r_int r in
    let next_eligible = Codec.r_int r in
    Quarantined { error; since; heal_failures; next_eligible }
  | 2 ->
    let error = Codec.r_string r in
    let since = Codec.r_int r in
    let heal_failures = Codec.r_int r in
    Disabled { error; since; heal_failures }
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad health tag %d" t))

let w_view ?flush b v =
  Codec.w_string b v.view;
  w_health b v.health;
  Codec.w_relation ?flush b v.contents;
  Codec.w_option (Codec.w_relation ?flush) b v.grouped;
  Codec.w_list
    (fun b (relation, inserts, deletes) ->
      Codec.w_string b relation;
      Codec.w_relation ?flush b inserts;
      Codec.w_relation ?flush b deletes)
    b v.pending

let encode ?flush b t =
  Codec.w_int b t.seq;
  Codec.w_int b t.lsn;
  Codec.w_list
    (fun b (name, rel) ->
      Codec.w_string b name;
      Codec.w_relation ?flush b rel)
    b t.relations;
  Codec.w_list (w_view ?flush) b t.views

let decode r =
  let seq = Codec.r_int r in
  let lsn = Codec.r_int r in
  let relations =
    Codec.r_list
      (fun r ->
        let name = Codec.r_string r in
        let rel = Codec.r_relation r in
        (name, rel))
      r
  in
  let views =
    Codec.r_list
      (fun r ->
        let view = Codec.r_string r in
        let health = r_health r in
        let contents = Codec.r_relation r in
        let grouped = Codec.r_option Codec.r_relation r in
        let pending =
          Codec.r_list
            (fun r ->
              let relation = Codec.r_string r in
              let inserts = Codec.r_relation r in
              let deletes = Codec.r_relation r in
              (relation, inserts, deletes))
            r
        in
        { view; health; contents; grouped; pending })
      r
  in
  { seq; lsn; relations; views }

let health_string = function
  | Healthy -> "healthy"
  | Quarantined { error; since; heal_failures; next_eligible } ->
    Printf.sprintf
      "quarantined(%s since %d, %d failed rounds, eligible at %d)" error since
      heal_failures next_eligible
  | Disabled { error; since; heal_failures } ->
    Printf.sprintf "disabled(%s since %d, %d failed rounds)" error since
      heal_failures

let pp_health ppf h = Format.pp_print_string ppf (health_string h)

let rel_diff what a b =
  if Relation.equal a b then None
  else
    Some
      (Printf.sprintf "%s differs: %d vs %d tuples (%d vs %d counted)" what
         (Relation.cardinal a) (Relation.cardinal b) (Relation.total a)
         (Relation.total b))

let rec first_some = function
  | [] -> None
  | f :: rest -> ( match f () with Some _ as d -> d | None -> first_some rest)

let pending_diff view a b =
  let keys l = List.sort_uniq compare (List.map (fun (r, _, _) -> r) l) in
  if keys a <> keys b then
    Some
      (Printf.sprintf "view %s pending relations differ: {%s} vs {%s}" view
         (String.concat "," (keys a))
         (String.concat "," (keys b)))
  else
    first_some
      (List.map
         (fun (relation, ins_a, del_a) () ->
           let _, ins_b, del_b =
             List.find (fun (r, _, _) -> r = relation) b
           in
           first_some
             [
               (fun () ->
                 rel_diff
                   (Printf.sprintf "view %s pending %s inserts" view relation)
                   ins_a ins_b);
               (fun () ->
                 rel_diff
                   (Printf.sprintf "view %s pending %s deletes" view relation)
                   del_a del_b);
             ])
         a)

let view_diff a b =
  if a.view <> b.view then
    Some (Printf.sprintf "view order differs: %s vs %s" a.view b.view)
  else
    first_some
      [
        (fun () ->
          if a.health <> b.health then
            Some
              (Printf.sprintf "view %s health differs: %s vs %s" a.view
                 (health_string a.health) (health_string b.health))
          else None);
        (fun () ->
          rel_diff (Printf.sprintf "view %s contents" a.view) a.contents
            b.contents);
        (fun () ->
          match (a.grouped, b.grouped) with
          | None, None -> None
          | Some ga, Some gb ->
            rel_diff (Printf.sprintf "view %s inner state" a.view) ga gb
          | _ -> Some (Printf.sprintf "view %s grouped-ness differs" a.view));
        (fun () -> pending_diff a.view a.pending b.pending);
      ]

let diff a b =
  first_some
    [
      (fun () ->
        if a.seq <> b.seq then
          Some (Printf.sprintf "commit seq differs: %d vs %d" a.seq b.seq)
        else None);
      (fun () ->
        let names l = List.map fst l in
        if names a.relations <> names b.relations then
          Some
            (Printf.sprintf "base relations differ: {%s} vs {%s}"
               (String.concat "," (names a.relations))
               (String.concat "," (names b.relations)))
        else
          first_some
            (List.map2
               (fun (name, ra) (_, rb) () ->
                 rel_diff (Printf.sprintf "base relation %s" name) ra rb)
               a.relations b.relations));
      (fun () ->
        if List.length a.views <> List.length b.views then
          Some
            (Printf.sprintf "view count differs: %d vs %d"
               (List.length a.views) (List.length b.views))
        else
          first_some
            (List.map2 (fun va vb () -> view_diff va vb) a.views b.views));
    ]

let equal a b = diff a b = None
