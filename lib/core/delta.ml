open Relalg

type t = {
  inserts : Relation.t;
  deletes : Relation.t;
}

let empty schema =
  { inserts = Relation.create schema; deletes = Relation.create schema }

let is_empty d = Relation.is_empty d.inserts && Relation.is_empty d.deletes
let size d = Relation.total d.inserts + Relation.total d.deletes

let of_lists schema (inserts, deletes) =
  {
    inserts = Relation.of_tuples schema inserts;
    deletes = Relation.of_tuples schema deletes;
  }

let copy d =
  { inserts = Relation.copy d.inserts; deletes = Relation.copy d.deletes }

let reschema d s =
  { inserts = Relation.reschema d.inserts s; deletes = Relation.reschema d.deletes s }

let between ~before ~after =
  let out = empty (Relation.schema after) in
  Relation.iter
    (fun t c ->
      let old = Relation.count before t in
      if c > old then Relation.update out.inserts t (c - old))
    after;
  Relation.iter
    (fun t c ->
      let now = Relation.count after t in
      if c > now then Relation.update out.deletes t (c - now))
    before;
  out

let apply d r =
  Relation.iter (fun t c -> Relation.update r t c) d.inserts;
  Relation.iter (fun t c -> Relation.update r t (-c)) d.deletes

(* Move [c] copies of [t] into [part], cancelling them first against
   the opposite part [other]. *)
let bank_tuple ~part ~other t c =
  let cancelled = min c (Relation.count other t) in
  Relation.update other t (-cancelled);
  Relation.update part t (c - cancelled)

let bank ~into d =
  Relation.iter (bank_tuple ~part:into.inserts ~other:into.deletes) d.inserts;
  Relation.iter (bank_tuple ~part:into.deletes ~other:into.inserts) d.deletes

let compose ~first ~second =
  let out = copy first in
  bank ~into:out second;
  out

let pp ppf d =
  Format.fprintf ppf "@[<v>@[<v 2>inserts:@,%a@]@,@[<v 2>deletes:@,%a@]@]"
    Relation.pp d.inserts Relation.pp d.deletes
