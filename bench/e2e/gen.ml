(* Seeded update stream over one relation at O(batch) per transaction.

   [Workload.Generate.transaction] picks its deletions by listing and
   shuffling the whole relation, which at 40k orders costs about ten
   commits' worth of time per call.  This generator keeps its own mirror
   of the live tuples instead: deletions are uniform picks removed by
   swap-remove, insertions are rejection-sampled from the scenario's
   column distributions until they are absent from the mirror.  The
   engine only ever sees the resulting transactions, and the mirror must
   equal the engine's base relation at the end of a run ([matches]). *)

open Relalg

module Tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type t = {
  relation : string;
  columns : Workload.Generate.column list;
  rng : Workload.Rng.t;
  mutable live : Tuple.t array;
  mutable n : int;
  slot : int Tbl.t;  (* tuple -> index in [live] *)
}

(* The mirror starts from the relation's sorted contents, so the stream
   depends only on [seed] and the relation's value, never on hash-table
   iteration order. *)
let create ~seed ~relation ~columns r =
  let live = Array.of_list (List.map fst (Relation.sorted_elements r)) in
  let slot = Tbl.create (2 * Array.length live) in
  Array.iteri (fun i t -> Tbl.replace slot t i) live;
  {
    relation;
    columns;
    rng = Workload.Rng.make seed;
    live;
    n = Array.length live;
    slot;
  }

let push g t =
  if g.n = Array.length g.live then begin
    let bigger = Array.make (max 16 (2 * g.n)) t in
    Array.blit g.live 0 bigger 0 g.n;
    g.live <- bigger
  end;
  g.live.(g.n) <- t;
  Tbl.replace g.slot t g.n;
  g.n <- g.n + 1

let swap_remove g i =
  let t = g.live.(i) in
  let last = g.n - 1 in
  let moved = g.live.(last) in
  g.live.(i) <- moved;
  Tbl.replace g.slot moved i;
  Tbl.remove g.slot t;
  g.n <- last;
  t

(* Fresh tuples are drawn before the deletions leave the mirror, so an
   insertion can never re-add a tuple the same transaction deletes: the
   net effect always carries exactly [inserts + deletes] tuples. *)
let next g ~inserts ~deletes =
  let fresh = Tbl.create (2 * inserts) in
  let added = ref [] in
  while Tbl.length fresh < inserts do
    let t = Workload.Generate.tuple g.rng g.columns in
    if not (Tbl.mem g.slot t || Tbl.mem fresh t) then begin
      Tbl.replace fresh t ();
      added := t :: !added
    end
  done;
  let removed = ref [] in
  for _ = 1 to min deletes g.n do
    removed := swap_remove g (Workload.Rng.int g.rng g.n) :: !removed
  done;
  let added = List.rev !added in
  List.iter (push g) added;
  List.rev_map (Transaction.delete g.relation) !removed
  @ List.map (Transaction.insert g.relation) added

let matches g r =
  Relation.cardinal r = g.n
  && Relation.total r = g.n
  &&
  let ok = ref true in
  for i = 0 to g.n - 1 do
    if not (Relation.mem r g.live.(i)) then ok := false
  done;
  !ok
