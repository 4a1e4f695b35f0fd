open Relalg

let remove_range l start len =
  List.filteri (fun i _ -> i < start || i >= start + len) l

(* ddmin-style greedy list reduction: try dropping chunks of halving size;
   [fails] receives the candidate list and says whether the failure is
   still there. *)
let shrink_list fails items =
  let result = ref items in
  let size = ref (max 1 (List.length items / 2)) in
  let finished = ref (items = []) in
  while not !finished do
    let i = ref 0 in
    while !i < List.length !result do
      let candidate = remove_range !result !i !size in
      if List.length candidate < List.length !result && fails candidate then
        result := candidate
      else i := !i + !size
    done;
    if !size = 1 then finished := true else size := max 1 (!size / 2)
  done;
  !result

let replace_nth l n x = List.mapi (fun i y -> if i = n then x else y) l

(* ------------------------------------------------------------------ *)
(* passes                                                              *)
(* ------------------------------------------------------------------ *)

let drop_transactions fails (s : Stream.t) =
  let transactions =
    shrink_list
      (fun transactions -> fails { s with Stream.transactions })
      s.Stream.transactions
  in
  { s with Stream.transactions }

let drop_operations fails (s : Stream.t) =
  let transactions = ref s.Stream.transactions in
  List.iteri
    (fun j _ ->
      let txn = List.nth !transactions j in
      let shrunk =
        shrink_list
          (fun candidate ->
            fails
              {
                s with
                Stream.transactions = replace_nth !transactions j candidate;
              })
          txn
      in
      transactions := replace_nth !transactions j shrunk)
    s.Stream.transactions;
  { s with Stream.transactions = !transactions }

(* Candidates that drop a parent out from under a tower child are not
   replayable streams; reject them before they reach [fails] so the
   shrinker never adopts an orphaning step (it can still remove a whole
   parent+child chain in one larger chunk). *)
let drop_views fails (s : Stream.t) =
  let views =
    shrink_list
      (fun views ->
        let candidate = { s with Stream.views } in
        Stream.well_formed candidate && fails candidate)
      s.Stream.views
  in
  { s with Stream.views }

let drop_indexes fails (s : Stream.t) =
  let indexes =
    shrink_list
      (fun indexes -> fails { s with Stream.indexes })
      s.Stream.indexes
  in
  { s with Stream.indexes }

let drop_initial_tuples fails (s : Stream.t) =
  let relations = ref s.Stream.relations in
  List.iteri
    (fun j _ ->
      let (name, schema, columns, tuples) = List.nth !relations j in
      let shrunk =
        shrink_list
          (fun candidate ->
            fails
              {
                s with
                Stream.relations =
                  replace_nth !relations j (name, schema, columns, candidate);
              })
          tuples
      in
      relations := replace_nth !relations j (name, schema, columns, shrunk))
    s.Stream.relations;
  { s with Stream.relations = !relations }

let shrink_values fails (s : Stream.t) =
  let current = ref s in
  (* Value shrinking never changes list shapes, so (transaction, operation,
     column) coordinates stay valid; the operation is re-read from the
     adopted stream at every step so earlier shrinks are kept. *)
  let try_position j k m =
    let txn = List.nth !current.Stream.transactions j in
    let relation, tuple, rebuild =
      match List.nth txn k with
      | Transaction.Insert (r, t) -> (r, t, fun t -> Transaction.insert r t)
      | Transaction.Delete (r, t) -> (r, t, fun t -> Transaction.delete r t)
    in
    ignore relation;
    match tuple.(m) with
    | Value.Int n when n <> 0 ->
      let attempt replacement =
        let candidate_tuple = Array.copy tuple in
        candidate_tuple.(m) <- Value.Int replacement;
        let candidate =
          {
            !current with
            Stream.transactions =
              replace_nth !current.Stream.transactions j
                (replace_nth txn k (rebuild candidate_tuple));
          }
        in
        if fails candidate then begin
          current := candidate;
          true
        end
        else false
      in
      if not (attempt 0) then ignore (attempt (n / 2))
    | _ -> ()
  in
  List.iteri
    (fun j txn ->
      List.iteri
        (fun k op ->
          let arity =
            match op with
            | Transaction.Insert (_, t) | Transaction.Delete (_, t) ->
              Array.length t
          in
          for m = 0 to arity - 1 do
            try_position j k m
          done)
        txn)
    s.Stream.transactions;
  !current

let minimize ?(max_rounds = 10) fails stream =
  let current = ref stream in
  let rounds = ref 0 in
  let progress = ref true in
  while !progress && !rounds < max_rounds do
    incr rounds;
    let before = Stream.size !current in
    current := drop_transactions fails !current;
    current := drop_operations fails !current;
    current := drop_views fails !current;
    current := drop_indexes fails !current;
    current := drop_initial_tuples fails !current;
    current := shrink_values fails !current;
    progress := Stream.size !current < before
  done;
  !current
