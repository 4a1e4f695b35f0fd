(* The durable commit pipeline: binary codec round-trips and checksum
   rejection, WAL header compatibility, torn-tail truncation at every
   byte offset of the final record, untrusted WAL and checkpoint files
   (hostile lengths, whole-file fuzzing) and the read-only wal_dump,
   checkpoint atomic round-trips, the self-heal backoff ladder, and
   manager-level recovery — including the QCheck property that recovery
   is idempotent for arbitrary generated workloads. *)

open Relalg
open Helpers
module Manager = Ivm.Manager
module Codec = Durability.Codec
module Wal = Durability.Wal
module State = Durability.State
module Record = Durability.Record
module Retry = Resilience.Retry

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ivm-durability-%s-%d" name (Unix.getpid ()))

let clean dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir name f =
  let dir = tmp name in
  clean dir;
  Fun.protect ~finally:(fun () -> clean dir) (fun () -> f dir)

let copy_file src dst =
  let content = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc content)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

(* Flip one byte of [path] at [pos]. *)
let corrupt_byte path pos =
  let content = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string content in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip w r value =
  let buf = Buffer.create 64 in
  w buf value;
  let reader = Codec.reader (Buffer.contents buf) in
  let decoded = r reader in
  Codec.expect_end reader;
  decoded

let codec_tests =
  [
    quick "integers round-trip (negatives and extremes)" (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check int) (string_of_int n) n
              (roundtrip Codec.w_int Codec.r_int n))
          [ 0; 1; -1; 42; -9_000_000; max_int; min_int ]);
    quick "strings and bools round-trip" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string) "string" s
              (roundtrip Codec.w_string Codec.r_string s))
          [ ""; "x"; "north\n\000tab\t" ];
        List.iter
          (fun b ->
            Alcotest.(check bool) "bool" b
              (roundtrip Codec.w_bool Codec.r_bool b))
          [ true; false ]);
    quick "relations round-trip with counts and schema" (fun () ->
        let r = counted_rel [ "A"; "B" ] [ ([ 1; 2 ], 3); ([ 4; 5 ], 1) ] in
        let decoded = roundtrip Codec.w_relation Codec.r_relation r in
        check_rel "relation" r decoded;
        Alcotest.(check bool)
          "schema" true
          (Schema.equal (Relation.schema r) (Relation.schema decoded)));
    quick "net effects round-trip" (fun () ->
        let net =
          [
            ("R", ([ Tuple.of_ints [ 1; 2 ] ], [ Tuple.of_ints [ 3; 4 ] ]));
            ("S", ([], [ Tuple.of_ints [ 9; 9 ] ]));
          ]
        in
        let decoded = roundtrip Codec.w_net Codec.r_net net in
        Alcotest.(check bool) "net equal" true (net = decoded));
    quick "truncated input raises Corrupt, not an escape" (fun () ->
        let buf = Buffer.create 16 in
        Codec.w_string buf "hello";
        let cut = String.sub (Buffer.contents buf) 0 3 in
        (try
           ignore (Codec.r_string (Codec.reader cut));
           Alcotest.fail "truncated input decoded"
         with Durability.Corrupt _ -> ()));
    quick "a repeated tuple whose counters overflow raises Corrupt" (fun () ->
        let buf = Buffer.create 64 in
        Codec.w_schema buf (Relation.schema (rel [ "A" ] []));
        Codec.w_int buf 2;
        for _ = 1 to 2 do
          Codec.w_tuple buf (Tuple.of_ints [ 1 ]);
          Codec.w_int buf max_int
        done;
        match Codec.r_relation (Codec.reader (Buffer.contents buf)) with
        | (_ : Relation.t) -> Alcotest.fail "overflowing counters decoded"
        | exception Durability.Corrupt _ -> ());
    quick "crc32 matches the IEEE reference vector" (fun () ->
        (* "123456789" -> 0xCBF43926 is the standard check value. *)
        Alcotest.(check int32)
          "check value" 0xCBF43926l
          (Codec.crc32 "123456789" ~pos:0 ~len:9));
    quick "crc32 chains: split anywhere equals one shot and bitwise" (fun () ->
        (* The word-wise loop consumes eight bytes a step and finishes
           byte-wise, so every length 0-64 at every start offset 0-7
           crosses each boundary case. *)
        let s = String.init 80 (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
        let bitwise ~pos ~len =
          let c = ref 0xFFFFFFFF in
          for i = pos to pos + len - 1 do
            c := !c lxor Char.code s.[i];
            for _ = 1 to 8 do
              c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
            done
          done;
          Int32.of_int (!c lxor 0xFFFFFFFF)
        in
        for pos = 0 to 7 do
          for len = 0 to 64 do
            let whole = Codec.crc32 s ~pos ~len in
            let what = Printf.sprintf "pos %d len %d" pos len in
            Alcotest.(check int32) (what ^ " bitwise") (bitwise ~pos ~len) whole;
            for k = 0 to len do
              let head = Codec.crc32 s ~pos ~len:k in
              Alcotest.(check int32)
                (Printf.sprintf "%s split %d" what k)
                whole
                (Codec.crc32 ~crc:head s ~pos:(pos + k) ~len:(len - k))
            done
          done
        done);
    quick "crc32 rejects a range outside the string" (fun () ->
        List.iter
          (fun (pos, len) ->
            match Codec.crc32 "0123456789" ~pos ~len with
            | (_ : int32) ->
              Alcotest.fail (Printf.sprintf "pos %d len %d accepted" pos len)
            | exception Invalid_argument _ -> ())
          [ (-1, 1); (0, -1); (0, 11); (10, 1); (11, 0); (3, 8); (max_int, 1) ]);
    quick "a frame header refuses a length past its u32 field" (fun () ->
        let b = Bytes.make 8 '\000' in
        Codec.set_frame_header b 0 ~len:Codec.max_frame ~crc:7l;
        Alcotest.(check int) "2^32 - 1 fits" Codec.max_frame
          (Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff);
        List.iter
          (fun len ->
            match Codec.set_frame_header b 0 ~len ~crc:0l with
            | () -> Alcotest.fail (Printf.sprintf "length %d accepted" len)
            | exception Durability.Frame_too_large n ->
              Alcotest.(check int) "reported length" len n)
          [ 1 lsl 32; -1 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Record and State round-trips                                        *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    Record.Commit
      {
        seq = 7;
        heals =
          [
            {
              Record.view = "v0";
              healed = false;
              health =
                State.Quarantined
                  {
                    error = "Fault.Injected(task)";
                    since = 5;
                    heal_failures = 2;
                    next_eligible = 11;
                  };
            };
          ];
        net = [ ("R", ([ Tuple.of_ints [ 1; 2 ] ], [])) ];
        outcomes =
          [
            ("v0", Record.Applied);
            ("v1", Record.Faulted "Fault.Injected(apply-inserts)");
            ("v2", Record.Cascade "parent v1 stale");
          ];
      };
    Record.Heal
      {
        seq = 3;
        change = { Record.view = "v1"; healed = true; health = State.Healthy };
      };
    Record.Repair { seq = 9; view = "v2" };
    Record.Refresh { seq = 12; view = "d0" };
  ]

let record_tests =
  [
    quick "every record variant round-trips" (fun () ->
        List.iter
          (fun record ->
            let decoded = roundtrip Record.encode Record.decode record in
            Alcotest.(check bool) (Record.describe record) true
              (record = decoded))
          sample_records);
    quick "state round-trips bit for bit" (fun () ->
        let st =
          {
            State.seq = 4;
            lsn = 6;
            relations = [ ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ] ]) ];
            views =
              [
                {
                  State.view = "v0";
                  health =
                    State.Disabled
                      { error = "boom"; since = 2; heal_failures = 3 };
                  contents = rel [ "A"; "B" ] [ [ 1; 2 ] ];
                  grouped = Some (rel [ "A" ] [ [ 1 ] ]);
                  pending =
                    [
                      ( "R",
                        rel [ "A"; "B" ] [ [ 5; 6 ] ],
                        rel [ "A"; "B" ] [] );
                    ];
                };
              ];
          }
        in
        let decoded = roundtrip State.encode State.decode st in
        (match State.diff st decoded with
        | None -> ()
        | Some d -> Alcotest.fail ("state diff after round-trip: " ^ d));
        Alcotest.(check bool) "equal" true (State.equal st decoded));
  ]

(* A state touching every part of the payload: strings, bounded
   schemas, counters above one, a grouped inner state, banked pending
   deltas and a quarantine. *)
let fuzz_state =
  let orders =
    Relation.of_counted
      (Schema.make_bounded
         [
           ("oid", Value.Int_ty, Some (0, 1000));
           ("region", Value.Str_ty, None);
         ])
      [
        ([| Value.Int 1; Value.Str "north" |], 1);
        ([| Value.Int 2; Value.Str "south" |], 3);
        ([| Value.Int 999; Value.Str "" |], 2);
      ]
  in
  {
    State.seq = 12;
    lsn = 40;
    relations = [ ("orders", orders); ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ] ]) ];
    views =
      [
        {
          State.view = "by_region";
          health =
            State.Quarantined
              { error = "boom"; since = 3; heal_failures = 1; next_eligible = 5 };
          contents = counted_rel [ "A" ] [ ([ 1 ], 2) ];
          grouped = Some (rel [ "A"; "B" ] [ [ 1; 2 ] ]);
          pending =
            [ ("R", rel [ "A"; "B" ] [ [ 5; 6 ] ], rel [ "A"; "B" ] [ [ 1; 2 ] ]) ];
        };
      ];
  }

(* Decoding untrusted bytes either succeeds or raises [Codec.Corrupt]:
   any other exception (or a crash) fails. *)
let decodes_or_corrupt bytes =
  match
    let r = Codec.reader bytes in
    ignore (State.decode r);
    Codec.expect_end r
  with
  | () -> true
  | exception Codec.Corrupt _ -> true

(* Whole files: a valid WAL or checkpoint, mutated, then opened from
   disk.  Each call must return, or raise [Corrupt] or
   [Incompatible_wal]; any other exception fails. *)

let write_file path content =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc content)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The file's bytes and its frames' [(offset, length)] extents, length
   counting the 8-byte [<len> <crc>] frame header. *)
let pristine_wal =
  lazy
    (with_dir "fuzz-wal-pristine" (fun dir ->
         Unix.mkdir dir 0o755;
         let path = Filename.concat dir "wal.bin" in
         let wal, _ = Wal.open_ ~fsync:Durability.Config.Never path in
         List.iter (fun r -> ignore (Wal.append wal r)) sample_records;
         ( read_file path,
           List.map (fun (_, off, len) -> (off, len)) (Wal.entries path) )))

let pristine_checkpoint =
  lazy
    (with_dir "fuzz-ckp-pristine" (fun dir ->
         Unix.mkdir dir 0o755;
         let path = Filename.concat dir "checkpoint.bin" in
         Durability.Checkpoint.write path fuzz_state;
         let content = read_file path in
         (content, [ (8, String.length content - 8) ])))

(* Positions are drawn as seeds and mapped onto the file when it is
   known.  [Hostile] overwrites 8 payload bytes with a length-like
   integer and re-seals the frame's CRC, so the bad length reaches the
   decoder instead of failing the checksum. *)
type edit = Flip of int * int | Hostile of int * int * int

let hostile_ints =
  [ max_int; max_int - 4; min_int; -1; 1 lsl 32; 1 lsl 40; 0x7fffffff ]

let edit_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun at mask -> Flip (at, mask)) nat (int_range 1 255);
        map3
          (fun frame at v -> Hostile (frame, at, v))
          nat nat (oneofl hostile_ints);
      ])

let show_edits (header, edits) =
  Printf.sprintf "header %s; %s"
    (match header with
    | None -> "kept"
    | Some at -> Printf.sprintf "byte %d flipped" at)
    (String.concat "; "
       (List.map
          (function
            | Flip (at, mask) -> Printf.sprintf "flip %d ^ %d" at mask
            | Hostile (f, at, v) -> Printf.sprintf "frame %d @%d := %d" f at v)
          edits))

let apply_edits (content, frames) (header, edits) =
  let b = Bytes.of_string content in
  let size = Bytes.length b in
  let flip at mask =
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask))
  in
  Option.iter (fun at -> flip at 0x5A) header;
  List.iter
    (function
      | Flip (at, mask) -> flip (at mod size) mask
      | Hostile (frame, at, v) ->
        let off, len = List.nth frames (frame mod List.length frames) in
        let payload = len - 8 in
        if payload >= 8 then begin
          Bytes.set_int64_le b
            (off + 8 + (at mod (payload - 7)))
            (Int64.of_int v);
          Bytes.set_int32_le b (off + 4)
            (Codec.crc32 (Bytes.unsafe_to_string b) ~pos:(off + 8) ~len:payload)
        end)
    edits;
  Bytes.to_string b

let file_fuzz ~name pristine load =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       (QCheck.make ~print:show_edits
          QCheck.Gen.(
            pair (opt (int_bound 7)) (list_size (int_range 1 3) edit_gen)))
       (fun mutation ->
         with_dir "fuzz-file" (fun dir ->
             Unix.mkdir dir 0o755;
             let path = Filename.concat dir "file.bin" in
             write_file path (apply_edits (Lazy.force pristine) mutation);
             match load path with
             | () -> true
             | exception (Durability.Corrupt _ | Durability.Incompatible_wal _)
               ->
               true
             | exception e ->
               QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))))

let payload_fuzz_tests =
  let payload =
    let b = Buffer.create 256 in
    State.encode b fuzz_state;
    Buffer.contents b
  in
  let n = String.length payload in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"a cut state payload decodes or raises Corrupt"
         QCheck.(int_bound (n - 1))
         (fun cut -> decodes_or_corrupt (String.sub payload 0 cut)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"a state payload with a flipped byte decodes or raises Corrupt"
         QCheck.(pair (int_bound (n - 1)) (int_range 1 255))
         (fun (at, mask) ->
           let b = Bytes.of_string payload in
           Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
           decodes_or_corrupt (Bytes.to_string b)));
    file_fuzz ~name:"a mutated WAL file opens or raises a typed error"
      pristine_wal (fun path ->
        ignore (Wal.open_ ~fsync:Durability.Config.Never path));
    file_fuzz ~name:"a mutated checkpoint reads or raises a typed error"
      pristine_checkpoint (fun path ->
        ignore (Durability.Checkpoint.read path));
  ]

(* ------------------------------------------------------------------ *)
(* Ordering: the encoding is a function of the relation's value        *)
(* ------------------------------------------------------------------ *)

(* First-column kinds covering every branch of the ordering routine:
   ties in long runs (with negatives), keys needing six radix passes,
   keys at [min_int]/[max_int] whose range overflows, strings, and a
   mixed column. *)
let column_gen kind =
  let open QCheck.Gen in
  let ints g = map (fun i -> Value.Int i) g in
  let str =
    map
      (fun s -> Value.Str s)
      (string_size ~gen:(char_range 'a' 'c') (int_bound 3))
  in
  match kind with
  | `Ties -> ints (int_range (-3) 3)
  | `Wide -> ints (int_range (-(1 lsl 40)) (1 lsl 40))
  | `Extreme ->
    ints (oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ])
  | `Str -> str
  | `Mixed -> oneof [ ints (int_range (-3) 3); str ]

(* A relation's counted tuples: arity 0 to 3, sometimes ragged (two
   arities in one relation), sized on both sides of the radix cutoff. *)
let counted_gen =
  let open QCheck.Gen in
  let* arity = int_range 0 3 in
  let* ragged = bool in
  let* first = oneofl [ `Ties; `Wide; `Extreme; `Str; `Mixed ] in
  let* size = oneof [ int_range 0 70; int_range 60 300 ] in
  let tuple =
    let* arity = if ragged then oneofl [ arity; arity + 1 ] else return arity in
    map Array.of_list
      (flatten_l
         (List.init arity (fun i ->
              column_gen (if i = 0 then first else `Ties))))
  in
  list_repeat size (pair tuple (int_range 1 3))

let show_counted counted =
  String.concat " "
    (List.map
       (fun (t, c) -> Printf.sprintf "%sx%d" (Tuple.to_string t) c)
       counted)

let counted_arb = QCheck.make ~print:show_counted counted_gen

let schema_for counted =
  let arity =
    List.fold_left (fun a (t, _) -> max a (Array.length t)) 0 counted
  in
  int_schema (List.init arity (Printf.sprintf "c%d"))

let relation_of counted =
  let r = Relation.create (schema_for counted) in
  List.iter (fun (t, c) -> Relation.add ~count:c r t) counted;
  r

let encoded rel =
  let b = Buffer.create 256 in
  Codec.w_relation b rel;
  Buffer.contents b

(* The format written out by hand: schema, length, then every counted
   tuple in [List.sort Tuple.compare] order. *)
let reference_encoding rel =
  let b = Buffer.create 256 in
  Codec.w_schema b (Relation.schema rel);
  let sorted =
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) (Relation.elements rel)
  in
  Codec.w_int b (List.length sorted);
  List.iter
    (fun (t, c) ->
      Codec.w_tuple b t;
      Codec.w_int b c)
    sorted;
  Buffer.contents b

(* The orders scenario at 1/20 of the benchmark's size, its three
   [oltp] views, 200 seeded commits. *)
let seeded_orders_state () =
  let sc =
    Workload.Scenario.orders ~rng:(Workload.Rng.make 1986) ~customers:100
      ~orders:2000
  in
  let db = sc.Workload.Scenario.db in
  let mgr = Manager.create ~domains:1 db in
  let open Condition.Formula.Dsl in
  List.iter
    (fun (name, expr) -> ignore (Manager.define_view mgr ~name expr))
    [
      ( "dashboard",
        Query.Expr.(
          project [ "oid"; "cid"; "amount" ]
            (select
               ((v "amount" >% i 900) &&% (v "region" =% s "north"))
               (join (base "orders") (base "customers")))) );
      ( "hot_orders",
        Query.Expr.(
          project [ "oid"; "amount" ]
            (select (v "amount" >% i 950) (base "orders")))
      );
      ( "revenue",
        Query.Expr.(
          group_by ~keys:[ "cid" ]
            [
              { Query.Aggregate.func = Count; output = "n_orders" };
              { Query.Aggregate.func = Sum "amount"; output = "revenue" };
            ]
            (base "orders")) );
    ];
  let columns = Workload.Scenario.columns_of sc "orders" in
  let rng = Workload.Rng.make 7 in
  for _ = 1 to 200 do
    ignore
      (Manager.commit mgr
         (Workload.Generate.transaction rng db "orders" ~columns ~inserts:4
            ~deletes:4))
  done;
  Manager.capture_state mgr

(* The file the pre-streaming encoder wrote for that state.  A
   deliberate format change updates them and says so in CHANGES.md. *)
let golden_size = 223_646
let golden_crc = 0xAB22E255l

(* The same scenario with [hot_orders] deferred and [dashboard]
   quarantined by an injected fault, its heals failing, so both bank
   four commits; a deleted order comes back and a new one goes again,
   which the banks must cancel. *)
let banked_orders_state () =
  let sc =
    Workload.Scenario.orders ~rng:(Workload.Rng.make 1986) ~customers:100
      ~orders:2000
  in
  let db = sc.Workload.Scenario.db in
  let mgr = Manager.create ~domains:1 ~policy:Resilience.Policy.Quarantine db in
  let open Condition.Formula.Dsl in
  ignore
    (Manager.define_view mgr ~name:"dashboard"
       Query.Expr.(
         project [ "oid"; "cid"; "amount" ]
           (select
              ((v "amount" >% i 900) &&% (v "region" =% s "north"))
              (join (base "orders") (base "customers")))));
  ignore
    (Manager.define_view mgr ~name:"hot_orders" ~mode:Manager.Deferred
       Query.Expr.(
         project [ "oid"; "amount" ]
           (select (v "amount" >% i 950) (base "orders"))));
  let orders = Database.find db "orders" in
  let columns = Workload.Scenario.columns_of sc "orders" in
  let rng = Workload.Rng.make 7 in
  let back = fst (List.hd (Relation.sorted_elements orders)) in
  let gone = Array.copy back in
  gone.(0) <- Value.Int 1_000_000;
  Fun.protect ~finally:Resilience.Fault.disable (fun () ->
      Resilience.Fault.configure ~only:[ "task" ] ~rate:1.0 ();
      ignore
        (Manager.commit mgr
           (Workload.Generate.transaction rng db "orders" ~columns ~inserts:4
              ~deletes:4));
      Resilience.Fault.configure ~only:[ "eval"; "recompute" ] ~rate:1.0 ();
      List.iter
        (fun txn -> ignore (Manager.commit mgr txn))
        [
          [
            Transaction.delete "orders" back; Transaction.insert "orders" gone;
          ];
          [ Transaction.insert "orders" back ];
          [ Transaction.delete "orders" gone ];
        ]);
  Manager.capture_state mgr

let banked_size = 116_562
let banked_crc = 0x473FF18El

let ordering_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"the encoder's order is List.sort Tuple.compare" counted_arb
         (fun counted ->
           let rel = relation_of counted in
           let expected =
             List.sort
               (fun (a, _) (b, _) -> Tuple.compare a b)
               (Relation.elements rel)
           in
           Relation.sorted_elements rel = expected
           && encoded rel = reference_encoding rel));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"equal relations with different histories encode alike"
         (QCheck.pair counted_arb counted_arb)
         (fun (counted, junk) ->
           let direct = relation_of counted in
           (* Grown from one slot through resizes, the tuples arriving in
              reverse behind junk that is then deleted again. *)
           let churned =
             Relation.create ~size_hint:1 (Relation.schema direct)
           in
           let add (t, c) = Relation.add ~count:c churned t in
           List.iter add junk;
           List.iter add (List.rev counted);
           List.iter (fun (t, c) -> Relation.update churned t (-c)) junk;
           Relation.equal direct churned && encoded direct = encoded churned));
    quick "a seeded checkpoint keeps its golden CRC-32" (fun () ->
        with_dir "golden" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "checkpoint.bin" in
            Durability.Checkpoint.write path (seeded_orders_state ());
            let content = read_file path in
            Alcotest.(check int) "file size" golden_size
              (String.length content);
            Alcotest.(check int32) "CRC-32 of the file" golden_crc
              (Codec.crc32 content ~pos:0 ~len:(String.length content))));
    quick "a checkpoint holding banks keeps its golden CRC-32" (fun () ->
        with_dir "banked" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "checkpoint.bin" in
            let st = banked_orders_state () in
            List.iter
              (fun (v : State.view_state) ->
                Alcotest.(check bool)
                  (v.State.view ^ " banks") true (v.State.pending <> []);
                if v.State.view = "dashboard" then
                  match v.State.health with
                  | State.Quarantined { heal_failures; _ } ->
                    Alcotest.(check int) "two failed heals" 2 heal_failures
                  | State.Healthy | State.Disabled _ ->
                    Alcotest.fail "dashboard should be quarantined")
              st.State.views;
            Durability.Checkpoint.write path st;
            let content = read_file path in
            Alcotest.(check int) "file size" banked_size (String.length content);
            Alcotest.(check int32) "CRC-32 of the file" banked_crc
              (Codec.crc32 content ~pos:0 ~len:(String.length content))));
  ]

(* ------------------------------------------------------------------ *)
(* WAL file                                                            *)
(* ------------------------------------------------------------------ *)

let file_header magic version =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b version;
  Buffer.contents b

(* <u32le len> <u32le crc32> payload: a frame that passes its checksum. *)
let sealed_frame payload =
  let len = String.length payload in
  let b = Buffer.create (8 + len) in
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.add_int32_le b (Codec.crc32 payload ~pos:0 ~len);
  Buffer.add_string b payload;
  Buffer.contents b

(* [prefix] up to a string, then that string's length prefix at
   [max_int - 4]: [pos + n] overflows, so only a comparison with the
   bytes left rejects it. *)
let hostile_payload prefix =
  let b = Buffer.create 64 in
  prefix b;
  Codec.w_int b (max_int - 4);
  Buffer.add_string b "name";
  Buffer.contents b

(* The dump tool, built next to this test by the dune [deps]. *)
let wal_dump_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "tools" "wal_dump.exe")

let wal_tests =
  [
    quick "append / reopen returns the records in order" (fun () ->
        with_dir "wal-roundtrip" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            let wal, existing =
              Wal.open_ ~fsync:Durability.Config.Always path
            in
            Alcotest.(check int) "fresh log" 0 (List.length existing);
            let lsns =
              List.map
                (fun r ->
                  let lsn = Wal.append wal r in
                  Wal.maybe_sync wal;
                  lsn)
                sample_records
            in
            Alcotest.(check (list int)) "lsns" [ 1; 2; 3; 4 ] lsns;
            let _, scanned = Wal.open_ ~fsync:Durability.Config.Never path in
            Alcotest.(check bool)
              "records survive" true
              (List.map snd scanned = sample_records);
            Alcotest.(check (list int))
              "lsns survive" [ 1; 2; 3; 4 ]
              (List.map fst scanned)));
    quick "foreign and future headers raise Incompatible_wal" (fun () ->
        with_dir "wal-header" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc "NOTAWAL!");
            (try
               ignore (Wal.open_ ~fsync:Durability.Config.Always path);
               Alcotest.fail "foreign magic accepted"
             with Durability.Incompatible_wal _ -> ());
            let buf = Buffer.create 8 in
            Buffer.add_string buf Wal.magic;
            Buffer.add_uint16_le buf (Wal.version + 1);
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (Buffer.contents buf));
            try
              ignore (Wal.open_ ~fsync:Durability.Config.Always path);
              Alcotest.fail "future version accepted"
            with Durability.Incompatible_wal _ -> ()));
    quick "a flipped payload byte drops the record as a torn tail"
      (fun () ->
        with_dir "wal-crc" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            let wal, _ = Wal.open_ ~fsync:Durability.Config.Always path in
            List.iter
              (fun r ->
                ignore (Wal.append wal r);
                Wal.maybe_sync wal)
              sample_records;
            let entries = Wal.entries path in
            let _, off, len = List.nth entries 3 in
            (* Flip a byte inside the last frame's payload. *)
            corrupt_byte path (off + len - 1);
            let wal2, scanned =
              Wal.open_ ~fsync:Durability.Config.Never path
            in
            Alcotest.(check int) "last record dropped" 3 (List.length scanned);
            Alcotest.(check int) "torn bytes counted" len
              (Wal.torn_bytes wal2)));
    quick "a hostile string length in a WAL frame is a torn tail" (fun () ->
        with_dir "wal-hostile" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            (* lsn, then a Repair record whose view name claims
               [max_int - 4] bytes *)
            let payload =
              hostile_payload (fun b ->
                  Codec.w_int b 1;
                  Codec.w_byte b 2;
                  Codec.w_int b 1)
            in
            write_file path
              (file_header Wal.magic Wal.version ^ sealed_frame payload);
            let wal, records = Wal.open_ ~fsync:Durability.Config.Never path in
            Alcotest.(check int) "no record survives" 0 (List.length records);
            Alcotest.(check int) "the frame is the torn tail"
              (8 + String.length payload) (Wal.torn_bytes wal)));
    quick "a hostile string length in a checkpoint is Corrupt" (fun () ->
        with_dir "ckp-hostile" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "checkpoint.bin" in
            (* seq, lsn, one relation whose name claims [max_int - 4] bytes *)
            let payload =
              hostile_payload (fun b ->
                  Codec.w_int b 0;
                  Codec.w_int b 0;
                  Codec.w_int b 1)
            in
            write_file path
              (file_header Durability.Checkpoint.magic
                 Durability.Checkpoint.version
              ^ sealed_frame payload);
            match Durability.Checkpoint.read path with
            | _ -> Alcotest.fail "hostile checkpoint accepted"
            | exception Durability.Corrupt _ -> ()));
    quick "wal_dump reports a torn tail and leaves it in place" (fun () ->
        with_dir "wal-dump" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            let wal, _ = Wal.open_ ~fsync:Durability.Config.Always path in
            List.iter (fun r -> ignore (Wal.append wal r)) sample_records;
            Wal.sync wal;
            write_file path (read_file path ^ String.make 12 '\x5A');
            let before = read_file path in
            let dump () =
              let out = Filename.concat dir "dump.txt" in
              let status =
                Sys.command
                  (Printf.sprintf "%s %s > %s"
                     (Filename.quote wal_dump_exe) (Filename.quote dir)
                     (Filename.quote out))
              in
              Alcotest.(check int) "wal_dump exits 0" 0 status;
              let text = read_file out in
              Sys.remove out;
              text
            in
            let first = dump () in
            let second = dump () in
            Alcotest.(check bool) "log bytes unchanged" true
              (read_file path = before);
            Alcotest.(check bool) "torn bytes reported" true
              (String.length first > 0
              && List.exists
                   (fun line ->
                     String.starts_with ~prefix:"wal: 4 records" line
                     && String.ends_with
                          ~suffix:"12 torn bytes after them" line)
                   (String.split_on_char '\n' first));
            Alcotest.(check string) "second dump reports the same" first
              second));
    quick "a 65 MiB record reads back whole" (fun () ->
        with_dir "wal-large" (fun dir ->
            Unix.mkdir dir 0o755;
            let path = Filename.concat dir "wal.bin" in
            let wal, _ = Wal.open_ ~fsync:Durability.Config.Never path in
            let record =
              Record.Repair { seq = 1; view = String.make (65 lsl 20) 'v' }
            in
            ignore (Wal.append wal record);
            let records, torn = Wal.read path in
            Alcotest.(check int) "no torn bytes" 0 torn;
            Alcotest.(check bool) "the record survives" true
              (records = [ (1, record) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Manager-level durability                                            *)
(* ------------------------------------------------------------------ *)

let orders_columns =
  [ Workload.Generate.Uniform (1, 500); Workload.Generate.Uniform (1, 9) ]

let make_db () =
  db_of
    [
      ("R", rel [ "A"; "B" ] [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ]; [ 7; 2 ] ]);
      ("S", rel [ "B"; "C" ] [ [ 2; 7 ]; [ 4; 8 ]; [ 6; 9 ] ]);
    ]

let define_views mgr =
  ignore
    (Manager.define_view mgr ~name:"j"
       Query.Expr.(join (base "R") (base "S")));
  ignore
    (Manager.define_view mgr ~name:"p" Query.Expr.(project [ "B" ] (base "R")))

(* Run [n] seed-deterministic transactions against a fresh durable
   manager in [dir], returning the manager and the per-LSN state
   snapshots (keyed by {!Manager.wal_lsn} after each commit). *)
let run_durable ?fsync ?checkpoint_every ~seed ~transactions dir =
  let config = Durability.Config.make ?fsync ?checkpoint_every dir in
  let db = make_db () in
  let mgr = Manager.create ~domains:1 ~durability:config db in
  define_views mgr;
  let rng = Workload.Rng.make seed in
  let snaps = Hashtbl.create 16 in
  Hashtbl.replace snaps (Manager.wal_lsn mgr) (Manager.capture_state mgr);
  for _ = 1 to transactions do
    let txn =
      Workload.Generate.transaction rng db "R" ~columns:orders_columns
        ~inserts:2 ~deletes:1
    in
    ignore (Manager.commit mgr txn);
    Hashtbl.replace snaps (Manager.wal_lsn mgr) (Manager.capture_state mgr)
  done;
  (mgr, snaps)

let fresh_recovered ?fsync ?checkpoint_every dir =
  let config = Durability.Config.make ?fsync ?checkpoint_every dir in
  let mgr = Manager.create ~domains:1 ~durability:config (make_db ()) in
  define_views mgr;
  let info = Manager.recover mgr in
  (mgr, info)

let check_state msg expected actual =
  match State.diff expected actual with
  | None -> ()
  | Some d -> Alcotest.fail (msg ^ ": " ^ d)

let checkpoint_path dir =
  Durability.Config.checkpoint_path (Durability.Config.make dir)

let wal_path dir = Durability.Config.wal_path (Durability.Config.make dir)

(* The newest [recover] provenance record must say whether the closing
   checkpoint was written or skipped ([outcome]) and carry the layer
   times. *)
let check_recover_provenance what outcome =
  let events =
    match
      List.rev
        (List.filter
           (fun (c : Obs.Provenance.commit) -> c.kind = "recover")
           (Obs.Provenance.recent ()))
    with
    | c :: _ -> c.events
    | [] -> Alcotest.fail "no recover provenance record"
  in
  let detail kind =
    match
      List.find_opt (fun (e : Obs.Provenance.event) -> e.kind = kind) events
    with
    | Some e -> e.detail
    | None -> Alcotest.fail (Printf.sprintf "%s: no %s event" what kind)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: closing checkpoint %s" what outcome)
    true
    (String.starts_with ~prefix:outcome (detail "closing-checkpoint"));
  Alcotest.(check bool)
    (what ^ ": layer times")
    true
    (String.starts_with ~prefix:"load_ns=" (detail "layers"))

(* Checkpoints [f] writes, counted by the telemetry counter. *)
let checkpoints_written f =
  Obs.Control.with_enabled (fun () ->
      let before = Obs.Metrics.counter_value "ivm_wal_checkpoints_total" in
      f ();
      Obs.Metrics.counter_value "ivm_wal_checkpoints_total" - before)

let manager_tests =
  [
    quick "commit appends one record; recovery reproduces the state"
      (fun () ->
        with_dir "mgr-roundtrip" (fun dir ->
            let mgr, _ = run_durable ~seed:11 ~transactions:5 dir in
            Alcotest.(check bool) "durable" true (Manager.durable mgr);
            Alcotest.(check int) "one record per commit" 5
              (Manager.wal_lsn mgr);
            let expected = Manager.capture_state mgr in
            let mgr2, info = fresh_recovered dir in
            Alcotest.(check int) "all records replayed" 5
              info.Manager.records_replayed;
            check_state "recovered" expected (Manager.capture_state mgr2);
            Alcotest.(check bool)
              "views consistent" true
              (Manager.all_consistent mgr2)));
    quick "recovery is idempotent (in place and from the rewritten disk)"
      (fun () ->
        with_dir "mgr-idempotent" (fun dir ->
            let mgr, _ = run_durable ~seed:12 ~transactions:4 dir in
            let expected = Manager.capture_state mgr in
            let mgr2, _ = fresh_recovered dir in
            check_state "first" expected (Manager.capture_state mgr2);
            (* recover replayed records, so it wrote a closing checkpoint
               and truncated the WAL; a fresh manager over the rewritten
               directory replays nothing and lands on the same state. *)
            let mgr3, info3 = fresh_recovered dir in
            Alcotest.(check int) "nothing left to replay" 0
              info3.Manager.records_replayed;
            check_state "second" expected (Manager.capture_state mgr3)));
    quick "checkpoint cadence truncates the WAL and bounds replay"
      (fun () ->
        with_dir "mgr-cadence" (fun dir ->
            let mgr, _ =
              run_durable ~checkpoint_every:3 ~seed:13 ~transactions:7 dir
            in
            let expected = Manager.capture_state mgr in
            let mgr2, info = fresh_recovered ~checkpoint_every:3 dir in
            Alcotest.(check bool)
              (Printf.sprintf "replay bounded by cadence (%d <= 3)"
                 info.Manager.records_replayed)
              true
              (info.Manager.records_replayed <= 3);
            check_state "recovered" expected (Manager.capture_state mgr2)));
    quick "explicit checkpoint makes recovery a pure restore" (fun () ->
        with_dir "mgr-checkpoint" (fun dir ->
            let mgr, _ = run_durable ~seed:14 ~transactions:3 dir in
            Manager.checkpoint mgr;
            let expected = Manager.capture_state mgr in
            let mgr2, info = fresh_recovered dir in
            Alcotest.(check int) "no replay" 0 info.Manager.records_replayed;
            check_state "restored" expected (Manager.capture_state mgr2)));
    quick "a recovery with nothing to replay writes no checkpoint" (fun () ->
        with_dir "mgr-skip" (fun dir ->
            let mgr, _ = run_durable ~seed:17 ~transactions:3 dir in
            Manager.checkpoint mgr;
            let expected = Manager.capture_state mgr in
            let ckpt = checkpoint_path dir in
            let inode = (Unix.stat ckpt).Unix.st_ino in
            let written =
              checkpoints_written (fun () ->
                  let mgr2, info = fresh_recovered dir in
                  Alcotest.(check int) "no replay" 0
                    info.Manager.records_replayed;
                  check_state "restored" expected (Manager.capture_state mgr2))
            in
            Alcotest.(check int) "ivm_wal_checkpoints_total unchanged" 0 written;
            check_recover_provenance "nothing to replay" "skipped";
            Alcotest.(check int) "checkpoint.bin keeps its inode" inode
              (Unix.stat ckpt).Unix.st_ino));
    quick "a skipped rewrite still truncates a WAL of covered records"
      (fun () ->
        with_dir "mgr-skip-truncate" (fun dir ->
            let mgr, _ = run_durable ~seed:18 ~transactions:3 dir in
            let wal = wal_path dir in
            let saved = In_channel.with_open_bin wal In_channel.input_all in
            (* A crash at wal-truncate: the checkpoint covers every
               record, but the log still holds them. *)
            Manager.checkpoint mgr;
            let expected = Manager.capture_state mgr in
            Out_channel.with_open_bin wal (fun oc ->
                Out_channel.output_string oc saved);
            let inode = (Unix.stat (checkpoint_path dir)).Unix.st_ino in
            let written =
              checkpoints_written (fun () ->
                  let mgr2, info = fresh_recovered dir in
                  Alcotest.(check int) "covered records not replayed" 0
                    info.Manager.records_replayed;
                  Alcotest.(check int) "lsn past the covered records" 3
                    info.Manager.last_lsn;
                  check_state "restored" expected (Manager.capture_state mgr2))
            in
            Alcotest.(check int) "no checkpoint written" 0 written;
            Alcotest.(check int) "checkpoint.bin keeps its inode" inode
              (Unix.stat (checkpoint_path dir)).Unix.st_ino;
            Alcotest.(check (list int)) "WAL truncated to its header" []
              (List.map (fun (lsn, _, _) -> lsn) (Wal.entries wal));
            Alcotest.(check int) "WAL is the bare header" 8
              (Unix.stat wal).Unix.st_size));
    quick "a recovery that replays records writes a checkpoint" (fun () ->
        with_dir "mgr-rewrite-replay" (fun dir ->
            let _ = run_durable ~seed:19 ~transactions:3 dir in
            let inode = (Unix.stat (checkpoint_path dir)).Unix.st_ino in
            let written =
              checkpoints_written (fun () ->
                  let _, info = fresh_recovered dir in
                  Alcotest.(check int) "replayed" 3 info.Manager.records_replayed)
            in
            Alcotest.(check int) "one checkpoint written" 1 written;
            check_recover_provenance "replayed" "written";
            Alcotest.(check bool) "checkpoint.bin replaced" true
              (inode <> (Unix.stat (checkpoint_path dir)).Unix.st_ino)));
    quick "a view defined after the checkpoint makes recovery write one"
      (fun () ->
        with_dir "mgr-rewrite-view" (fun dir ->
            let mgr, _ = run_durable ~seed:20 ~transactions:3 dir in
            Manager.checkpoint mgr;
            let recover_with_late () =
              let config = Durability.Config.make dir in
              let mgr = Manager.create ~domains:1 ~durability:config (make_db ()) in
              define_views mgr;
              ignore
                (Manager.define_view mgr ~name:"late"
                   Query.Expr.(project [ "A" ] (base "R")));
              let info = Manager.recover mgr in
              (mgr, info)
            in
            let written =
              checkpoints_written (fun () ->
                  let mgr2, info = recover_with_late () in
                  Alcotest.(check int) "no replay" 0 info.Manager.records_replayed;
                  Alcotest.(check bool) "late view consistent" true
                    (Manager.consistent mgr2 "late"))
            in
            Alcotest.(check int) "one checkpoint written" 1 written;
            (* The rewritten checkpoint covers the late view, so the next
               recovery has nothing to write. *)
            let written =
              checkpoints_written (fun () -> ignore (recover_with_late ()))
            in
            Alcotest.(check int) "then nothing to write" 0 written));
    quick "commit before recovery is refused; define after append too"
      (fun () ->
        with_dir "mgr-guards" (fun dir ->
            let mgr, _ = run_durable ~seed:15 ~transactions:2 dir in
            (* A second manager over live durable state must recover
               before committing. *)
            let config = Durability.Config.make dir in
            let late = Manager.create ~domains:1 ~durability:config (make_db ())
            in
            define_views late;
            (try
               ignore
                 (Manager.commit late
                    [ Transaction.insert "R" (Tuple.of_ints [ 100; 1 ]) ]);
               Alcotest.fail "commit before recovery accepted"
             with Failure _ -> ());
            (* The first manager already appended: defining another view
               now would make replay ambiguous. *)
            try
              ignore
                (Manager.define_view mgr ~name:"late"
                   Query.Expr.(project [ "A" ] (base "R")));
              Alcotest.fail "define_view after append accepted"
            with Invalid_argument _ -> ()));
    quick "recover refuses a foreign WAL" (fun () ->
        with_dir "mgr-foreign" (fun dir ->
            Unix.mkdir dir 0o755;
            Out_channel.with_open_bin (Filename.concat dir "wal.bin")
              (fun oc -> Out_channel.output_string oc "NOTAWAL!");
            let config = Durability.Config.make dir in
            try
              ignore (Manager.create ~domains:1 ~durability:config (make_db ()));
              Alcotest.fail "foreign WAL accepted"
            with Durability.Incompatible_wal _ -> ()));
    quick "commits past 64 MiB recover whole" (fun () ->
        with_dir "mgr-large" (fun dir ->
            let make_db () =
              db_of
                [
                  ( "docs",
                    Relation.create
                      (Schema.make
                         [ ("id", Value.Int_ty); ("body", Value.Str_ty) ]) );
                ]
            in
            let config =
              Durability.Config.make ~fsync:Durability.Config.Always dir
            in
            let db = make_db () in
            let mgr = Manager.create ~domains:1 ~durability:config db in
            let doc id body =
              Transaction.insert "docs" [| Value.Int id; Value.Str body |]
            in
            let mib = String.make (1 lsl 20) 'x' in
            List.iter
              (fun txn -> ignore (Manager.commit mgr txn))
              [
                [ doc 0 "small" ];
                List.init 70 (fun i -> doc (i + 1) mib);
                [ doc 71 "small" ];
              ];
            Alcotest.(check int) "72 tuples before the crash" 72
              (Relation.cardinal (Database.find db "docs"));
            let expected = Manager.capture_state mgr in
            let db2 = make_db () in
            let mgr2 = Manager.create ~domains:1 ~durability:config db2 in
            let info = Manager.recover mgr2 in
            Alcotest.(check int) "no torn bytes" 0 info.Manager.torn_bytes;
            Alcotest.(check int) "every record replayed" 3
              info.Manager.records_replayed;
            Alcotest.(check int) "commit seq" 3 (Manager.commit_seq mgr2);
            Alcotest.(check int) "72 tuples after recovery" 72
              (Relation.cardinal (Database.find db2 "docs"));
            check_state "recovered" expected (Manager.capture_state mgr2)));
    quick "a kill at wal-checkpoint-seal keeps the old checkpoint" (fun () ->
        with_dir "mgr-seal" (fun dir ->
            let mgr, _ = run_durable ~seed:21 ~transactions:3 dir in
            Manager.checkpoint mgr;
            let ckpt = checkpoint_path dir in
            let old_bytes = read_file ckpt in
            ignore
              (Manager.commit mgr
                 [ Transaction.insert "R" (Tuple.of_ints [ 100; 2 ]) ]);
            let expected = Manager.capture_state mgr in
            Resilience.Fault.configure ~only:[ "wal-checkpoint-seal" ]
              ~rate:1.0 ();
            (match
               Fun.protect ~finally:Resilience.Fault.disable (fun () ->
                   Manager.checkpoint mgr)
             with
            | () -> Alcotest.fail "the checkpoint was not killed"
            | exception Resilience.Fault.Injected "wal-checkpoint-seal" -> ());
            Alcotest.(check bool) "checkpoint.bin keeps its bytes" true
              (read_file ckpt = old_bytes);
            Alcotest.(check bool) "no temp file left" false
              (Sys.file_exists (ckpt ^ ".tmp"));
            let mgr2, info = fresh_recovered dir in
            Alcotest.(check int) "the record past the checkpoint replayed" 1
              info.Manager.records_replayed;
            check_state "recovered" expected (Manager.capture_state mgr2);
            Manager.checkpoint mgr2;
            match Durability.Checkpoint.read ckpt with
            | Some written -> check_state "next checkpoint" expected written
            | None -> Alcotest.fail "no checkpoint after recovery"));
    quick "a checkpoint times each of its stages once" (fun () ->
        with_dir "mgr-stages" (fun dir ->
            let mgr, _ = run_durable ~seed:22 ~transactions:3 dir in
            let stages =
              [ "encode"; "write"; "fsync"; "publish"; "truncate" ]
            in
            let sample stage =
              match
                Obs.Metrics.histogram ~labels:[ ("stage", stage) ]
                  "ivm_wal_checkpoint_ns"
              with
              | Some h -> (h.Obs.Metrics.count, h.Obs.Metrics.sum)
              | None -> (0, 0)
            in
            Obs.Control.with_enabled (fun () ->
                let before = List.map sample stages in
                let t0 = Obs.Clock.now_ns () in
                Manager.checkpoint mgr;
                let elapsed = Obs.Clock.now_ns () - t0 in
                let after = List.map sample stages in
                let total =
                  List.fold_left2
                    (fun total (stage, (n0, sum0)) (n1, sum1) ->
                      Alcotest.(check int) (stage ^ ": one sample") 1 (n1 - n0);
                      total + (sum1 - sum0))
                    0
                    (List.combine stages before)
                    after
                in
                Alcotest.(check bool)
                  (Printf.sprintf "stages sum to %d ns <= %d ns around the call"
                     total elapsed)
                  true (total <= elapsed))));
    quick "refresh refuses before recover" (fun () ->
        with_dir "mgr-refresh-guard" (fun dir ->
            let config = Durability.Config.make dir in
            let open_manager () =
              let mgr =
                Manager.create ~domains:1 ~durability:config (make_db ())
              in
              define_views mgr;
              ignore
                (Manager.define_view mgr ~name:"d" ~mode:Manager.Deferred
                   Query.Expr.(project [ "A" ] (base "R")));
              mgr
            in
            ignore
              (Manager.commit (open_manager ())
                 [ Transaction.insert "R" (Tuple.of_ints [ 100; 1 ]) ]);
            (* A second manager over that state has an empty bank, but
               its view is as stale as its base relations. *)
            match Manager.refresh (open_manager ()) "d" with
            | _ -> Alcotest.fail "refresh before recovery accepted"
            | exception Failure _ -> ()));
    quick "a checkpoint allocates the same whatever its directory's name"
      (fun () ->
        (* The same seeded commits, three checkpoints among them, in two
           directories whose names differ by 80 characters: a path
           string built per checkpoint shows in the minor words. *)
        let minor_words name =
          with_dir name (fun dir ->
              let config =
                Durability.Config.make ~fsync:Durability.Config.Never
                  ~checkpoint_every:2 dir
              in
              let db = make_db () in
              let mgr = Manager.create ~domains:1 ~durability:config db in
              define_views mgr;
              let rng = Workload.Rng.make 21 in
              let commit () =
                ignore
                  (Manager.commit mgr
                     (Workload.Generate.transaction rng db "R"
                        ~columns:orders_columns ~inserts:2 ~deletes:1))
              in
              (* warm-up: the baseline checkpoint *)
              commit ();
              let before = Gc.minor_words () in
              for _ = 1 to 6 do
                commit ()
              done;
              Gc.minor_words () -. before)
        in
        let short = minor_words "words" in
        let long = minor_words ("words-" ^ String.make 80 'x') in
        Alcotest.(check (float 0.0)) "minor words" short long);
  ]

(* ------------------------------------------------------------------ *)
(* Torn-tail corpus: cut the final record at every byte offset         *)
(* ------------------------------------------------------------------ *)

let torn_tail_tests =
  [
    quick "recovery survives truncation at every byte of the last record"
      (fun () ->
        with_dir "torn-corpus" (fun dir ->
            with_dir "torn-corpus-cut" (fun dir2 ->
                let mgr, snaps = run_durable ~seed:16 ~transactions:4 dir in
                let full = Manager.capture_state mgr in
                let wal_path =
                  Durability.Config.wal_path (Durability.Config.make dir)
                in
                let entries = Wal.entries wal_path in
                let last_lsn, off, len =
                  List.nth entries (List.length entries - 1)
                in
                let prev =
                  match Hashtbl.find_opt snaps (last_lsn - 1) with
                  | Some st -> st
                  | None -> Alcotest.fail "missing snapshot"
                in
                Unix.mkdir dir2 0o755;
                let wal2 =
                  Durability.Config.wal_path (Durability.Config.make dir2)
                in
                let ckpt = Filename.concat dir "checkpoint.bin" in
                let ckpt2 = Filename.concat dir2 "checkpoint.bin" in
                for cut = 0 to len do
                  copy_file wal_path wal2;
                  copy_file ckpt ckpt2;
                  truncate_file wal2 (off + cut);
                  let mgr2, info = fresh_recovered dir2 in
                  (* A whole frame (cut = len) recovers everything; any
                     partial cut falls back to the previous record. *)
                  let expected = if cut = len then full else prev in
                  check_state
                    (Printf.sprintf "cut at byte %d of %d" cut len)
                    expected
                    (Manager.capture_state mgr2);
                  Alcotest.(check int)
                    (Printf.sprintf "torn bytes at cut %d" cut)
                    (if cut = 0 || cut = len then 0 else cut)
                    info.Manager.torn_bytes
                done)))
  ]

(* ------------------------------------------------------------------ *)
(* Self-heal backoff ladder                                            *)
(* ------------------------------------------------------------------ *)

let backoff_tests =
  [
    quick "delays grow by the multiplier from the base" (fun () ->
        let s =
          {
            Retry.rounds = 5;
            base = 2;
            multiplier = 3.0;
            backoff_jitter = 0.0;
            schedule_seed = 1;
          }
        in
        Alcotest.(check (list int))
          "ladder" [ 2; 6; 18; 54 ]
          (List.map
             (fun failures -> Retry.heal_delay s ~failures)
             [ 1; 2; 3; 4 ]));
    quick "delay is at least one commit" (fun () ->
        let s =
          {
            Retry.rounds = 3;
            base = 0;
            multiplier = 0.5;
            backoff_jitter = 0.0;
            schedule_seed = 1;
          }
        in
        Alcotest.(check int) "floor" 1 (Retry.heal_delay s ~failures:1));
    quick "jitter is seed-deterministic and bounded" (fun () ->
        let s seed =
          {
            Retry.rounds = 4;
            base = 10;
            multiplier = 2.0;
            backoff_jitter = 0.5;
            schedule_seed = seed;
          }
        in
        let d1 = Retry.heal_delay (s 42) ~failures:2 in
        let d2 = Retry.heal_delay (s 42) ~failures:2 in
        Alcotest.(check int) "same seed, same delay" d1 d2;
        (* base * mult = 20; jitter 0.5 keeps it within [10, 30]. *)
        Alcotest.(check bool)
          (Printf.sprintf "delay %d within jitter band" d1)
          true
          (d1 >= 10 && d1 <= 30));
    quick "default schedule matches the pre-ladder behaviour" (fun () ->
        Alcotest.(check int) "three rounds" 3 Retry.default_schedule.Retry.rounds;
        Alcotest.(check int)
          "one-commit base delay" 1
          (Retry.heal_delay Retry.default_schedule ~failures:1));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: recovery idempotence over generated workloads               *)
(* ------------------------------------------------------------------ *)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25 ~name:"recover twice = recover once"
         QCheck.(pair small_nat (int_range 1 8))
         (fun (seed, transactions) ->
           let dir = tmp (Printf.sprintf "prop-%d-%d" seed transactions) in
           clean dir;
           Fun.protect
             ~finally:(fun () -> clean dir)
             (fun () ->
               let checkpoint_every = seed mod 3 in
               let mgr, _ =
                 run_durable ~checkpoint_every ~seed ~transactions dir
               in
               let expected = Manager.capture_state mgr in
               let mgr2, _ = fresh_recovered ~checkpoint_every dir in
               let first = Manager.capture_state mgr2 in
               let mgr3, info3 = fresh_recovered ~checkpoint_every dir in
               let second = Manager.capture_state mgr3 in
               State.equal expected first && State.equal first second
               && info3.Manager.records_replayed = 0)));
  ]

let () =
  Alcotest.run "durability"
    [
      ("codec", codec_tests);
      ("records", record_tests);
      ("fuzz", payload_fuzz_tests);
      ("ordering", ordering_tests);
      ("wal", wal_tests);
      ("manager", manager_tests);
      ("torn-tail", torn_tail_tests);
      ("backoff", backoff_tests);
      ("properties", property_tests);
    ]
