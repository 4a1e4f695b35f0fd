exception Incompatible_wal of string

let () =
  Printexc.register_printer (function
    | Incompatible_wal msg ->
      Some (Printf.sprintf "Durability.Incompatible_wal(%s)" msg)
    | _ -> None)

let magic = "IVMWAL"
let version = 1
let header_size = String.length magic + 2

let header_bytes =
  let b = Buffer.create header_size in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (version land 0xff));
  Buffer.add_char b (Char.chr ((version lsr 8) land 0xff));
  Buffer.contents b

type t = {
  path : string;
  fd : Unix.file_descr;
  fsync : Config.fsync;
  torn : int;  (* torn-tail bytes discarded at open *)
  mutable last_lsn : int;
  mutable size : int;
  mutable unsynced : int;
}

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let check_header ~path content =
  let len = String.length content in
  if len < header_size then
    raise
      (Incompatible_wal
         (Printf.sprintf "%s: %d-byte file is shorter than the %d-byte header"
            path len header_size))
  else if String.sub content 0 (String.length magic) <> magic then
    raise
      (Incompatible_wal
         (Printf.sprintf "%s: bad magic %S (expected %S)" path
            (String.sub content 0 (min len (String.length magic)))
            magic))
  else
    let v =
      Char.code content.[String.length magic]
      lor (Char.code content.[String.length magic + 1] lsl 8)
    in
    if v <> version then
      raise
        (Incompatible_wal
           (Printf.sprintf "%s: format version %d (this build reads %d)" path v
              version))

(* Scan frames from [header_size]; returns the whole records (with their
   byte extents) and the offset where the good prefix ends.  A frame is
   bounded only by the bytes left in the file, and decoding allocates
   against those too, so any length [append] can write reads back. *)
let scan content =
  let size = String.length content in
  let records = ref [] in
  let off = ref header_size in
  let stop = ref false in
  while not !stop do
    let remaining = size - !off in
    if remaining = 0 then stop := true
    else if remaining < 8 then stop := true
    else begin
      let len = Int32.to_int (String.get_int32_le content !off) land 0xffffffff in
      let crc = String.get_int32_le content (!off + 4) in
      if len > remaining - 8 then stop := true
      else if Codec.crc32 content ~pos:(!off + 8) ~len <> crc then stop := true
      else begin
        match
          let r = Codec.reader ~pos:(!off + 8) content in
          let lsn = Codec.r_int r in
          let record = Record.decode r in
          if Codec.pos r <> !off + 8 + len then
            raise (Codec.Corrupt "frame length does not match payload");
          (lsn, record)
        with
        | lsn, record ->
          records := (lsn, record, !off, 8 + len) :: !records;
          off := !off + 8 + len
        | exception Codec.Corrupt _ -> stop := true
      end
    end
  done;
  (List.rev !records, !off)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

let open_ ~fsync path =
  let content = read_file path in
  let fresh = String.length content = 0 in
  if not fresh then check_header ~path content;
  let records, good = if fresh then ([], header_size) else scan content in
  let torn = if fresh then 0 else String.length content - good in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  if fresh then begin
    write_all fd (Bytes.of_string header_bytes) 0 header_size;
    Unix.fsync fd
  end
  else if torn > 0 then begin
    (* A crash mid-append left a torn frame: cut it off physically so
       the next append starts on a clean boundary. *)
    Unix.ftruncate fd good;
    Unix.fsync fd;
    Obs.Metrics.add "ivm_wal_truncations_total" ~labels:[ ("kind", "torn") ] 1;
    Obs.Metrics.observe "ivm_recovery_torn_bytes" torn
  end;
  ignore (Unix.lseek fd good Unix.SEEK_SET);
  let last_lsn =
    List.fold_left (fun acc (lsn, _, _, _) -> max acc lsn) 0 records
  in
  let t = { path; fd; fsync; torn; last_lsn; size = good; unsynced = 0 } in
  (t, List.map (fun (lsn, record, _, _) -> (lsn, record)) records)

let torn_bytes t = t.torn

let last_lsn t = t.last_lsn
let size t = t.size
let ensure_lsn t lsn = if lsn > t.last_lsn then t.last_lsn <- lsn

let do_sync t =
  if t.unsynced > 0 then begin
    Unix.fsync t.fd;
    t.unsynced <- 0;
    Obs.Metrics.add "ivm_wal_fsyncs_total" ~labels:[] 1
  end

let sync = do_sync

let append t record =
  let lsn = t.last_lsn + 1 in
  let payload = Buffer.create 256 in
  Codec.w_int payload lsn;
  Record.encode payload record;
  let len = Buffer.length payload in
  (* One frame buffer, one write: the length prefix is known only after
     encoding, so the payload is blitted behind an 8-byte header rather
     than copied through a second Buffer. *)
  let frame = Bytes.create (8 + len) in
  Buffer.blit payload 0 frame 8 len;
  Codec.set_frame_header frame 0 ~len
    ~crc:(Codec.crc32 (Bytes.unsafe_to_string frame) ~pos:8 ~len);
  write_all t.fd frame 0 (8 + len);
  t.size <- t.size + 8 + len;
  t.last_lsn <- lsn;
  t.unsynced <- t.unsynced + 1;
  Obs.Metrics.add "ivm_wal_appends_total" ~labels:[] 1;
  Obs.Metrics.observe "ivm_wal_bytes" (8 + len);
  lsn

let maybe_sync t =
  match t.fsync with
  | Config.Always -> do_sync t
  | Config.Every n -> if t.unsynced >= max 1 n then do_sync t
  | Config.Never -> ()

let truncate_to_header t =
  Unix.ftruncate t.fd header_size;
  ignore (Unix.lseek t.fd header_size Unix.SEEK_SET);
  Unix.fsync t.fd;
  t.size <- header_size;
  t.unsynced <- 0;
  Obs.Metrics.add "ivm_wal_truncations_total"
    ~labels:[ ("kind", "checkpoint") ]
    1

(* The whole records of the log at [path] and the bytes past them,
   without opening it for writing. *)
let scan_file path =
  let content = read_file path in
  if String.length content = 0 then ([], 0)
  else begin
    check_header ~path content;
    let records, good = scan content in
    (records, String.length content - good)
  end

let read path =
  let records, torn = scan_file path in
  (List.map (fun (lsn, record, _, _) -> (lsn, record)) records, torn)

let entries path =
  List.map (fun (lsn, _, off, len) -> (lsn, off, len)) (fst (scan_file path))
