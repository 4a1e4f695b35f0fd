let magic = "IVMCKP"
let version = 1
let header_size = String.length magic + 2

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

(* A rename is durable only once the directory entry is: without this
   fsync a power loss can lose the rename while the WAL truncation that
   follows it survives, bringing the old checkpoint back without the
   records that bridged the gap. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write path state =
  let payload = Buffer.create 4096 in
  State.encode payload state;
  let payload = Buffer.contents payload in
  let len = String.length payload in
  let header = Bytes.create (header_size + 8) in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_uint16_le header (String.length magic) version;
  Bytes.set_int32_le header header_size (Int32.of_int len);
  Bytes.set_int32_le header (header_size + 4) (Codec.crc32 payload ~pos:0 ~len);
  let tmp = path ^ ".tmp" in
  (try
     let fd =
       Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
     in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         write_all fd (Bytes.unsafe_to_string header) 0 (Bytes.length header);
         write_all fd payload 0 len;
         Unix.fsync fd);
     Unix.rename tmp path
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     (try Sys.remove tmp with Sys_error _ -> ());
     Printexc.raise_with_backtrace exn bt);
  fsync_dir path;
  Obs.Metrics.add "ivm_wal_checkpoints_total" ~labels:[] 1;
  Obs.Metrics.observe "ivm_wal_checkpoint_bytes" (header_size + 8 + len)

(* The file at its known size, in one read. *)
let read_file path =
  In_channel.with_open_bin path (fun ic ->
      let size = Int64.to_int (In_channel.length ic) in
      match In_channel.really_input_string ic size with
      | Some content -> content
      | None ->
        raise
          (Codec.Corrupt
             (Printf.sprintf "%s: file shrank while it was read" path)))

let read path =
  if not (Sys.file_exists path) then None
  else begin
    let content = read_file path in
    let size = String.length content in
    if size < header_size + 8 then
      raise
        (Wal.Incompatible_wal
           (Printf.sprintf "%s: %d-byte file is too short for a checkpoint"
              path size));
    if String.sub content 0 (String.length magic) <> magic then
      raise
        (Wal.Incompatible_wal
           (Printf.sprintf "%s: bad magic %S (expected %S)" path
              (String.sub content 0 (String.length magic))
              magic));
    let v =
      Char.code content.[String.length magic]
      lor (Char.code content.[String.length magic + 1] lsl 8)
    in
    if v <> version then
      raise
        (Wal.Incompatible_wal
           (Printf.sprintf "%s: checkpoint version %d (this build reads %d)"
              path v version));
    let len = Int32.to_int (String.get_int32_le content header_size) land 0xffffffff in
    if header_size + 8 + len <> size then
      raise
        (Codec.Corrupt
           (Printf.sprintf "%s: frame length %d does not match file size %d"
              path len size));
    let crc = String.get_int32_le content (header_size + 4) in
    if Codec.crc32 content ~pos:(header_size + 8) ~len <> crc then
      raise (Codec.Corrupt (Printf.sprintf "%s: checksum mismatch" path));
    let r = Codec.reader ~pos:(header_size + 8) content in
    let state = State.decode r in
    Codec.expect_end r;
    Some state
  end
