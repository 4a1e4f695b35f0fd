let magic = "IVMCKP"
let version = 1
let header_size = String.length magic + 2
let frame_start = header_size + 8

(* A rename is durable only once the directory entry is: without this
   fsync a power loss can lose the rename while the WAL truncation that
   follows it survives, bringing the old checkpoint back without the
   records that bridged the gap. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let observe_stage stage ns =
  Obs.Metrics.observe ~labels:[ ("stage", stage) ] "ivm_wal_checkpoint_ns" ns

(* Streams [state]'s encoding into [fd] from [frame_start] on, leaving
   room for the header: [State.encode] fills a buffer of about
   {!Codec.chunk} bytes, and each flush folds it into a chained CRC and
   writes it out through one reused staging [Bytes] (a [Buffer.t] lends
   out no bytes of its own).  Returns the payload's length, its CRC and
   the ns the flushes took. *)
let stream_payload fd state =
  let staging = ref (Bytes.create (2 * Codec.chunk)) in
  let len = ref 0 and crc = ref 0l and write_ns = ref 0 in
  let flush b =
    let t0 = Obs.Clock.now_ns () in
    let n = Buffer.length b in
    if Bytes.length !staging < n then staging := Bytes.create n;
    Buffer.blit b 0 !staging 0 n;
    crc :=
      Codec.crc32 ~crc:!crc (Bytes.unsafe_to_string !staging) ~pos:0 ~len:n;
    Wal.write_all fd !staging 0 n;
    len := !len + n;
    write_ns := !write_ns + (Obs.Clock.now_ns () - t0)
  in
  ignore (Unix.lseek fd frame_start Unix.SEEK_SET);
  let b = Buffer.create (2 * Codec.chunk) in
  State.encode ~flush b state;
  flush b;
  (!len, !crc, !write_ns)

(* The header needs the payload's length and CRC, so it goes to offset
   0 last. *)
let seal fd ~len ~crc =
  let header =
    Bytes.extend (Wal.header ~magic ~version) 0 (frame_start - header_size)
  in
  Codec.set_frame_header header header_size ~len ~crc;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Wal.write_all fd header 0 frame_start

(* Staged: [write path] builds the temp-file and directory names once, so
   a caller that keeps it writes each checkpoint without them. *)
let write path =
  let tmp = path ^ ".tmp" and dir = Filename.dirname path in
  fun state ->
    let now = Obs.Clock.now_ns in
    let t_start = now () in
    let len, write_ns, t_streamed, t_sealed, t_synced =
      try
        let fd =
          Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        let stages =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let len, crc, write_ns = stream_payload fd state in
              let t_streamed = now () in
              Resilience.Fault.point "wal-checkpoint-seal";
              seal fd ~len ~crc;
              let t_sealed = now () in
              Unix.fsync fd;
              (len, write_ns, t_streamed, t_sealed, now ()))
        in
        Unix.rename tmp path;
        stages
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        (try Sys.remove tmp with Sys_error _ -> ());
        Printexc.raise_with_backtrace exn bt
    in
    fsync_dir dir;
    let t_end = now () in
    observe_stage "encode" (t_streamed - t_start - write_ns);
    observe_stage "write" (write_ns + t_sealed - t_streamed);
    observe_stage "fsync" (t_synced - t_sealed);
    observe_stage "publish" (t_end - t_synced);
    Obs.Metrics.add "ivm_wal_checkpoints_total" ~labels:[] 1;
    Obs.Metrics.observe "ivm_wal_checkpoint_bytes" (frame_start + len)

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
    Wal.check_header ~magic ~version ~min_size:frame_start ~path content;
    let len = Int32.to_int (String.get_int32_le content header_size) land 0xffffffff in
    if frame_start + len <> size then
      raise
        (Codec.Corrupt
           (Printf.sprintf "%s: frame length %d does not match file size %d"
              path len size));
    let crc = String.get_int32_le content (header_size + 4) in
    if Codec.crc32 content ~pos:frame_start ~len <> crc then
      raise (Codec.Corrupt (Printf.sprintf "%s: checksum mismatch" path));
    let r = Codec.reader ~pos:frame_start content in
    let state = State.decode r in
    Codec.expect_end r;
    Some state
  end
