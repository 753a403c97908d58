let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let tmp_seq = Atomic.make 0

(* [with_tmp path f] runs [f] on a temp name beside [path], unique to
   this writer; if [f] raises, the temp file (if any) is removed before
   the exception propagates. *)
let with_tmp path f =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
  in
  try f tmp
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace exn bt

type held = { path : string; dev : int; ino : int }

let held path (st : Unix.stats) = { path; dev = st.st_dev; ino = st.st_ino }

let write_with path emit f =
  with_tmp path (fun tmp ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          emit oc;
          flush oc;
          let file = held path (Unix.fstat (Unix.descr_of_out_channel oc)) in
          Sys.rename tmp path;
          f file))

let write_held path content f = write_with path (fun oc -> output_string oc content) f

let write_atomic path content = write_held path content ignore

let error path err = Error (Printf.sprintf "%s: %s" path (Unix.error_message err))

(* The [size] bytes of the file open on [fd]: one [read] for a record,
   a few for a large document. A read that ends early means the file
   was truncated while it was read. *)
let read_exactly path fd size =
  let buf = Bytes.create size in
  let rec fill off =
    if off = size then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (size - off) with
      | 0 -> Error (path ^ ": truncated while reading")
      | n -> fill (off + n)
      | exception Unix.Unix_error (err, _, _) -> error path err
  in
  fill 0

(* [O_NONBLOCK] makes the open of a FIFO return at once instead of
   waiting for a writer; the [fstat] then refuses it, as it refuses
   anything else that is not a regular file. *)
let read path f =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) -> error path err
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.fstat fd with
        | exception Unix.Unix_error (err, _, _) -> error path err
        | { Unix.st_kind = Unix.S_REG; st_size; _ } as st ->
          Result.map (fun bytes -> f bytes (held path st)) (read_exactly path fd st_size)
        | _ -> Error (path ^ ": not a regular file"))

(* [link(2)] refuses an existing name, so an old checkpoint there (a
   corrupt one that [plan] queued, or a link to this very record) is
   removed and the link made once more. The name then holds whatever
   [src.path] named at the link: a concurrent rename may have put
   another record there. *)
let link_atomic src path =
  let rec link ~retry =
    match Unix.link src.path path with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when retry ->
      Sys.remove path;
      link ~retry:false
    | exception Unix.Unix_error _ -> false
  in
  link ~retry:true
  &&
  match Unix.lstat path with
  | { Unix.st_dev; st_ino; _ } when st_dev = src.dev && st_ino = src.ino -> true
  | _ ->
    Sys.remove path;
    false
  | exception Unix.Unix_error _ -> false
