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

let hold path fd =
  let st = Unix.fstat fd in
  { path; dev = st.Unix.st_dev; ino = st.Unix.st_ino }

let write_with path emit f =
  with_tmp path (fun tmp ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          emit oc;
          flush oc;
          let file = hold path (Unix.descr_of_out_channel oc) in
          Sys.rename tmp path;
          f file))

let write_held path content f = write_with path (fun oc -> output_string oc content) f

let write_atomic path content = write_held path content ignore

let read path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception Sys_error msg -> Error msg
        | exception End_of_file -> Error (path ^ ": truncated while reading")
        | content -> Ok (f content (hold path (Unix.descr_of_in_channel ic))))

let link_atomic src path =
  with_tmp path (fun tmp ->
      match Unix.link src.path tmp with
      | exception Unix.Unix_error _ -> false
      | () ->
        let st = Unix.lstat tmp in
        if st.Unix.st_dev = src.dev && st.Unix.st_ino = src.ino then begin
          Sys.rename tmp path;
          (* A rename between two links of one inode does nothing, so
             [tmp] survives it when [path] already was a link to [src]. *)
          if Sys.file_exists tmp then Sys.remove tmp;
          true
        end
        else begin
          Sys.remove tmp;
          false
        end)
