type t = { path : string; fd : Unix.file_descr }

let open_ ~path =
  Fsutil.mkdir_p (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  { path; fd }

let path log = log.path

let append log doc =
  let line = Bytes.unsafe_of_string (Json.to_string doc ^ "\n") in
  let len = Bytes.length line in
  (* One write(2) for the whole line: with O_APPEND this is the atomic
     unit concurrent readers and writers interleave at. A short write on
     a regular file only happens under ENOSPC-like conditions; finishing
     the line is then strictly better than dropping bytes. *)
  let written = Unix.single_write log.fd line 0 len in
  let rec finish off =
    if off < len then
      finish (off + Unix.single_write log.fd line off (len - off))
  in
  finish written

let close log = Unix.close log.fd

let with_log ~path f =
  let log = open_ ~path in
  Fun.protect ~finally:(fun () -> close log) (fun () -> f log)

let read_lines path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let rec go acc start =
      match String.index_from_opt content start '\n' with
      | None -> Ok (List.rev acc) (* trailing partial line: not yet committed *)
      | Some i -> (
        match Json.of_string (String.sub content start (i - start)) with
        | Ok doc -> go (doc :: acc) (i + 1)
        | Error e -> Error (Printf.sprintf "%s: bad event line: %s" path e))
    in
    go [] 0
  end
