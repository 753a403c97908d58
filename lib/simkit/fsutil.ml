let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let tmp_seq = Atomic.make 0

let write_atomic path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content);
  Sys.rename tmp path
