(* Child processes of the benchmark (the cobra CLI as batch sweeps and as
   daemons), the filesystem scratch it works in, and the tally of
   attempted and failed operations. Every child is registered so that an
   exit or a signal kills and reaps whatever is still running. *)

let now = Unix.gettimeofday

type ctx = {
  cobra : string;  (** path of the built CLI *)
  master : int;  (** master seed of the campaigns this context drives *)
  domains : int;
  work : string;  (** scratch directory of this run, inside the checkout *)
  env : string array;
}

(* The children see the pool size we pin and never a stray master seed:
   COBRA_SEED would override the --seed the benchmark passes. *)
let child_env ~domains =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"COBRA_DOMAINS=" kv
           || String.starts_with ~prefix:"COBRA_SEED=" kv))
  |> List.cons (Printf.sprintf "COBRA_DOMAINS=%d" domains)
  |> Array.of_list

let children : int list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let spawn ctx args ~stdout ~stderr =
  let pid =
    Unix.create_process_env ctx.cobra
      (Array.of_list (ctx.cobra :: args))
      ctx.env Unix.stdin stdout stderr
  in
  children := pid :: !children;
  pid

let reap pid =
  let _, status = waitpid_retry [] pid in
  children := List.filter (( <> ) pid) !children;
  status

(* Flush the filesystem, so that the files one iteration wrote and
   deleted are not still being written back or discarded while the next
   one is timed. *)
let settle_fs () =
  match Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stderr Unix.stderr with
  | exception Unix.Unix_error _ -> ()
  | pid ->
    children := pid :: !children;
    ignore (reap pid)

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      kill pid;
      try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Peak resident set (VmHWM) of a live process, in KiB; 0 once it is
   gone. *)
let vm_hwm_kib pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          | _ -> scan ()
        in
        scan ())

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Operations attempted and failed: cells, RPCs, submissions and output
   checks. A failed check is also reported on stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count t ~ok n =
  t.attempted <- t.attempted + n;
  if not ok then t.failed <- t.failed + n

let check t ok what =
  count t ~ok 1;
  if not ok then Printf.eprintf "perfbench: check failed: %s\n%!" what

(* A manifest is verified when it parses and lists every cell. *)
let manifest_ok path ~cells =
  match Simkit.Json.of_file path with
  | Error _ -> false
  | Ok doc -> (
    match Option.bind (Simkit.Json.member "cells" doc) Simkit.Json.to_list with
    | Some l -> List.length l = cells
    | None -> false)
