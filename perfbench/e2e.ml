(* The untraced load generator: drives the built CLI exactly as a user
   would — [cobra sweep] processes one after the other, or one
   [cobra serve] daemon fed over its socket — and measures what a user
   sees. One closed loop per run: it submits (or launches), then queries
   progress with a fixed think time until every campaign has finished.
   Every status query it makes is a latency sample. *)

open Proc
module Json = Simkit.Json
module Client = Serve.Client
module P = Serve.Protocol

(* Think time between progress queries of the closed loop. *)
let think_s = 0.002

type samples = {
  mutable wall : float list;  (** cold pass, one per iteration *)
  mutable cached : float list;  (** median cached pass, one per iteration *)
  mutable setup : float list;
  mutable rss_kib : float list;  (** one per iteration *)
  mutable rtt : float list;  (** progress-query round trips, seconds *)
}

let samples () =
  { wall = []; cached = []; setup = []; rss_kib = []; rtt = [] }

(* ---------- the batch path ---------- *)

type sweep_result = { setup_s : float option; hwm_kib : int; stdout : string; ok : bool }

(* One [cobra sweep] process. While it runs, the loop reads the
   campaign's events.jsonl — the batch path's only progress surface —
   and samples the process's VmHWM. With [probe], the process is killed
   as soon as it reports its Started event (a set-up-only launch). *)
let run_sweep ctx s t ?(probe = false) (job : Workloads.job) ~out ~cache =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    spawn ctx
      [ "sweep"; "--grid"; job.inline; "--out"; out; "--seed"; string_of_int ctx.master;
        "--cache"; cache ]
      ~stdout:wr ~stderr:Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let setup = ref None and hwm = ref 0 and eof = ref false in
  let events = Filename.concat out "events.jsonl" in
  while not !eof do
    (match Unix.select [ rd ] [] [] think_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      let k = Unix.read rd chunk 0 (Bytes.length chunk) in
      if k = 0 then eof := true else Buffer.add_subbytes buf chunk 0 k);
    if !setup = None && contains (Buffer.contents buf) ": running " then
      setup := Some (now () -. t0);
    hwm := max !hwm (vm_hwm_kib pid);
    if (not probe) && Sys.file_exists events then begin
      let q0 = now () in
      let ok = Result.is_ok (Simkit.Eventlog.read_lines events) in
      s.rtt <- (now () -. q0) :: s.rtt;
      count t ~ok 1
    end;
    if probe && !setup <> None then begin
      kill pid;
      eof := true
    end
  done;
  Unix.close rd;
  let status = reap pid in
  Option.iter (fun x -> s.setup <- x :: s.setup) !setup;
  {
    setup_s = !setup;
    hwm_kib = !hwm;
    stdout = Buffer.contents buf;
    ok = probe || status = Unix.WEXITED 0;
  }

let batch_pass ctx s t jobs ~dir ~cache ~cached =
  let hwm = ref 0 in
  List.iter
    (fun (job : Workloads.job) ->
      let out = Filename.concat dir job.name in
      let r = run_sweep ctx s t job ~out ~cache in
      let cells = Workloads.cells job in
      hwm := max !hwm r.hwm_kib;
      check t r.ok (job.name ^ ": cobra sweep exited non-zero");
      check t
        (manifest_ok (Filename.concat out "manifest.json") ~cells)
        (job.name ^ ": manifest missing or incomplete");
      let ran = if cached then 0 else cells in
      check t
        (contains r.stdout
           (Printf.sprintf "cells: %d total, %d ran, %d cached" cells ran (cells - ran)))
        (Printf.sprintf "%s: expected %d cells ran" job.name ran);
      count t ~ok:r.ok cells)
    jobs;
  !hwm

(* ---------- the daemon path ---------- *)

type daemon = { pid : int; socket : string }

let start_daemon ctx s ~dir =
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    spawn ctx
      [ "serve"; "--socket"; socket; "--cache"; Filename.concat dir "cache" ]
      ~stdout:log ~stderr:log
  in
  Unix.close log;
  let rec wait_ready () =
    match Client.request ~socket P.Stats with
    | Ok _ -> s.setup <- (now () -. t0) :: s.setup
    | Error msg ->
      if now () -. t0 > 30.0 then failwith ("daemon did not come up: " ^ msg);
      Unix.sleepf 0.0002;
      wait_ready ()
  in
  wait_ready ();
  { pid; socket }

let stop_daemon d =
  ignore (Client.request ~socket:d.socket P.Shutdown);
  let deadline = now () +. 30.0 in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> kill d.pid; ignore (reap d.pid); false
    | _, status ->
      children := List.filter (( <> ) d.pid) !children;
      status = Unix.WEXITED 0
  in
  wait ()

let str_field k doc = Option.bind (Json.member k doc) Json.to_string_opt
let int_field k doc = match Json.member k doc with Some (Json.Int i) -> i | _ -> -1

let timed_request s t ~socket req =
  let q0 = now () in
  let r = Client.request ~socket req in
  s.rtt <- (now () -. q0) :: s.rtt;
  count t ~ok:(Result.is_ok r) 1;
  r

(* Submit every job, then poll [status] for each in turn until it is
   terminal. Returns each job's final status document (or None when it
   was refused or lost). *)
let daemon_pass ctx s t d jobs ~dir =
  let submitted =
    List.map
      (fun (job : Workloads.job) ->
        let sub =
          { P.client = "perfbench"; grid = `Inline job.inline;
            out = Filename.concat dir job.name; master = ctx.master; resume = false }
        in
        let r = Client.submit ~socket:d.socket sub in
        check t (Result.is_ok r)
          (Printf.sprintf "%s: submission refused: %s" job.name
             (match r with Error m -> m | Ok _ -> ""));
        (job, Result.to_option r))
      jobs
  in
  List.map
    (fun (job, id) ->
      let rec poll id =
        match timed_request s t ~socket:d.socket (P.Status { job = id }) with
        | Error _ -> None
        | Ok doc -> (
          match str_field "status" doc with
          | Some ("queued" | "running") ->
            Unix.sleepf think_s;
            poll id
          | _ -> Some doc)
      in
      (job, Option.bind id poll))
    submitted

let check_daemon_pass t finals ~dir ~cached =
  List.iter
    (fun ((job : Workloads.job), final) ->
      let cells = Workloads.cells job in
      let ok, ran =
        match final with
        | None -> (false, -1)
        | Some doc -> (str_field "status" doc = Some "done", int_field "ran" doc)
      in
      check t ok (job.name ^ ": job did not finish as done");
      check t
        (manifest_ok (Filename.concat (Filename.concat dir job.name) "manifest.json") ~cells)
        (job.name ^ ": manifest missing or incomplete");
      let want = if cached then 0 else cells in
      check t (ran = want) (Printf.sprintf "%s: %d cells ran, expected %d" job.name ran want);
      count t ~ok cells)
    finals

(* ---------- iterations ---------- *)

let manifest dir (job : Workloads.job) =
  read_file (Filename.concat (Filename.concat dir job.name) "manifest.json")

let same_manifests t jobs ~dir ~ref_dir what =
  List.iter
    (fun (job : Workloads.job) ->
      let same =
        try manifest dir job = manifest ref_dir job with Sys_error _ -> false
      in
      check t same (Printf.sprintf "%s: manifest differs from %s" job.name what))
    jobs

(* One iteration: a cold pass (empty cache), then [cached_reps] fully
   cached resubmissions into fresh directories. Returns the cold wall
   time; records it, the median cached time and the worker's peak RSS. *)
let iteration ctx s t (w : Workloads.t) ~dir ~ref_dir =
  let cached_times = ref [] in
  let timed f =
    let t0 = now () in
    let x = f () in
    (now () -. t0, x)
  in
  let cold = Filename.concat dir "cold" in
  let wall, hwm =
    match w.path with
    | Workloads.Batch ->
      let cache = Filename.concat dir "cache" in
      let wall, hwm = timed (fun () -> batch_pass ctx s t w.jobs ~dir:cold ~cache ~cached:false) in
      for r = 1 to w.cached_reps do
        let cdir = Filename.concat dir (Printf.sprintf "cached%d" r) in
        let dt, _ = timed (fun () -> batch_pass ctx s t w.jobs ~dir:cdir ~cache ~cached:true) in
        cached_times := dt :: !cached_times;
        same_manifests t w.jobs ~dir:cdir ~ref_dir:cold "the cold pass"
      done;
      (wall, hwm)
    | Workloads.Daemon ->
      let d = start_daemon ctx s ~dir:(Filename.concat dir "daemon") in
      let wall, () =
        timed (fun () ->
            check_daemon_pass t (daemon_pass ctx s t d w.jobs ~dir:cold) ~dir:cold ~cached:false)
      in
      for r = 1 to w.cached_reps do
        let cdir = Filename.concat dir (Printf.sprintf "cached%d" r) in
        let dt, () =
          timed (fun () ->
              check_daemon_pass t (daemon_pass ctx s t d w.jobs ~dir:cdir) ~dir:cdir ~cached:true)
        in
        cached_times := dt :: !cached_times;
        same_manifests t w.jobs ~dir:cdir ~ref_dir:cold "the cold pass"
      done;
      let hwm = vm_hwm_kib d.pid in
      check t (stop_daemon d) "daemon did not shut down cleanly";
      (wall, hwm)
  in
  Option.iter (fun ref_dir -> same_manifests t w.jobs ~dir:cold ~ref_dir "the batch sweep") ref_dir;
  s.wall <- wall :: s.wall;
  s.cached <- Arith.median !cached_times :: s.cached;
  s.rss_kib <- float_of_int hwm :: s.rss_kib;
  wall

(* Launches that only set up: [cobra sweep] until its Started event, or
   a daemon until its first OK [stats] reply. They run at the start and
   after every iteration, so the set-up median samples the whole run. *)
let probes_first = 8
let probes_per_iteration = 4

let probe ctx s t (w : Workloads.t) ~dir =
  match w.path with
  | Workloads.Batch ->
    let job = List.hd w.jobs in
    let r = run_sweep ctx s t ~probe:true job ~out:(Filename.concat dir "out") ~cache:(Filename.concat dir "cache") in
    check t (r.setup_s <> None) "cobra sweep never reported Started"
  | Workloads.Daemon ->
    let d = start_daemon ctx s ~dir in
    check t (stop_daemon d) "daemon did not shut down cleanly"

(* The batch reference the daemon's manifests must equal byte for byte:
   the same grids through [cobra sweep] with the same master seed. *)
let reference ctx t (w : Workloads.t) ~dir =
  if not w.batch_reference then None
  else begin
    let s = samples () in
    ignore (batch_pass ctx s t w.jobs ~dir ~cache:(Filename.concat dir "cache") ~cached:false);
    Some dir
  end

(* Iterations run until [seconds] have passed. Iteration [k] drives the
   campaigns with master seed [Workloads.master ~seed k], so a run
   averages over as many independent graph and trial draws as it has
   iterations; the first one is also checked against the batch
   reference. *)
let measure ctx t (w : Workloads.t) ~seconds =
  let s = samples () in
  let at k = { ctx with master = Workloads.master ~seed:ctx.master k } in
  let probes n =
    for k = 1 to n do
      let dir = Filename.concat ctx.work (Printf.sprintf "probe%d" k) in
      probe (at 0) s t w ~dir;
      rm_rf dir
    done
  in
  settle_fs ();
  probes probes_first;
  let ref_dir = reference (at 0) t w ~dir:(Filename.concat ctx.work "reference") in
  let t0 = now () in
  let k = ref 0 in
  while !k = 0 || now () -. t0 < seconds do
    let dir = Filename.concat ctx.work (Printf.sprintf "iter%d" !k) in
    ignore (iteration (at !k) s t w ~dir ~ref_dir:(if !k = 0 then ref_dir else None));
    rm_rf dir;
    settle_fs ();
    probes probes_per_iteration;
    incr k
  done;
  s
