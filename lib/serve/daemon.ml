module Json = Simkit.Json
module Campaign = Simkit.Campaign
module Cellstore = Simkit.Cellstore
module Eventlog = Simkit.Eventlog
module Pool = Simkit.Pool

type config = {
  socket : string;
  cache : string option;
  max_jobs : int;
  queue_depth : int;
  max_cells_per_submit : int;
  max_inflight_per_client : int;
  domains : int option;
}

let default_config ~socket =
  {
    socket;
    cache = None;
    max_jobs = 2;
    queue_depth = 8;
    max_cells_per_submit = 10_000;
    max_inflight_per_client = 50_000;
    domains = None;
  }

type job_state = Queued | Running | Done | Cancelled | Failed of string

type job = {
  id : string;
  client : string;
  name : string;
  dir : string;
  mutable plan : Campaign.plan option;
      (* dropped when the job turns terminal: the cells, their closures
         and the digest table are no longer needed then *)
  reused : int;
  corrupted : int;
  total : int;
  of_ : int;  (* cells to execute this submission, [p_pending] at admission *)
  started_at : float;
  log : Eventlog.t;
  mutable queue : Campaign.cell list;  (* admitted, not yet dispatched *)
  mutable inflight : int;  (* taken by a lane, not yet recorded *)
  mutable done_cells : int;
  mutable ran : int;
  mutable cached : int;
  mutable state : job_state;
  mutable cancelled : bool;  (* requested; takes effect when in-flight drains *)
  mutable finishing : bool;  (* drained; one thread is closing it out *)
  mutable manifest : string option;
  mutable error : string option;
}

(* A submission admitted but still planning (Campaign.plan runs with
   the lock released): holds its quota slot and output directory until
   the job registers or the plan fails. *)
type reservation = { r_client : string; r_dir : string; r_cells : int }

type t = {
  config : config;
  store : Cellstore.t option;
  lanes : int;
  mu : Mutex.t;
  cond : Condition.t;
  jobs : (string, job) Hashtbl.t;
  order : job Queue.t;  (* every registered job, in submission order: stats *)
  live : job Queue.t;
      (* the queued and running ones, in submission order: dispatch,
         promotion and admission walk only these *)
  mutable reserved : reservation list;
  mutable seq : int;
  mutable stop : bool;
}

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

let terminal = function Done | Cancelled | Failed _ -> true | Queued | Running -> false

let emit job event = Eventlog.append job.log (Campaign.event_to_json event)

(* ---------- bookkeeping (all under [t.mu]) ---------- *)

let active job = not (terminal job.state)

let iter_live t f = Queue.iter f t.live

let count_live t p = Queue.fold (fun n j -> if p j then n + 1 else n) 0 t.live

(* Drops the jobs that turned terminal from [live]: once per job
   close-out, O(live jobs). *)
let prune_live t =
  let keep = Queue.create () in
  Queue.iter (fun j -> if active j then Queue.add j keep) t.live;
  Queue.clear t.live;
  Queue.transfer keep t.live

let client_inflight t client =
  let n = ref 0 in
  iter_live t (fun j ->
      if j.client = client then n := !n + List.length j.queue + j.inflight);
  List.iter
    (fun r -> if r.r_client = client then n := !n + r.r_cells)
    t.reserved;
  !n

let job_fields job =
  [
    ("job", Json.String job.id);
    ("client", Json.String job.client);
    ("campaign", Json.String job.name);
    ("dir", Json.String job.dir);
    ("status", Json.String (state_string job.state));
    ("total", Json.Int job.total);
    ("pending", Json.Int job.of_);
    ("done", Json.Int job.done_cells);
    ("ran", Json.Int job.ran);
    ("cached", Json.Int job.cached);
    ("reused", Json.Int job.reused);
    ("corrupted", Json.Int job.corrupted);
    ("remaining", Json.Int (job.of_ - job.done_cells));
    ( "manifest",
      match job.manifest with Some p -> Json.String p | None -> Json.Null );
  ]
  @ match job.error with Some m -> [ ("error", Json.String m) ] | None -> []

(* ---------- closing a job out ---------- *)

let drained job = job.queue = [] && job.inflight = 0

(* Runs without the lock: a claimed job has no queue and no cell in
   flight, so nothing else writes its directory, its event log or its
   plan's digest table. *)
let conclude job plan =
  let outcome =
    try
      let manifest = Campaign.finalize plan in
      let remaining = if manifest = None then Campaign.remaining plan else 0 in
      emit job
        (Campaign.Finished
           {
             ran = job.ran;
             cached = job.cached;
             reused = job.reused;
             corrupted = job.corrupted;
             remaining;
             manifest;
           });
      Ok manifest
    with exn -> Error (Printexc.to_string exn)
  in
  (try Eventlog.close job.log with Unix.Unix_error _ -> ());
  outcome

(* Close out a job whose work has drained (or been cleared). The claim
   under [t.mu] makes cancel, the shutdown drain and the lane that
   records the last cell agree on one finalizer; the manifest and the
   Finished event are written with the lock released, so other lanes
   and RPCs keep flowing. Until its terminal state is published the job
   reports no manifest and keeps its slot, directory and quota; with
   that state it drops its plan, which only the lanes and this close-out
   read. Called with [t.mu] held; returns with it held. *)
let finish t job =
  match job.plan with
  | Some plan when active job && drained job && not job.finishing ->
    job.finishing <- true;
    Mutex.unlock t.mu;
    let closed = conclude job plan in
    Mutex.lock t.mu;
    (match closed with
    | Ok manifest -> job.manifest <- manifest
    | Error msg ->
      if job.error = None then job.error <- Some ("finalize failed: " ^ msg));
    job.state <-
      (match job.error with
      | Some m -> Failed m
      | None ->
        if job.manifest <> None then Done
        else if job.cancelled then Cancelled
        else Failed "campaign incomplete");
    prune_live t;
    job.plan <- None;
    Condition.broadcast t.cond
  | _ -> ()

(* ---------- dispatch lanes ---------- *)

let promote t =
  let slots = ref (t.config.max_jobs - count_live t (fun j -> j.state = Running)) in
  iter_live t (fun j ->
      if !slots > 0 && j.state = Queued then begin
        j.state <- Running;
        decr slots
      end)

(* The next cell comes from the running job with the fewest cells in
   flight, ties going to submission order. With at least as many lanes
   as running jobs, every running job keeps a cell in flight, so a long
   campaign cannot starve a short one. A running job still has its
   plan. *)
let take_cell t =
  let best = ref None in
  iter_live t (fun job ->
      if job.state = Running && job.queue <> [] then
        match !best with
        | Some b when b.inflight <= job.inflight -> ()
        | _ -> best := Some job);
  match !best with
  | Some ({ queue = cell :: rest; plan = Some plan; _ } as job) ->
    job.queue <- rest;
    job.inflight <- job.inflight + 1;
    Some (job, plan, cell)
  | _ -> None

let record job cell outcome =
  job.inflight <- job.inflight - 1;
  match outcome with
  | Ok provenance ->
    job.done_cells <- job.done_cells + 1;
    (match provenance with
    | `Ran -> job.ran <- job.ran + 1
    | `Cached -> job.cached <- job.cached + 1);
    let elapsed = Unix.gettimeofday () -. job.started_at in
    let rate =
      if elapsed > 0.0 then float_of_int job.done_cells /. elapsed else 0.0
    in
    let eta =
      if rate > 0.0 then float_of_int (job.of_ - job.done_cells) /. rate else 0.0
    in
    emit job
      (Campaign.Cell_done
         {
           index = cell.Campaign.index;
           address = cell.Campaign.address;
           cached = (provenance = `Cached);
           done_ = job.done_cells;
           of_ = job.of_;
           elapsed_s = elapsed;
           cells_per_s = rate;
           eta_s = eta;
         })
  | Error msg ->
    (* A failing cell aborts its job (finished cells stay checkpointed
       for a later resume) without touching the other campaigns. *)
    job.error <- Some (Printf.sprintf "cell %S failed: %s" cell.Campaign.address msg);
    job.queue <- []

(* One lane, in its own domain: take a cell under the lock, run it with
   the lock released, record it under the lock. A lane sleeps only when
   no running job has a queued cell, so no cell waits for another
   lane's. On [t.stop] the lane records its in-flight cell and exits;
   queued cells stay pending for a resubmission with resume. *)
let lane t () =
  Mutex.lock t.mu;
  let rec loop () =
    if t.stop then Mutex.unlock t.mu
    else begin
      promote t;
      match take_cell t with
      | None ->
        Condition.wait t.cond t.mu;
        loop ()
      | Some (job, plan, cell) ->
        Mutex.unlock t.mu;
        let outcome =
          try Ok (Campaign.execute_cell plan cell)
          with exn -> Error (Printexc.to_string exn)
        in
        Mutex.lock t.mu;
        record job cell outcome;
        finish t job;
        loop ()
    end
  in
  loop ()

(* ---------- request handling ---------- *)

let err kind fmt = Printf.ksprintf (fun m -> Error (kind, m)) fmt

let submit t (s : Protocol.submit) =
  let grid_result =
    match s.Protocol.grid with
    | `Inline g -> Sweep.Grid.of_inline g
    | `Doc d -> Sweep.Grid.of_json d
  in
  match grid_result with
  | Error msg -> err Protocol.Grid_error "%s" msg
  | Ok grid -> (
    let cells = Sweep.Grid.cells grid in
    let n_cells = List.length cells in
    if n_cells > t.config.max_cells_per_submit then
      err Protocol.Quota_exceeded
        "submission expands to %d cells; the per-submission quota is %d"
        n_cells t.config.max_cells_per_submit
    else begin
      (* Canonicalize the output directory so two spellings of one path
         ("out", "./out", "out/") cannot be admitted concurrently and
         race on the same checkpoints. *)
      Simkit.Fsutil.mkdir_p s.Protocol.out;
      let dir =
        try Unix.realpath s.Protocol.out
        with Unix.Unix_error _ | Sys_error _ -> s.Protocol.out
      in
      let reservation =
        { r_client = s.Protocol.client; r_dir = dir; r_cells = n_cells }
      in
      Mutex.lock t.mu;
      let admitted =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.mu)
          (fun () ->
            if t.stop then err Protocol.Busy "daemon is shutting down"
            else if
              client_inflight t s.Protocol.client + n_cells
              > t.config.max_inflight_per_client
            then
              err Protocol.Quota_exceeded
                "client %S would have %d cells in flight; the quota is %d"
                s.Protocol.client
                (client_inflight t s.Protocol.client + n_cells)
                t.config.max_inflight_per_client
            else if
              Queue.length t.live + List.length t.reserved
              >= t.config.max_jobs + t.config.queue_depth
            then
              err Protocol.Busy "%d campaigns already active (max %d running + %d queued)"
                (Queue.length t.live + List.length t.reserved)
                t.config.max_jobs t.config.queue_depth
            else if
              count_live t (fun j -> j.dir = dir) > 0
              || List.exists (fun r -> r.r_dir = dir) t.reserved
            then err Protocol.Busy "an active campaign already owns directory %s" dir
            else begin
              t.reserved <- reservation :: t.reserved;
              t.seq <- t.seq + 1;
              Ok (Printf.sprintf "job-%06d" t.seq)
            end)
      in
      let release () =
        t.reserved <- List.filter (fun r -> r != reservation) t.reserved
      in
      match admitted with
      | Error _ as e -> e
      | Ok id -> (
        let campaign_config =
          {
            Campaign.dir;
            master = s.Protocol.master;
            resume = s.Protocol.resume;
            max_cells = None;
            domains = Some 1;  (* unused: the daemon drives execute_cell itself *)
            cache = t.store;
            progress = ignore;
          }
        in
        (* Planning (stat + parse + digest of existing checkpoints) can
           take seconds on a large resume: run it with the lock released
           so the lanes and other RPCs keep flowing. The reservation
           holds this submission's quota slot and directory meanwhile. *)
        let planned =
          try Campaign.plan campaign_config ~name:grid.Sweep.Grid.name ~cells
          with exn -> Error (Printexc.to_string exn)
        in
        match planned with
        | Error msg ->
          Mutex.lock t.mu;
          release ();
          Mutex.unlock t.mu;
          err Protocol.Grid_error "%s" msg
        | Ok plan ->
          let pending = plan.Campaign.p_pending in
          let job =
            {
              id;
              client = s.Protocol.client;
              name = grid.Sweep.Grid.name;
              dir;
              plan = Some plan;
              reused = plan.Campaign.p_reused;
              corrupted = List.length plan.Campaign.p_corrupt;
              total = n_cells;
              of_ = List.length pending;
              started_at = Unix.gettimeofday ();
              log = Eventlog.open_ ~path:(Filename.concat dir "events.jsonl");
              queue = pending;
              inflight = 0;
              done_cells = 0;
              ran = 0;
              cached = 0;
              state = Queued;
              cancelled = false;
              finishing = false;
              manifest = None;
              error = None;
            }
          in
          (* The job is not yet visible to any other thread, so the
             Started banner and the corrupt notes need no lock. *)
          emit job
            (Campaign.Started
               {
                 name = job.name;
                 total = job.total;
                 pending = job.of_;
                 reused = plan.Campaign.p_reused;
                 corrupted = List.length plan.Campaign.p_corrupt;
               });
          List.iter
            (fun (c, path, reason) ->
              emit job
                (Campaign.Corrupt_rerun
                   {
                     index = c.Campaign.index;
                     address = c.Campaign.address;
                     path;
                     reason;
                   }))
            plan.Campaign.p_corrupt;
          Mutex.lock t.mu;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.mu)
            (fun () ->
              release ();
              if t.stop && job.queue <> [] then begin
                (* The drain in [run] may already have passed: close the
                   job out here (checkpoints stay for a resubmission). *)
                job.cancelled <- true;
                job.queue <- [];
                finish t job;
                err Protocol.Busy "daemon is shutting down"
              end
              else begin
                Hashtbl.replace t.jobs id job;
                Queue.add job t.order;
                Queue.add job t.live;
                Condition.broadcast t.cond;
                finish t job;  (* nothing pending: complete immediately *)
                Ok (Protocol.ok_response (job_fields job))
              end))
    end)

let with_job t id f =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> err Protocol.Unknown_job "no such job %S" id
      | Some job -> f job)

let status t id = with_job t id (fun job -> Ok (Protocol.ok_response (job_fields job)))

let cancel t id =
  with_job t id (fun job ->
      if active job then begin
        job.cancelled <- true;
        job.queue <- [];
        finish t job
      end;
      Ok (Protocol.ok_response (job_fields job)))

let stats t =
  (* The cache section needs no lock (its counters are atomics), and its
     entry count walks every shard of the store: take it before locking,
     so no lane or RPC waits on the walk. *)
  let cache =
    match t.store with
    | None -> Json.Null
    | Some s ->
      let entries = Cellstore.entries s in
      let st = Cellstore.stats s in
      Json.Obj
        [
          ("dir", Json.String (Cellstore.dir s));
          ("hits", Json.Int st.Cellstore.hits);
          ("misses", Json.Int st.Cellstore.misses);
          ("puts", Json.Int st.Cellstore.puts);
          ("entries", Json.Int entries);
        ]
  in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let jobs = Queue.fold (fun acc j -> Json.Obj (job_fields j) :: acc) [] t.order in
      Ok
        (Protocol.ok_response
           [
             ("domains", Json.Int t.lanes);
             ("max_jobs", Json.Int t.config.max_jobs);
             ("queue_depth", Json.Int t.config.queue_depth);
             ("max_cells_per_submit", Json.Int t.config.max_cells_per_submit);
             ("max_inflight_per_client", Json.Int t.config.max_inflight_per_client);
             ("running", Json.Int (count_live t (fun j -> j.state = Running)));
             ("queued", Json.Int (count_live t (fun j -> j.state = Queued)));
             ("jobs", Json.List (List.rev jobs));
             ("cache", cache);
           ]))

(* ---------- connection handling ---------- *)

(* With SIGPIPE ignored (see [run]), a write to a disconnected client
   surfaces as [Sys_error] (EPIPE); raise [Client_gone] so streaming
   loops stop instead of tailing a peer that is no longer there. *)
exception Client_gone

let write_client oc s =
  try
    output_string oc s;
    flush oc
  with Sys_error _ -> raise Client_gone

let send oc doc = write_client oc (Json.to_string doc ^ "\n")

(* Forward the job's events.jsonl verbatim, tailing until the job is
   terminal and the file is drained. Torn lines are impossible by the
   Eventlog contract; a partial final line just waits for its newline. *)
let stream_events t oc id =
  match with_job t id (fun job -> Ok job.dir) with
  | Error (kind, msg) -> send oc (Protocol.error_response kind msg)
  | Ok dir ->
    let path = Filename.concat dir "events.jsonl" in
    let offset = ref 0 in
    let forward () =
      if not (Sys.file_exists path) then false
      else begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let size = in_channel_length ic in
            if size <= !offset then false
            else begin
              seek_in ic !offset;
              let chunk = really_input_string ic (size - !offset) in
              (* Forward only complete lines; a trailing fragment stays
                 for the next pass (it cannot happen with Eventlog
                 writers, but cheap to be safe). *)
              match String.rindex_opt chunk '\n' with
              | None -> false
              | Some last ->
                write_client oc (String.sub chunk 0 (last + 1));
                offset := !offset + last + 1;
                true
            end)
      end
    in
    let rec tail () =
      let term =
        match with_job t id (fun job -> Ok (terminal job.state)) with
        | Ok b -> b
        | Error _ -> true
      in
      let got = try forward () with Sys_error _ -> false in
      if term && not got then
        match with_job t id (fun job -> Ok (Protocol.ok_response (job_fields job))) with
        | Ok doc -> send oc doc
        | Error (kind, msg) -> send oc (Protocol.error_response kind msg)
      else begin
        if not got then Thread.delay 0.05;
        tail ()
      end
    in
    (try tail () with Client_gone -> ())

(* One request line, newline excluded, of at most [Protocol.max_frame]
   bytes: a peer that never sends a newline costs a bounded buffer, not
   unbounded memory. [None] at end of input before any byte. *)
let read_frame ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Ok (Buffer.contents buf))
    | _ when Buffer.length buf >= Protocol.max_frame ->
      Some (Error (Printf.sprintf "request frame exceeds %d bytes" Protocol.max_frame))
    | c ->
      Buffer.add_char buf c;
      go ()
    | exception End_of_file ->
      if Buffer.length buf = 0 then None else Some (Ok (Buffer.contents buf))
  in
  go ()

let handle t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let finally () = try close_out oc with _ -> (try Unix.close fd with _ -> ()) in
  Fun.protect ~finally (fun () ->
      match read_frame ic with
      | exception Sys_error _ -> ()
      | None -> ()
      | Some frame -> (
        let req =
          Result.bind frame (fun line ->
              match Json.of_string line with
              | Error e -> Error (Printf.sprintf "request is not JSON: %s" e)
              | Ok doc -> Protocol.request_of_json doc)
        in
        match req with
        | Error msg -> send oc (Protocol.error_response Protocol.Bad_request msg)
        | Ok (Protocol.Events { job }) -> stream_events t oc job
        | Ok req ->
          let result =
            try
              match req with
              | Protocol.Submit s -> submit t s
              | Protocol.Status { job } -> status t job
              | Protocol.Cancel { job } -> cancel t job
              | Protocol.Stats -> stats t
              | Protocol.Shutdown ->
                Mutex.lock t.mu;
                t.stop <- true;
                Condition.broadcast t.cond;
                Mutex.unlock t.mu;
                Ok (Protocol.ok_response [ ("stopping", Json.Bool true) ])
              | Protocol.Events _ -> assert false
            with exn ->
              Error (Protocol.Server_error, Printexc.to_string exn)
          in
          (match result with
          | Ok doc -> send oc doc
          | Error (kind, msg) -> send oc (Protocol.error_response kind msg))))

(* ---------- lifecycle ---------- *)

let probe_socket path =
  if not (Sys.file_exists path) then Ok ()
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close fd;
      Error (Printf.sprintf "socket %s is already being served" path)
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
  end

(* A self-connection: wakes the accept loop after [t.stop] is set. *)
let poke path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run ?(ready = ignore) config =
  (* Clients can vanish mid-reply (Ctrl-C during [client watch]);
     without this, the first write to the closed socket would
     SIGPIPE-kill the whole daemon — and every running campaign —
     instead of raising a catchable EPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lanes =
    match config.domains with Some d -> d | None -> Pool.default_domains ()
  in
  match probe_socket config.socket with
  | Error _ as e -> e
  | Ok () when lanes < 1 ->
    Error (Printf.sprintf "domains must be at least 1 (got %d)" lanes)
  (* With no job slot, an admitted job would stay queued forever. *)
  | Ok () when config.max_jobs < 1 ->
    Error (Printf.sprintf "max_jobs must be at least 1 (got %d)" config.max_jobs)
  | Ok () when config.queue_depth < 0 ->
    Error (Printf.sprintf "queue_depth must be at least 0 (got %d)" config.queue_depth)
  | Ok () -> (
    Simkit.Fsutil.mkdir_p (Filename.dirname config.socket);
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind listener (Unix.ADDR_UNIX config.socket) with
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close listener;
      Error
        (Printf.sprintf "cannot bind %s: %s" config.socket (Unix.error_message e))
    | () ->
      Unix.listen listener 16;
      ready ();
      let t =
        {
          config;
          store = Option.map (fun dir -> Cellstore.open_ ~dir) config.cache;
          lanes;
          mu = Mutex.create ();
          cond = Condition.create ();
          jobs = Hashtbl.create 16;
          order = Queue.create ();
          live = Queue.create ();
          reserved = [];
          seq = 0;
          stop = false;
        }
      in
      (* Not this domain: a lane computing here would hold its runtime
         lock, and every RPC would wait for the lock's tick. *)
      let lanes = Array.init lanes (fun _ -> Domain.spawn (lane t)) in
      (* Handler threads prune themselves on exit, so the table only
         holds live connections — a long-lived daemon does not
         accumulate one dead thread per past request. *)
      let hmu = Mutex.create () in
      let handlers : (int, Thread.t) Hashtbl.t = Hashtbl.create 16 in
      let rec accept_loop () =
        match Unix.accept listener with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          ()  (* listener gone: fall through to the drain below *)
        | exception Unix.Unix_error (e, _, _) ->
          (* EMFILE, ECONNABORTED, ...: transient — back off and keep
             serving rather than tearing down every running campaign. *)
          Printf.eprintf "cobra serve: accept: %s\n%!" (Unix.error_message e);
          Thread.delay 0.1;
          accept_loop ()
        | fd, _ ->
          Mutex.lock t.mu;
          let stopping = t.stop in
          Mutex.unlock t.mu;
          if stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
          else begin
            (* [hmu] is held across creation, so the thread cannot
               outrun its own registration below. *)
            Mutex.lock hmu;
            let th =
              Thread.create
                (fun fd ->
                  Mutex.lock hmu;
                  Mutex.unlock hmu;
                  (try handle t fd with _ -> ());
                  Mutex.lock hmu;
                  Hashtbl.remove handlers (Thread.id (Thread.self ()));
                  Mutex.unlock hmu;
                  (* A shutdown request must also unblock this accept. *)
                  Mutex.lock t.mu;
                  let stop_now = t.stop in
                  Mutex.unlock t.mu;
                  if stop_now then poke config.socket)
                fd
            in
            Hashtbl.replace handlers (Thread.id th) th;
            Mutex.unlock hmu;
            accept_loop ()
          end
      in
      accept_loop ();
      (* Normally [t.stop] is already set (that is what ended the accept
         loop); setting it here too keeps the drain sound if the loop
         died on a fatal accept error instead. *)
      Mutex.lock t.mu;
      t.stop <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      (* Drain: each lane records its in-flight cell and exits; the
         unfinished jobs are closed out as cancelled (their checkpoints
         stay on disk for a resubmission with resume). A job another
         thread is already closing out is left to it: that thread is a
         handler, joined below. *)
      Array.iter Domain.join lanes;
      Mutex.lock t.mu;
      (* A copy: [finish] prunes [live]. *)
      List.iter
        (fun job ->
          if active job then begin
            job.cancelled <- true;
            job.queue <- [];
            finish t job
          end)
        (List.of_seq (Queue.to_seq t.live));
      Mutex.unlock t.mu;
      let live =
        Mutex.lock hmu;
        let l = Hashtbl.fold (fun _ th acc -> th :: acc) handlers [] in
        Mutex.unlock hmu;
        l
      in
      List.iter Thread.join live;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
      Ok ())
