(* Tests for the campaign service: the cobra.rpc/1 protocol shapes and
   an in-process daemon driven end-to-end through the client — including
   the acceptance properties: daemon output byte-identical to the batch
   sweep path, and a resubmission over the shared cache completing with
   zero recomputed cells. *)

module Json = Simkit.Json
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client

let check = Alcotest.check

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !counter)

(* ---------- protocol ---------- *)

let requests =
  [
    Protocol.Submit
      {
        client = "alice";
        grid = `Inline "name=g;graphs=cycle:8;kernels=cobra;trials=2";
        out = "/tmp/out";
        master = 42;
        resume = true;
      };
    Protocol.Submit
      {
        client = "bob";
        grid = `Doc (Json.Obj [ ("schema", Json.String "cobra.sweep-grid/1") ]);
        out = "o";
        master = 0;
        resume = false;
      };
    Protocol.Status { job = "job-000001" };
    Protocol.Events { job = "job-000002" };
    Protocol.Cancel { job = "job-000003" };
    Protocol.Stats;
    Protocol.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      (* Through the actual wire representation: print, reparse. *)
      let line = Json.to_string (Protocol.request_to_json req) in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "wire line does not reparse: %s" msg
      | Ok doc -> (
        match Protocol.request_of_json doc with
        | Error msg -> Alcotest.failf "round-trip failed on %s: %s" line msg
        | Ok req' -> check Alcotest.bool ("round-trips: " ^ line) true (req = req')))
    requests

let test_request_rejects_malformed () =
  let bad =
    [
      Json.String "nope";
      Json.Obj [ ("op", Json.String "teleport") ];
      Json.Obj [ ("op", Json.String "status") ];
      Json.Obj [ ("op", Json.String "submit"); ("client", Json.String "c") ];
      (* both grid forms at once *)
      Json.Obj
        [
          ("op", Json.String "submit");
          ("client", Json.String "c");
          ("out", Json.String "o");
          ("master", Json.Int 1);
          ("grid", Json.String "g");
          ("grid_json", Json.Obj []);
        ];
    ]
  in
  List.iter
    (fun doc ->
      match Protocol.request_of_json doc with
      | Ok _ -> Alcotest.failf "accepted malformed request %s" (Json.to_string doc)
      | Error _ -> ())
    bad

let test_error_kinds_roundtrip () =
  List.iter
    (fun kind ->
      match Protocol.error_kind_of_string (Protocol.error_kind_to_string kind) with
      | Ok kind' -> check Alcotest.bool "kind round-trips" true (kind = kind')
      | Error msg -> Alcotest.fail msg)
    [
      Protocol.Bad_request; Protocol.Unknown_job; Protocol.Quota_exceeded;
      Protocol.Busy; Protocol.Grid_error; Protocol.Server_error;
    ]

let test_response_shapes () =
  let ok = Protocol.ok_response [ ("job", Json.String "j") ] in
  check Alcotest.bool "ok is a response" true (Protocol.is_response ok);
  check Alcotest.bool "ok has no error" true (Protocol.response_error ok = None);
  let err = Protocol.error_response Protocol.Quota_exceeded "too many" in
  check Alcotest.bool "error is a response" true (Protocol.is_response err);
  (match Protocol.response_error err with
  | Some (Protocol.Quota_exceeded, "too many") -> ()
  | _ -> Alcotest.fail "typed error did not round-trip");
  (* Event lines carry no rpc marker. *)
  let event =
    Simkit.Campaign.event_to_json
      (Simkit.Campaign.Started
         { name = "x"; total = 1; pending = 1; reused = 0; corrupted = 0 })
  in
  check Alcotest.bool "events are not responses" false (Protocol.is_response event)

(* ---------- daemon end-to-end ---------- *)

let grid = "name=serve;graphs=cycle:12,complete:8;kernels=cobra,sis;trials=3"
let n_cells = 4

(* An in-process daemon on a fresh directory; [join] waits for [run] to
   return and yields its result. *)
type daemon = { socket : string; dir : string; join : unit -> (unit, string) result }

let start_daemon ?(config = fun c -> c) () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  let base = Daemon.default_config ~socket in
  let cfg = config { base with Daemon.cache = Some cache; domains = Some 2 } in
  let result = ref (Error "daemon did not run") in
  let th = Thread.create (fun () -> result := Daemon.run cfg) () in
  (* Wait for the socket to come up. *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if not (Sys.file_exists socket) then (Thread.delay 0.02; wait (n - 1))
  in
  wait 250;
  { socket; dir; join = (fun () -> Thread.join th; !result) }

let with_daemon ?config f =
  let d = start_daemon ?config () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request ~socket:d.socket Protocol.Shutdown);
      match d.join () with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon exited with: %s" msg)
    (fun () -> f ~socket:d.socket ~dir:d.dir)

let int_field doc k =
  match Json.member k doc with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "response has no int field %S" k

let str_field doc k =
  match Option.bind (Json.member k doc) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response has no string field %S" k

let submit ~socket ~out ?(grid = grid) ?(client = "tester") ?(resume = false) () =
  let s = { Protocol.client; grid = `Inline grid; out; master = 9; resume } in
  match Client.submit ~socket s with
  | Error msg -> Alcotest.fail msg
  | Ok job -> job

let watch ~socket job =
  let events = ref [] in
  match Client.watch ~socket ~job (fun e -> events := e :: !events) with
  | Error msg -> Alcotest.fail msg
  | Ok final -> (final, List.rev !events)

let submit_and_watch ~socket ~out ?grid ?client ?resume () =
  let job = submit ~socket ~out ?grid ?client ?resume () in
  let final, events = watch ~socket job in
  (job, final, events)

(* The batch [cobra sweep] path (no daemon, no cache) over [grid] into
   [out]; returns the campaign report. *)
let batch_sweep ?(grid = grid) ?max_cells ~out () =
  match Sweep.Grid.of_inline grid with
  | Error msg -> Alcotest.fail msg
  | Ok g -> (
    match
      Simkit.Campaign.run
        {
          Simkit.Campaign.dir = out;
          master = 9;
          resume = false;
          max_cells;
          domains = Some 1;
          cache = None;
          progress = ignore;
        }
        ~name:g.Sweep.Grid.name ~cells:(Sweep.Grid.cells g)
    with
    | Ok report -> report
    | Error msg -> Alcotest.fail msg)

let manifest out = read_file (Filename.concat out "manifest.json")

(* [out]'s manifest against a batch sweep of [grid] into a fresh
   directory under [dir]. *)
let check_matches_batch ?grid ~dir ~out label =
  let reference = Filename.concat dir (Filename.basename out ^ "-batch") in
  ignore (batch_sweep ?grid ~out:reference ());
  check Alcotest.string label (manifest reference) (manifest out)

let test_submit_matches_batch_sweep () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "job-out" in
      let _, final, events = submit_and_watch ~socket ~out () in
      check Alcotest.string "status done" "done" (str_field final "status");
      check Alcotest.int "all cells ran" n_cells (int_field final "ran");
      check Alcotest.int "none cached on first contact" 0
        (int_field final "cached");
      (* The event stream is complete: started .. cell xN .. finished. *)
      (match (List.hd events, List.rev events |> List.hd) with
      | Simkit.Campaign.Started { total; _ }, Simkit.Campaign.Finished { remaining; _ }
        ->
        check Alcotest.int "started total" n_cells total;
        check Alcotest.int "finished remaining" 0 remaining
      | _ -> Alcotest.fail "stream does not start/end correctly");
      check Alcotest.int "one cell event per cell" n_cells
        (List.length
           (List.filter
              (function Simkit.Campaign.Cell_done _ -> true | _ -> false)
              events));
      (* Byte-identity with the batch path (no daemon, no cache). *)
      let batch = Filename.concat dir "batch-out" in
      ignore (batch_sweep ~out:batch ());
      check Alcotest.string "manifest byte-identical to batch sweep" (manifest batch)
        (manifest out);
      let cells =
        match Sweep.Grid.of_inline grid with
        | Ok g -> Sweep.Grid.cells g
        | Error msg -> Alcotest.fail msg
      in
      List.iter
        (fun c ->
          let f = Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index in
          check Alcotest.string ("cell byte-identical: " ^ f)
            (read_file (Filename.concat batch f))
            (read_file (Filename.concat out f)))
        cells)

let test_resubmission_is_all_cache_hits () =
  with_daemon (fun ~socket ~dir ->
      let out_a = Filename.concat dir "a" and out_b = Filename.concat dir "b" in
      let _, final_a, _ = submit_and_watch ~socket ~out:out_a () in
      check Alcotest.int "first submission computes" n_cells
        (int_field final_a "ran");
      (* Identical work, different directory: served from the store. *)
      let _, final_b, _ = submit_and_watch ~socket ~out:out_b () in
      check Alcotest.string "second submission completes" "done"
        (str_field final_b "status");
      check Alcotest.int "second submission computes nothing" 0
        (int_field final_b "ran");
      check Alcotest.int "second submission is all cache hits" n_cells
        (int_field final_b "cached");
      check Alcotest.string "artifacts byte-identical" (manifest out_a) (manifest out_b);
      (* stats agrees: n_cells misses then n_cells hits. *)
      match Client.request ~socket Protocol.Stats with
      | Error msg -> Alcotest.fail msg
      | Ok stats ->
        let cache =
          match Json.member "cache" stats with
          | Some c -> c
          | None -> Alcotest.fail "stats has no cache section"
        in
        check Alcotest.int "cache hits" n_cells (int_field cache "hits");
        check Alcotest.int "cache puts" n_cells (int_field cache "puts"))

let expect_error ~kind result =
  match result with
  | Ok _ -> Alcotest.failf "expected %s" (Protocol.error_kind_to_string kind)
  | Error msg ->
    check Alcotest.bool
      (Printf.sprintf "error %S carries kind %s" msg
         (Protocol.error_kind_to_string kind))
      true
      (String.length msg >= String.length (Protocol.error_kind_to_string kind)
      && String.sub msg 0 (String.length (Protocol.error_kind_to_string kind))
         = Protocol.error_kind_to_string kind)

let test_quota_and_error_kinds () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_cells_per_submit = 2 })
    (fun ~socket ~dir ->
      (* Over the per-submission cell quota: typed refusal. *)
      expect_error ~kind:Protocol.Quota_exceeded
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "greedy";
                grid = `Inline grid;
                out = Filename.concat dir "q";
                master = 9;
                resume = false;
              }));
      (* A broken grid: typed grid error. *)
      expect_error ~kind:Protocol.Grid_error
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "c";
                grid = `Inline "name=x;kernels=imaginary;graphs=cycle:8";
                out = Filename.concat dir "g";
                master = 9;
                resume = false;
              }));
      (* Unknown job ids: typed refusal on every job-addressed op. *)
      expect_error ~kind:Protocol.Unknown_job
        (Client.request ~socket (Protocol.Status { job = "job-999999" }));
      expect_error ~kind:Protocol.Unknown_job
        (Client.request ~socket (Protocol.Cancel { job = "job-999999" })))

let test_inflight_quota () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_inflight_per_client = n_cells })
    (fun ~socket ~dir ->
      (* First submission fits the quota exactly and completes. *)
      let _, final, _ = submit_and_watch ~socket ~out:(Filename.concat dir "a") () in
      check Alcotest.string "fits quota" "done" (str_field final "status");
      (* Finished jobs hold no quota: the same client may submit again. *)
      let _, final2, _ =
        submit_and_watch ~socket ~out:(Filename.concat dir "b") ()
      in
      check Alcotest.string "quota released" "done" (str_field final2 "status"))

let test_interrupted_then_resubmitted () =
  (* An interrupted campaign (simulated: a batch sweep stopped after 2
     cells) resubmitted to the daemon with resume completes and matches
     the uninterrupted artifacts byte-for-byte. *)
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "partial" in
      check Alcotest.int "interrupted" 2
        (batch_sweep ~max_cells:2 ~out ()).Simkit.Campaign.remaining;
      let _, final, _ = submit_and_watch ~socket ~out ~resume:true () in
      check Alcotest.string "resumed to done" "done" (str_field final "status");
      check Alcotest.int "reused the checkpoints" 2 (int_field final "reused");
      check Alcotest.int "ran only the rest" 2 (int_field final "ran");
      (* Reference: uninterrupted batch run. *)
      check_matches_batch ~dir ~out "manifest byte-identical after daemon resume")

let test_resume_without_flag_is_refused () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "once" in
      let _, final, _ = submit_and_watch ~socket ~out () in
      check Alcotest.string "first is done" "done" (str_field final "status");
      (* Same directory, no resume: the campaign layer refuses, and the
         daemon surfaces it as a typed grid error. *)
      expect_error ~kind:Protocol.Grid_error
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "tester";
                grid = `Inline grid;
                out;
                master = 9;
                resume = false;
              })))

let test_cancel_and_status () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "c" in
      let _, final, _ = submit_and_watch ~socket ~out () in
      let job = str_field final "job" in
      (* Cancelling a finished job is a no-op with a truthful status. *)
      match Client.request ~socket (Protocol.Cancel { job }) with
      | Error msg -> Alcotest.fail msg
      | Ok doc -> (
        check Alcotest.string "terminal state survives cancel" "done"
          (str_field doc "status");
        match Client.request ~socket (Protocol.Status { job }) with
        | Error msg -> Alcotest.fail msg
        | Ok doc ->
          check Alcotest.string "status agrees" "done" (str_field doc "status");
          check Alcotest.int "status reports all cells" n_cells
            (int_field doc "done")))

(* ---------- dispatch lanes ---------- *)

(* One heavy Barabasi-Albert cell ahead of five light ones: with two
   lanes, the light cells run beside the heavy cell instead of waiting
   for it. *)
let uneven_grid =
  "name=uneven;graphs=ba:8192x2,cycle:8,cycle:9,cycle:10,cycle:11,cycle:12;\
   kernels=push;trials=2"

(* Eight heavy cells: enough that a cancel or a shutdown lands while
   some are still queued. *)
let heavy_grid =
  "name=heavy;graphs=ba:8192x2,ba:8000x2,ba:7000x2,ba:6000x2;kernels=push,cobra;\
   trials=2"

let light_grid = "name=light;graphs=cycle:10,complete:6;kernels=bips,push;trials=3"

let cell_order events =
  List.filter_map
    (function Simkit.Campaign.Cell_done { address; _ } -> Some address | _ -> None)
    events

let test_slow_cell_does_not_hold_back_siblings () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "uneven" in
      let _, final, events = submit_and_watch ~socket ~out ~grid:uneven_grid () in
      check Alcotest.string "done" "done" (str_field final "status");
      let order = cell_order events in
      let is_heavy a = String.starts_with ~prefix:"g=ba:" a in
      let rec light_before_heavy n = function
        | [] -> Alcotest.fail "the heavy cell never finished"
        | a :: rest -> if is_heavy a then n else light_before_heavy (n + 1) rest
      in
      check Alcotest.int "all six cells finished" 6 (List.length order);
      check Alcotest.bool "a light cell lands before the heavy one" true
        (light_before_heavy 0 order >= 1);
      check_matches_batch ~grid:uneven_grid ~dir ~out
        "manifest byte-identical to the batch sweep")

let test_concurrent_jobs () =
  with_daemon (fun ~socket ~dir ->
      let out_a = Filename.concat dir "a" and out_b = Filename.concat dir "b" in
      let job_a = submit ~socket ~out:out_a () in
      let job_b = submit ~socket ~out:out_b ~grid:light_grid () in
      let final_a, _ = watch ~socket job_a and final_b, _ = watch ~socket job_b in
      check Alcotest.string "first job done" "done" (str_field final_a "status");
      check Alcotest.string "second job done" "done" (str_field final_b "status");
      check_matches_batch ~dir ~out:out_a "first manifest byte-identical";
      check_matches_batch ~grid:light_grid ~dir ~out:out_b
        "second manifest byte-identical")

let test_cancel_leaves_other_job_intact () =
  with_daemon (fun ~socket ~dir ->
      let out_heavy = Filename.concat dir "heavy" and out = Filename.concat dir "light" in
      let heavy = submit ~socket ~out:out_heavy ~grid:heavy_grid () in
      let light = submit ~socket ~out ~grid:light_grid () in
      (match Client.request ~socket (Protocol.Cancel { job = heavy }) with
      | Error msg -> Alcotest.fail msg
      | Ok doc ->
        check Alcotest.bool "cancelled before it could finish" true
          (str_field doc "status" <> "done"));
      let final_heavy, _ = watch ~socket heavy and final, _ = watch ~socket light in
      check Alcotest.string "cancelled job ends cancelled" "cancelled"
        (str_field final_heavy "status");
      check Alcotest.bool "cancelled job has no manifest" true
        (Json.member "manifest" final_heavy = Some Json.Null);
      check Alcotest.string "other job done" "done" (str_field final "status");
      check_matches_batch ~grid:light_grid ~dir ~out
        "other manifest byte-identical")

let test_shutdown_with_cells_in_flight () =
  let d = start_daemon () in
  let out = Filename.concat d.dir "heavy" in
  let job = submit ~socket:d.socket ~out ~grid:heavy_grid () in
  (* A watcher connected before the shutdown gets the job's final state. *)
  let connected = Atomic.make false and final = ref (Error "watch never returned") in
  let watcher =
    Thread.create
      (fun () ->
        final := Client.watch ~socket:d.socket ~job (fun _ -> Atomic.set connected true))
      ()
  in
  let rec wait_for_a_cell n =
    if n = 0 then Alcotest.fail "no cell finished"
    else
      match Client.request ~socket:d.socket (Protocol.Status { job }) with
      | Ok doc when Atomic.get connected && int_field doc "done" >= 1 ->
        check Alcotest.string "still running" "running" (str_field doc "status")
      | Ok _ -> Thread.delay 0.01; wait_for_a_cell (n - 1)
      | Error msg -> Alcotest.fail msg
  in
  wait_for_a_cell 3000;
  (match Client.request ~socket:d.socket Protocol.Shutdown with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (match d.join () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "daemon exited with: %s" msg);
  Thread.join watcher;
  (match !final with
  | Ok doc ->
    check Alcotest.string "unfinished job reads cancelled" "cancelled"
      (str_field doc "status")
  | Error msg -> Alcotest.fail msg);
  with_daemon (fun ~socket ~dir ->
      let _, final, _ = submit_and_watch ~socket ~out ~grid:heavy_grid ~resume:true () in
      check Alcotest.string "resumed to done" "done" (str_field final "status");
      check Alcotest.bool "reused the checkpointed cells" true
        (int_field final "reused" >= 1);
      check_matches_batch ~grid:heavy_grid ~dir ~out
        "resumed manifest byte-identical to the batch sweep")

(* ---------- request framing ---------- *)

let test_oversized_frame_is_refused () =
  with_daemon (fun ~socket ~dir:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          (* No newline anywhere: a frame one byte over the bound. *)
          let frame = Bytes.make (Protocol.max_frame + 1) 'x' in
          (try ignore (Unix.write fd frame 0 (Bytes.length frame))
           with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
          match input_line (Unix.in_channel_of_descr fd) with
          | exception End_of_file -> Alcotest.fail "no reply to an oversized frame"
          | line -> (
            match Result.map Protocol.response_error (Json.of_string line) with
            | Ok (Some (Protocol.Bad_request, _)) -> ()
            | _ -> Alcotest.failf "expected a bad-request reply, got %s" line));
      match Client.request ~socket Protocol.Stats with
      | Ok doc -> check Alcotest.int "daemon still serves" 2 (int_field doc "domains")
      | Error msg -> Alcotest.fail msg)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trips" `Quick test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects_malformed;
          Alcotest.test_case "error kinds round-trip" `Quick
            test_error_kinds_roundtrip;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit matches the batch sweep byte-for-byte"
            `Quick test_submit_matches_batch_sweep;
          Alcotest.test_case "resubmission is 100% cache hits" `Quick
            test_resubmission_is_all_cache_hits;
          Alcotest.test_case "typed quota and error kinds" `Quick
            test_quota_and_error_kinds;
          Alcotest.test_case "in-flight quota is released" `Quick
            test_inflight_quota;
          Alcotest.test_case "interrupted campaign resumes via the daemon"
            `Quick test_interrupted_then_resubmitted;
          Alcotest.test_case "reused directory without resume is refused"
            `Quick test_resume_without_flag_is_refused;
          Alcotest.test_case "cancel and status" `Quick test_cancel_and_status;
          Alcotest.test_case "oversized request frame is refused" `Quick
            test_oversized_frame_is_refused;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "a slow cell does not hold back its siblings" `Quick
            test_slow_cell_does_not_hold_back_siblings;
          Alcotest.test_case "concurrent jobs match their batch sweeps" `Quick
            test_concurrent_jobs;
          Alcotest.test_case "cancel leaves the other job intact" `Quick
            test_cancel_leaves_other_job_intact;
          Alcotest.test_case "shutdown with cells in flight, then resume" `Quick
            test_shutdown_with_cells_in_flight;
        ] );
    ]
