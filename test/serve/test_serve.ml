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

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The directories [fresh_dir] made for the running test, which
   [cleaning] removes when the test ends. *)
let made_dirs = ref []

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !counter)
    in
    made_dirs := dir :: !made_dirs;
    dir

(* Every test of [groups], followed by the removal of the directories
   it made, whether it passed or failed. *)
let cleaning groups =
  let remove_made () =
    List.iter rm_rf !made_dirs;
    made_dirs := []
  in
  let clean (name, speed, f) =
    (name, speed, fun x -> Fun.protect ~finally:remove_made (fun () -> f x))
  in
  List.map (fun (group, cases) -> (group, List.map clean cases)) groups

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
  let listening = Atomic.make false in
  let th =
    Thread.create
      (fun () -> result := Daemon.run ~ready:(fun () -> Atomic.set listening true) cfg)
      ()
  in
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon never listened"
    else if not (Atomic.get listening) then (Thread.delay 0.02; wait (n - 1))
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

let grid_cells () =
  match Sweep.Grid.of_inline grid with
  | Ok g -> Sweep.Grid.cells g
  | Error msg -> Alcotest.fail msg

(* [out]'s manifest against a batch sweep of [grid] into a fresh
   directory under [dir]. *)
let check_matches_batch ?grid ~dir ~out label =
  let reference = Filename.concat dir (Filename.basename out ^ "-batch") in
  ignore (batch_sweep ?grid ~out:reference ());
  check Alcotest.string label (manifest reference) (manifest out)

(* The manifest's digests come from the daemon's memory, not from
   re-reading cells/: each must be the MD5 of the file it lists. *)
let check_manifest_digests out =
  match Json.of_file (Filename.concat out "manifest.json") with
  | Error msg -> Alcotest.fail msg
  | Ok doc ->
    List.iter
      (fun entry ->
        let field k =
          match Option.bind (Json.member k entry) Json.to_string_opt with
          | Some v -> v
          | None -> Alcotest.failf "manifest entry has no %S" k
        in
        check Alcotest.string
          (Printf.sprintf "%s: manifest digest of %s" out (field "file"))
          (Digest.to_hex (Digest.file (Filename.concat out (field "file"))))
          (field "digest"))
      (Option.value ~default:[] (Option.bind (Json.member "cells" doc) Json.to_list))

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
      List.iter
        (fun c ->
          let f = Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index in
          check Alcotest.string ("cell byte-identical: " ^ f)
            (read_file (Filename.concat batch f))
            (read_file (Filename.concat out f)))
        (grid_cells ()))

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
      check_manifest_digests out_a;
      check_manifest_digests out_b;
      (* Both submissions' checkpoints are hard links to the cache
         records: the miss linked the record it put, the hit linked the
         record it found. *)
      let store = Simkit.Cellstore.open_ ~dir:(Filename.concat dir "cache") in
      List.iter
        (fun (c : Simkit.Campaign.cell) ->
          let record =
            Unix.stat (Simkit.Cellstore.path store ~master:9 (Simkit.Campaign.cellid c))
          in
          check Alcotest.int
            (Printf.sprintf "cell %d: record linked from both submissions" c.index)
            3 record.Unix.st_nlink;
          List.iter
            (fun out ->
              let f = Filename.concat out (Printf.sprintf "cells/cell_%05d.json" c.index) in
              check Alcotest.int (f ^ " shares its record's inode") record.Unix.st_ino
                (Unix.stat f).Unix.st_ino)
            [ out_a; out_b ])
        (grid_cells ());
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

(* A daemon with no job slot (or a negative queue) would admit jobs that
   never run: [run] refuses the config before it binds the socket, and
   never calls [ready]. *)
let test_no_job_slot_is_refused () =
  List.iter
    (fun (what, config) ->
      let dir = fresh_dir () in
      let socket = Filename.concat dir "d.sock" in
      let readied = ref false in
      (match Daemon.run ~ready:(fun () -> readied := true) (config (Daemon.default_config ~socket)) with
      | Ok () -> Alcotest.failf "%s: daemon ran" what
      | Error _ -> ());
      check Alcotest.bool (what ^ ": not reported listening") false !readied;
      check Alcotest.bool (what ^ ": no socket file") false (Sys.file_exists socket))
    [
      ("max_jobs 0", fun c -> { c with Daemon.max_jobs = 0 });
      ("queue_depth -1", fun c -> { c with Daemon.queue_depth = -1 });
    ]

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

(* A finished job keeps only the counts [status] reports from its plan:
   they must survive the plan being dropped. *)
let test_status_after_resume_with_a_corrupt_checkpoint () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "resumed" in
      ignore (batch_sweep ~out ());
      let victim = Filename.concat out "cells/cell_00002.json" in
      let bytes = read_file victim in
      let oc = open_out_bin victim in
      output_string oc (String.sub bytes 0 (String.length bytes / 2));
      close_out oc;
      let _, final, _ = submit_and_watch ~socket ~out ~resume:true () in
      check Alcotest.string "resumed to done" "done" (str_field final "status");
      check Alcotest.int "ran the corrupt cell" 1 (int_field final "ran");
      match Client.request ~socket (Protocol.Status { job = str_field final "job" }) with
      | Error msg -> Alcotest.fail msg
      | Ok doc ->
        check Alcotest.string "status done" "done" (str_field doc "status");
        check Alcotest.int "reused" (n_cells - 1) (int_field doc "reused");
        check Alcotest.int "corrupted" 1 (int_field doc "corrupted");
        check_matches_batch ~dir ~out "manifest byte-identical after the corrupt re-run";
        check_manifest_digests out)

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

(* A long-lived daemon keeps its finished jobs for [status] and [stats],
   but dispatch walks only the live ones. After 200 one-cell jobs have
   finished, one lane still dispatches by fewest cells in flight with
   ties in submission order — with one lane every tie goes to the older
   job, so of two jobs admitted while a heavy cell runs, every cell of
   the first is written before any cell of the second — and [stats]
   still lists every job, in submission order. *)
let test_dispatch_after_many_finished_jobs () =
  with_daemon
    ~config:(fun c -> { c with Daemon.domains = Some 1 })
    (fun ~socket ~dir ->
      let finished = 200 in
      for i = 1 to finished do
        let out = Filename.concat dir (Printf.sprintf "one-%03d" i) in
        let _, final, _ =
          submit_and_watch ~socket ~out
            ~grid:(Printf.sprintf "name=one;graphs=cycle:%d;kernels=bips;trials=1" (4 + i))
            ()
        in
        check Alcotest.string "one-cell job done" "done" (str_field final "status")
      done;
      let heavy = submit ~socket ~out:(Filename.concat dir "heavy") ~grid:uneven_grid () in
      let out_a = Filename.concat dir "a" and out_b = Filename.concat dir "b" in
      let job_a = submit ~socket ~out:out_a ~grid:light_grid () in
      (* Not [light_grid] again: its cells would be cache hits, hard
         links sharing the first job's inodes and so their mtimes. *)
      let job_b =
        submit ~socket ~out:out_b
          ~grid:"name=light2;graphs=cycle:11,complete:7;kernels=bips,push;trials=3" ()
      in
      List.iter
        (fun job ->
          let final, _ = watch ~socket job in
          check Alcotest.string (job ^ " done") "done" (str_field final "status"))
        [ heavy; job_a; job_b ];
      let mtimes out =
        let cells = Filename.concat out "cells" in
        Array.to_list (Sys.readdir cells)
        |> List.map (fun f -> (Unix.stat (Filename.concat cells f)).Unix.st_mtime)
      in
      let last_a = List.fold_left max neg_infinity (mtimes out_a) in
      let first_b = List.fold_left min infinity (mtimes out_b) in
      check Alcotest.bool "the older job's cells all precede the newer job's" true
        (last_a <= first_b);
      match Client.request ~socket Protocol.Stats with
      | Error msg -> Alcotest.fail msg
      | Ok doc ->
        check Alcotest.int "nothing running" 0 (int_field doc "running");
        let ids =
          match Json.member "jobs" doc with
          | Some (Json.List jobs) -> List.map (fun j -> str_field j "job") jobs
          | _ -> Alcotest.fail "stats has no job list"
        in
        check Alcotest.int "stats lists every job" (finished + 3) (List.length ids);
        check Alcotest.(list string) "in submission order" (List.sort compare ids) ids;
        check Alcotest.(list string) "the last three are the new jobs"
          [ heavy; job_a; job_b ]
          (List.filteri (fun i _ -> i >= finished) ids))

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

(* A number the parser cannot read is a bad request like any other
   malformed JSON, and the daemon keeps serving. *)
let test_malformed_number_is_a_bad_request () =
  with_daemon (fun ~socket ~dir:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let frame = {|{"op":"stats","x":1-2}|} ^ "\n" in
          ignore (Unix.write_substring fd frame 0 (String.length frame));
          match input_line (Unix.in_channel_of_descr fd) with
          | exception End_of_file -> Alcotest.fail "no reply to a malformed number"
          | line -> (
            match Result.map Protocol.response_error (Json.of_string line) with
            | Ok (Some (Protocol.Bad_request, _)) -> ()
            | _ -> Alcotest.failf "expected a bad-request reply, got %s" line));
      match Client.request ~socket Protocol.Stats with
      | Ok doc -> check Alcotest.int "daemon still serves" 2 (int_field doc "domains")
      | Error msg -> Alcotest.fail msg)

let () =
  Alcotest.run "serve"
  @@ cleaning
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
          Alcotest.test_case "status after a resume with a corrupt checkpoint" `Quick
            test_status_after_resume_with_a_corrupt_checkpoint;
          Alcotest.test_case "malformed number in a frame is a bad request" `Quick
            test_malformed_number_is_a_bad_request;
          Alcotest.test_case "no job slot is refused before binding" `Quick
            test_no_job_slot_is_refused;
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
          Alcotest.test_case "dispatch order after 200 finished jobs" `Quick
            test_dispatch_after_many_finished_jobs;
        ] );
    ]
