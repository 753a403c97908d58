(* cobra_cli — command-line front end for the COBRA/BIPS reproduction.

   Subcommands: exp (run experiments), sweep (checkpointed campaigns),
   serve and client (the campaign daemon), cover, bips, walk, push, pull,
   coalesce, explore, duality, spectral, gen, herd, seir, contact, exact.
   Every stochastic command takes --seed and prints enough configuration
   to be reproduced exactly.

   Shared flags/converters live in Cli_common; every single-shot process
   runs through Cobra.Kernel.run (the engine the sweep subsystem drives),
   with test/cli pinning the output byte-for-byte. *)

open Cmdliner
open Cli_common
module K = Cobra.Kernel

(* ---------- exp ---------- *)

let exp_cmd =
  let ids_t =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids or slugs.")
  in
  let scale_t =
    Arg.(
      value
      & opt scale_conv Simkit.Scale.Standard
      & info [ "scale" ] ~docv:"SCALE" ~doc:"quick | standard | full.")
  in
  let list_t =
    Arg.(value & flag & info [ "list" ] ~doc:"List available experiments and exit.")
  in
  let out_t =
    out_t ~default:"_results"
      ~doc:"Directory the json/csv formats write artifacts into."
  in
  let format_t =
    Arg.(
      value
      & opt (enum [ ("console", `Console); ("json", `Json); ("csv", `Csv) ]) `Console
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Result sink: console (human report), json (one artifact \
             document per experiment plus manifest.json), csv (one file \
             per table).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero if any experiment's verdict fails (CI gate); \
             results are still written.")
  in
  let run ids scale list seed out format check =
    if list then begin
      List.iter
        (fun s ->
          Printf.printf "%-4s %-24s %s\n" s.Experiments.Spec.id
            s.Experiments.Spec.slug s.Experiments.Spec.title)
        Experiments.Registry.all;
      0
    end
    else begin
      let master = Simkit.Seeds.master ~default:seed () in
      let scale = Simkit.Scale.of_env ~default:scale () in
      let missing =
        List.filter (fun id -> Experiments.Registry.find id = None) ids
      in
      if missing <> [] then begin
        Printf.eprintf "unknown experiment(s): %s\n" (String.concat ", " missing);
        1
      end
      else begin
        let specs =
          match ids with
          | [] -> Experiments.Registry.all
          | ids -> List.map (fun id -> Option.get (Experiments.Registry.find id)) ids
        in
        let sink =
          match format with
          | `Console -> Simkit.Sink.console ()
          | `Json -> Simkit.Sink.json ~dir:out
          | `Csv -> Simkit.Sink.csv ~dir:out
        in
        if format = `Console && ids = [] then Experiments.Registry.engine_preamble ();
        let artifacts =
          Experiments.Registry.run_many specs ~sink ~scale ~master
        in
        if format = `Json then begin
          let path = Simkit.Sink.write_manifest ~dir:out artifacts in
          Printf.printf "wrote %s\n" path
        end;
        if check && not (Experiments.Registry.all_passed artifacts) then begin
          let failed =
            List.filter (fun a -> not (Simkit.Artifact.passed a)) artifacts
          in
          Printf.eprintf "check failed: %s\n"
            (String.concat ", "
               (List.map
                  (fun a -> a.Simkit.Artifact.meta.Simkit.Artifact.id)
                  failed));
          1
        end
        else 0
      end
    end
  in
  let doc =
    Printf.sprintf "Run reproduction experiments (%s)."
      (Experiments.Registry.id_range ())
  in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(const run $ ids_t $ scale_t $ list_t $ seed_t $ out_t $ format_t $ check_t)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let grid_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "grid" ] ~docv:"FILE|INLINE"
          ~doc:
            "Parameter grid: a JSON grid file (schema cobra.sweep-grid/1) \
             or an inline description like \
             'graphs=cycle:12,complete:8;kernels=cobra,bips;branching=k=2;trials=5'.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Campaign checkpoint/output directory (default \
             _results/campaign-<name>).")
  in
  let resume_t =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue an interrupted campaign in --out: valid cell \
             checkpoints are reused, only missing cells run.")
  in
  let max_cells_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cells" ] ~docv:"N"
          ~doc:"Run at most N cells this invocation, then stop (resumable).")
  in
  let domains_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Domain-pool size for this campaign (default: COBRA_DOMAINS).")
  in
  let list_kernels_t =
    Arg.(value & flag & info [ "list-kernels" ] ~doc:"List sweepable kernels and exit.")
  in
  let cache_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache directory (shareable between \
             campaigns and with the serve daemon): cells whose \
             (master, address, meta) already have a cached payload are \
             not recomputed.")
  in
  let engine_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Trial execution engine: 'scalar' (one replica per trial, the \
             historical streams) or 'lanes' (bit-sliced, 64 replicas per \
             word for cobra/bips/push/sis; other kernels fall back to \
             scalar). Overrides the grid's engine= key; part of the \
             campaign identity, so resume with the same engine.")
  in
  let run grid out resume max_cells seed domains list_kernels engine cache =
    if list_kernels then begin
      List.iter
        (fun k -> Printf.printf "%-10s %s\n" k.K.name k.K.doc)
        Sweep.Kernels.all;
      0
    end
    else
      match grid with
      | None ->
        Printf.eprintf "sweep: --grid is required (or --list-kernels)\n";
        2
      | Some grid_arg -> (
        match Sweep.Grid.load grid_arg with
        | Error msg ->
          Printf.eprintf "sweep: %s\n" msg;
          2
        | Ok grid -> (
          let engine_override =
            match engine with
            | None -> Ok None
            | Some s -> Result.map Option.some (Sweep.Kernels.engine_of_string s)
          in
          match engine_override with
          | Error msg ->
            Printf.eprintf "sweep: %s\n" msg;
            2
          | Ok override -> (
          let grid =
            match override with
            | None -> grid
            | Some engine -> { grid with Sweep.Grid.engine }
          in
          let master = Simkit.Seeds.master ~default:seed () in
          let dir =
            match out with
            | Some d -> d
            | None -> "_results/campaign-" ^ grid.Sweep.Grid.name
          in
          let cells = Sweep.Grid.cells grid in
          Printf.printf
            "campaign %s: %d cells (%d graphs x %d kernels x %d branchings), \
             %d trials/cell, %s engine, master seed %d\n"
            grid.Sweep.Grid.name (List.length cells)
            (List.length grid.Sweep.Grid.graphs)
            (List.length grid.Sweep.Grid.kernels)
            (List.length grid.Sweep.Grid.branchings)
            grid.Sweep.Grid.trials
            (Sweep.Kernels.engine_to_string grid.Sweep.Grid.engine)
            master;
          let store =
            Option.map (fun dir -> Simkit.Cellstore.open_ ~dir) cache
          in
          let config =
            {
              Simkit.Campaign.dir;
              master;
              resume;
              max_cells;
              domains;
              cache = store;
              progress =
                (fun event ->
                  print_string (Simkit.Campaign.event_to_string event);
                  print_newline ();
                  flush stdout);
            }
          in
          match Simkit.Campaign.run config ~name:grid.Sweep.Grid.name ~cells with
          | Error msg ->
            Printf.eprintf "sweep: %s\n" msg;
            2
          | Ok r ->
            Printf.printf
              "cells: %d total, %d ran, %d cached, %d reused, %d corrupt re-run\n"
              r.Simkit.Campaign.total r.Simkit.Campaign.ran
              r.Simkit.Campaign.cached r.Simkit.Campaign.reused
              r.Simkit.Campaign.corrupted;
            (match store with
            | Some s ->
              let st = Simkit.Cellstore.stats s in
              Printf.printf "cache: %d hits, %d misses, %d puts (%s)\n"
                st.Simkit.Cellstore.hits st.Simkit.Cellstore.misses
                st.Simkit.Cellstore.puts (Simkit.Cellstore.dir s)
            | None -> ());
            (match r.Simkit.Campaign.manifest with
            | Some path ->
              Printf.printf "campaign complete: wrote %s\n" path;
              0
            | None ->
              Printf.printf
                "campaign incomplete: %d cells remaining — re-run with --resume\n"
                r.Simkit.Campaign.remaining;
              0))))
  in
  let doc =
    "Run a checkpointed sweep campaign over graph x kernel x branching grids."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ grid_t $ out_t $ resume_t $ max_cells_t $ seed_t $ domains_t
      $ list_kernels_t $ engine_t $ cache_t)

(* ---------- serve / client ---------- *)

let socket_t =
  Arg.(
    value
    & opt string "_results/cobra.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the campaign daemon listens on.")

let serve_cmd =
  let cache_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache shared by every campaign the \
             daemon runs (and with batch sweeps passing the same --cache).")
  in
  let max_jobs_t =
    Arg.(
      value & opt int 2
      & info [ "max-jobs" ] ~docv:"N" ~doc:"Campaigns running concurrently.")
  in
  let queue_depth_t =
    Arg.(
      value & opt int 8
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Additional campaigns allowed to wait; beyond this, submit is refused.")
  in
  let max_cells_t =
    Arg.(
      value & opt int 10_000
      & info [ "max-cells-per-submit" ] ~docv:"N"
          ~doc:"Largest grid (in cells) a single submission may expand to.")
  in
  let max_inflight_t =
    Arg.(
      value & opt int 50_000
      & info [ "max-inflight-per-client" ] ~docv:"N"
          ~doc:"Unfinished-cell quota per client across its active jobs.")
  in
  let domains_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Dispatch lanes, one domain each, shared by all campaigns \
             (default: COBRA_DOMAINS).")
  in
  let run socket cache max_jobs queue_depth max_cells max_inflight domains =
    let config =
      {
        Serve.Daemon.socket;
        cache;
        max_jobs;
        queue_depth;
        max_cells_per_submit = max_cells;
        max_inflight_per_client = max_inflight;
        domains;
      }
    in
    Printf.printf "cobra serve: listening on %s (%s)\n%!" socket
      (match cache with
      | Some d -> "cache " ^ d
      | None -> "no result cache");
    match Serve.Daemon.run config with
    | Ok () ->
      Printf.printf "cobra serve: shut down\n";
      0
    | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      1
  in
  let doc = "Run the campaign daemon (protocol cobra.rpc/1 over a Unix socket)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_t $ cache_t $ max_jobs_t $ queue_depth_t $ max_cells_t
      $ max_inflight_t $ domains_t)

let client_cmd =
  let job_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB") in
  let print_event e = Printf.printf "%s\n%!" (Simkit.Campaign.event_to_string e) in
  let print_status doc =
    let str k =
      Option.value ~default:"-"
        (Option.bind (Simkit.Json.member k doc) Simkit.Json.to_string_opt)
    in
    let int k =
      match Simkit.Json.member k doc with Some (Simkit.Json.Int i) -> i | _ -> 0
    in
    Printf.printf
      "%s %s (campaign %s, client %s): %d/%d done (%d ran, %d cached, %d \
       reused) -> %s\n"
      (str "job") (str "status") (str "campaign") (str "client") (int "done")
      (int "pending") (int "ran") (int "cached") (int "reused")
      (match Simkit.Json.member "manifest" doc with
      | Some (Simkit.Json.String p) -> p
      | _ -> str "dir")
  in
  let fail msg =
    Printf.eprintf "client: %s\n" msg;
    1
  in
  let submit_cmd =
    let grid_t =
      Arg.(
        required
        & opt (some string) None
        & info [ "grid" ] ~docv:"FILE|INLINE"
            ~doc:"Parameter grid, as for $(b,cobra sweep).")
    in
    let out_t =
      Arg.(
        required
        & opt (some string) None
        & info [ "out" ] ~docv:"DIR" ~doc:"Campaign output directory (daemon-side).")
    in
    let default_client =
      match (Sys.getenv_opt "USER", Sys.getenv_opt "LOGNAME") with
      | Some u, _ | None, Some u -> u
      | None, None -> "anonymous"
    in
    let client_t =
      Arg.(
        value & opt string default_client
        & info [ "client" ] ~docv:"NAME" ~doc:"Client identity for quota accounting.")
    in
    let resume_t =
      Arg.(value & flag & info [ "resume" ] ~doc:"Continue an interrupted campaign.")
    in
    let watch_t =
      Arg.(
        value & flag
        & info [ "watch" ] ~doc:"Stream progress events until the job finishes.")
    in
    let run socket grid out client resume watch seed =
      let master = Simkit.Seeds.master ~default:seed () in
      (* Mirror Sweep.Grid.load: an existing file that fails to parse is
         a user error to report, not an inline grid to forward. *)
      let grid_result =
        if Sys.file_exists grid then
          match Simkit.Json.of_file grid with
          | Ok doc -> Ok (`Doc doc)
          | Error e -> Error (Printf.sprintf "%s: %s" grid e)
        else Ok (`Inline grid)
      in
      match
        Result.bind grid_result (fun grid ->
            let s = { Serve.Protocol.client; grid; out; master; resume } in
            Serve.Client.request ~socket (Serve.Protocol.Submit s))
      with
      | Error msg -> fail msg
      | Ok doc ->
        print_status doc;
        if not watch then 0
        else (
          match
            Option.bind (Simkit.Json.member "job" doc) Simkit.Json.to_string_opt
          with
          | None -> fail "malformed submit response: no job id"
          | Some job -> (
            match Serve.Client.watch ~socket ~job print_event with
            | Error msg -> fail msg
            | Ok final ->
              print_status final;
              (match
                 Option.bind (Simkit.Json.member "status" final)
                   Simkit.Json.to_string_opt
               with
              | Some "done" -> 0
              | _ -> 1)))
    in
    Cmd.v (Cmd.info "submit" ~doc:"Submit a sweep grid to the daemon.")
      Term.(
        const run $ socket_t $ grid_t $ out_t $ client_t $ resume_t $ watch_t
        $ seed_t)
  in
  let status_cmd =
    let run socket job =
      match Serve.Client.request ~socket (Serve.Protocol.Status { job }) with
      | Error msg -> fail msg
      | Ok doc ->
        print_status doc;
        0
    in
    Cmd.v (Cmd.info "status" ~doc:"Print one status snapshot of a job.")
      Term.(const run $ socket_t $ job_t)
  in
  let watch_cmd =
    let run socket job =
      match Serve.Client.watch ~socket ~job print_event with
      | Error msg -> fail msg
      | Ok final ->
        print_status final;
        0
    in
    Cmd.v
      (Cmd.info "watch" ~doc:"Stream a job's progress events until it finishes.")
      Term.(const run $ socket_t $ job_t)
  in
  let cancel_cmd =
    let run socket job =
      match Serve.Client.request ~socket (Serve.Protocol.Cancel { job }) with
      | Error msg -> fail msg
      | Ok doc ->
        print_status doc;
        0
    in
    Cmd.v
      (Cmd.info "cancel"
         ~doc:"Stop scheduling a job's remaining cells (checkpoints are kept).")
      Term.(const run $ socket_t $ job_t)
  in
  let stats_cmd =
    let run socket =
      match Serve.Client.request ~socket Serve.Protocol.Stats with
      | Error msg -> fail msg
      | Ok doc ->
        print_string (Simkit.Json.to_string ~pretty:true doc);
        print_newline ();
        0
    in
    Cmd.v (Cmd.info "stats" ~doc:"Print the daemon-wide stats document.")
      Term.(const run $ socket_t)
  in
  let shutdown_cmd =
    let run socket =
      match Serve.Client.request ~socket Serve.Protocol.Shutdown with
      | Error msg -> fail msg
      | Ok _ ->
        Printf.printf "daemon stopping\n";
        0
    in
    Cmd.v (Cmd.info "shutdown" ~doc:"Ask the daemon to finish in-flight cells and exit.")
      Term.(const run $ socket_t)
  in
  let doc = "Talk to the campaign daemon (cobra.rpc/1)." in
  Cmd.group (Cmd.info "client" ~doc)
    [ submit_cmd; status_cmd; watch_cmd; cancel_cmd; stats_cmd; shutdown_cmd ]

(* ---------- cover ---------- *)

let cover_cmd =
  let scan_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "scan-starts" ] ~docv:"K"
          ~doc:
            "Instead of one start vertex, sample K distinct starts and report \
             per-start means plus the worst - an estimate of the paper's \
             COV(G) = max over start vertices.")
  in
  let run spec backend branching trials seed start cap csv scan =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    let params = { K.default_params with K.branching; start; cap } in
    (match scan with
    | None ->
      Printf.printf "COBRA cover time, branching %s, start %d, %d trials, seed %d\n"
        (Cobra.Branching.to_string branching)
        start trials seed;
      run_process_trials ?csv ~seed ~trials ~name:"cover time (rounds)" K.cobra g
        params
    | Some k ->
      let n = Graph.View.n_vertices g in
      let k = min k n in
      let rng = Simkit.Seeds.tagged_rng ~master:seed ~tag:"cli:scan" in
      let starts = Prng.Sample.without_replacement rng ~k ~n in
      Printf.printf
        "COBRA cover time over %d sampled starts, branching %s, %d trials each\n" k
        (Cobra.Branching.to_string branching)
        trials;
      let worst = ref neg_infinity and worst_start = ref (-1) in
      Array.iter
        (fun start ->
          (* Each start gets its own hashed salt region: a linear scheme
             like [start * C + i] collides across starts once trials > C. *)
          let salt0 =
            Simkit.Seeds.salt_of_tag (Printf.sprintf "cli:scan:start=%d" start)
          in
          let params = { params with K.start } in
          let times = collect ~salt0 ~seed ~trials (K.completion_time K.cobra g params) in
          let s = Stats.Summary.create () in
          Array.iter (Option.iter (Stats.Summary.add_int s)) times;
          if Stats.Summary.count s > 0 then begin
            let m = Stats.Summary.mean s in
            Printf.printf "  start %6d: mean %.2f (max %.0f)\n" start m
              (Stats.Summary.max s);
            if m > !worst then begin
              worst := m;
              worst_start := start
            end
          end)
        starts;
      if !worst_start < 0 then print_endline "every trial hit the cap"
      else
        Printf.printf "worst sampled start: %d with mean %.2f (COV(G) estimate)\n"
          !worst_start !worst);
    0
  in
  let doc = "Measure COBRA cover times." in
  Cmd.v (Cmd.info "cover" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ branching_t $ trials_t $ seed_t $ start_t
      $ cap_t $ csv_t $ scan_t)

(* ---------- bips ---------- *)

let bips_cmd =
  let source_t =
    Arg.(value & opt int 0 & info [ "source" ] ~docv:"V" ~doc:"Persistent source vertex.")
  in
  let run spec backend branching trials seed source cap csv =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    Printf.printf "BIPS infection time, branching %s, source %d, %d trials, seed %d\n"
      (Cobra.Branching.to_string branching)
      source trials seed;
    let params = { K.default_params with K.branching; start = source; cap } in
    run_process_trials ?csv ~seed ~trials ~name:"infection time (rounds)" K.bips g
      params;
    0
  in
  let doc = "Measure BIPS infection times." in
  Cmd.v (Cmd.info "bips" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ branching_t $ trials_t $ seed_t $ source_t
      $ cap_t $ csv_t)

(* ---------- walk ---------- *)

let walk_cmd =
  let walkers_t =
    Arg.(
      value & opt int 1
      & info [ "walkers" ] ~docv:"N" ~doc:"Number of independent walkers (default 1).")
  in
  let run spec backend trials seed start cap walkers csv =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    Printf.printf "%d independent random walk(s), start %d, %d trials, seed %d\n"
      walkers start trials seed;
    let params = { K.default_params with K.start = start; walkers; cap } in
    run_process_trials ?csv ~seed ~trials ~name:"cover time (rounds)" K.rwalk g
      params;
    0
  in
  let doc = "Measure random-walk cover times (k=1 baseline; --walkers for many)." in
  Cmd.v (Cmd.info "walk" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ trials_t $ seed_t $ start_t $ cap_t
      $ walkers_t $ csv_t)

(* ---------- push ---------- *)

(* The rumour protocols' report, from vertex 0: rounds and total
   transmissions over the trials that informed everyone, with the capped
   trials counted as censored. *)
let rumour_trials kernel g ~trials ~seed ~cap =
  let params = { K.default_params with K.start = 0; cap } in
  let outcomes = collect ~seed ~trials (K.run kernel g params) in
  let completed = List.filter (fun o -> o.K.completed) (Array.to_list outcomes) in
  let censored = trials - List.length completed in
  let summarize name value =
    summarize_trials name (Array.of_list (List.map value completed)) censored
  in
  summarize "rounds" (fun o -> Float.of_int o.K.rounds);
  summarize "transmissions" (fun o -> observation_exn o "transmissions")

let push_cmd =
  let protocol_t =
    Arg.(
      value
      & opt (enum [ ("push", `Push); ("push-pull", `Push_pull); ("flood", `Flood) ]) `Push
      & info [ "protocol" ] ~docv:"P" ~doc:"push | push-pull | flood.")
  in
  let run spec backend protocol trials seed cap =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    (match protocol with
    | `Flood ->
      let o = Cobra.Push.flood g ~start:0 in
      Printf.printf "flooding: rounds=%d transmissions=%d\n" o.Cobra.Push.rounds
        o.Cobra.Push.transmissions
    | `Push -> rumour_trials K.push g ~trials ~seed ~cap
    | `Push_pull -> rumour_trials K.push_pull g ~trials ~seed ~cap);
    0
  in
  let doc = "Run rumour-spreading baselines (push, push-pull, flooding)." in
  Cmd.v (Cmd.info "push" ~doc)
    Term.(const run $ graph_t $ backend_t $ protocol_t $ trials_t $ seed_t $ cap_t)

(* ---------- pull ---------- *)

let pull_cmd =
  let run spec backend trials seed cap =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    Printf.printf "pull rumour spreading, start 0, %d trials, seed %d\n" trials seed;
    rumour_trials K.pull g ~trials ~seed ~cap;
    0
  in
  let doc = "Run pull rumour spreading (uninformed vertices query a neighbour)." in
  Cmd.v (Cmd.info "pull" ~doc)
    Term.(const run $ graph_t $ backend_t $ trials_t $ seed_t $ cap_t)

(* ---------- coalesce ---------- *)

let coalesce_cmd =
  let walkers_t =
    Arg.(
      value & opt int 2
      & info [ "walkers" ] ~docv:"N" ~doc:"Number of initial clusters (default 2).")
  in
  let run spec backend trials seed start cap walkers csv =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    Printf.printf
      "coalescing walks with voting, %d walkers, start %d, %d trials, seed %d\n"
      walkers start trials seed;
    let params = { K.default_params with K.start = start; walkers; cap } in
    run_process_trials ?csv ~seed ~trials ~name:"consensus time (rounds)" K.coalesce
      g params;
    0
  in
  let doc = "Measure coalescing-walk consensus times (voting)." in
  Cmd.v (Cmd.info "coalesce" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ trials_t $ seed_t $ start_t $ cap_t
      $ walkers_t $ csv_t)

(* ---------- explore ---------- *)

let explore_cmd =
  let run spec backend trials seed start cap csv =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    Printf.printf "unvisited-edge-preferring walk, start %d, %d trials, seed %d\n"
      start trials seed;
    let params = { K.default_params with K.start = start; cap } in
    run_process_trials ?csv ~seed ~trials ~name:"cover time (rounds)" K.explore g
      params;
    0
  in
  let doc = "Measure cover times of the unvisited-edge-preferring walk." in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ trials_t $ seed_t $ start_t $ cap_t $ csv_t)

(* ---------- duality ---------- *)

let duality_cmd =
  let exact_t =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute both sides exactly (n <= 16).")
  in
  let run spec branching trials seed u v t exact =
    let g = build_graph spec ~seed in
    print_graph_line g spec;
    let rng = Simkit.Seeds.tagged_rng ~master:seed ~tag:"cli:duality" in
    let c = Cobra.Duality.compare_at ~trials g ~branching ~u ~v ~t rng in
    let cobra_rate, bips_rate = Cobra.Duality.estimated_rates c in
    Printf.printf
      "t=%d  P(Hit_%d(%d) > t) ~ %.4f (COBRA, %d trials)   P(%d not in A_t) ~ %.4f (BIPS, %d trials)\n"
      t u v cobra_rate c.Cobra.Duality.cobra_trials u bips_rate
      c.Cobra.Duality.bips_trials;
    if exact then begin
      if Graph.View.n_vertices g <= Cobra.Exact.max_vertices then begin
        let gc = Graph.View.to_csr g in
        let s = Cobra.Exact.cobra_hit_survival gc ~branching ~start:[ u ] ~target:v ~t_max:t in
        let a = Cobra.Exact.bips_avoid gc ~branching ~source:v ~avoid:[ u ] ~t_max:t in
        Printf.printf "exact: P(Hit > t) = %.6f   P(u not in A_t) = %.6f   |diff| = %.2e\n"
          s.(t) a.(t)
          (Float.abs (s.(t) -. a.(t)))
      end
      else
        Printf.printf "exact: skipped (graph larger than %d vertices)\n"
          Cobra.Exact.max_vertices
    end;
    0
  in
  let doc = "Estimate both sides of the Theorem 4 duality." in
  Cmd.v (Cmd.info "duality" ~doc)
    Term.(
      const run $ graph_t $ branching_t $ trials_t $ seed_t $ u_t $ v_t $ t_t ~default:5
      $ exact_t)

(* ---------- spectral ---------- *)

let spectral_cmd =
  let run spec backend seed =
    let g = build_graph spec ~backend ~seed in
    print_graph_line g spec;
    (match Graph.View.regularity g with
    | Some r when r > 0 ->
      let rng = Simkit.Seeds.tagged_rng ~master:seed ~tag:"cli:spectral" in
      let p2 = Spectral.Power.lambda_2 (Prng.Rng.split rng) g in
      let pn = Spectral.Power.lambda_min (Prng.Rng.split rng) g in
      let lz = Spectral.Lanczos.extremes (Prng.Rng.split rng) g in
      let gap = Spectral.Gap.estimate rng g in
      Printf.printf "power iteration : lambda_2 = %+.6f (%d iters)  lambda_n = %+.6f (%d iters)\n"
        p2.Spectral.Power.value p2.Spectral.Power.iterations pn.Spectral.Power.value
        pn.Spectral.Power.iterations;
      Printf.printf "lanczos         : lambda_2 = %+.6f  lambda_n = %+.6f\n"
        lz.Spectral.Lanczos.lambda_2 lz.Spectral.Lanczos.lambda_min;
      Printf.printf "%s\n" (Format.asprintf "%a" Spectral.Gap.pp gap);
      let n = Graph.View.n_vertices g in
      Printf.printf "theorem-1 scale log n / gap^3 = %.1f rounds; premise gap/sqrt(log n/n) = %.2f\n"
        (Spectral.Gap.theorem1_bound ~n gap)
        (Spectral.Gap.satisfies_gap_condition ~n gap)
    | _ ->
      Printf.printf "graph is not regular: degrees %d..%d (spectral bounds in the paper need regularity)\n"
        (Graph.View.min_degree g) (Graph.View.max_degree g));
    0
  in
  let doc = "Estimate the walk-matrix spectrum and the paper's gap quantities." in
  Cmd.v (Cmd.info "spectral" ~doc) Term.(const run $ graph_t $ backend_t $ seed_t)

(* ---------- gen ---------- *)

let gen_cmd =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("edges", `Edges); ("dot", `Dot) ]) `Edges
      & info [ "format" ] ~docv:"FMT" ~doc:"edges | dot.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run spec seed format out =
    let g = Graph.View.to_csr (build_graph spec ~seed) in
    let payload =
      match format with
      | `Edges -> Graph.Io.to_edge_list g
      | `Dot -> Graph.Io.to_dot ~name:"cobra" g
    in
    (match out with
    | None -> print_string payload
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc payload));
    0
  in
  let doc = "Generate a graph and write it out." in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const run $ graph_t $ seed_t $ format_t $ out_t)

(* ---------- herd ---------- *)

let herd_cmd =
  let pens_t = Arg.(value & opt int 10 & info [ "pens" ] ~docv:"N" ~doc:"Number of pens.") in
  let pen_size_t =
    Arg.(value & opt int 12 & info [ "pen-size" ] ~docv:"N" ~doc:"Animals per pen.")
  in
  let pi_t =
    Arg.(value & flag & info [ "pi" ] ~doc:"Introduce a persistently infected animal.")
  in
  let run pens pen_size pi trials seed =
    let g =
      Graph.View.of_csr (Graph.Gen.ring_of_cliques ~cliques:pens ~clique_size:pen_size)
    in
    Printf.printf "herd: %d pens x %d animals (%s)\n" pens pen_size
      (Format.asprintf "%a" Graph.View.pp g);
    let n = Graph.View.n_vertices g in
    let params =
      {
        K.default_params with
        K.branching = Cobra.Branching.cobra_k2;
        start = 0;
        persistent = pi;
        infectious_rounds = 2;
        immune_rounds = 8;
      }
    in
    let outcomes = collect ~seed ~trials (K.run Epidemic.Kernels.herd g params) in
    let full = ref 0 and extinct = ref 0 and rounds = Stats.Summary.create () in
    Array.iter
      (fun o ->
        if o.K.completed then begin
          if int_of_float (observation_exn o "ever") = n then begin
            incr full;
            Stats.Summary.add_int rounds o.K.rounds
          end
          else incr extinct
        end)
      outcomes;
    Printf.printf "full exposure: %d/%d   extinct: %d/%d\n" !full trials !extinct trials;
    if Stats.Summary.count rounds > 0 then
      Printf.printf "rounds to full exposure: %s\n"
        (Format.asprintf "%a" Stats.Summary.pp rounds);
    0
  in
  let doc = "Simulate the BVDV-style herd epidemic." in
  Cmd.v (Cmd.info "herd" ~doc)
    Term.(const run $ pens_t $ pen_size_t $ pi_t $ trials_t $ seed_t)

(* ---------- seir ---------- *)

let seir_cmd =
  let latent_t =
    Arg.(
      value & opt int 2
      & info [ "latent" ] ~docv:"L"
          ~doc:"Latent (exposed) rounds before turning infectious (0 skips Exposed).")
  in
  let infectious_t =
    Arg.(
      value & opt int 2
      & info [ "infectious" ] ~docv:"J" ~doc:"Infectious rounds before recovery.")
  in
  let run spec backend branching trials seed start latent infectious =
    if latent < 0 then begin
      Printf.eprintf "error: --latent must be >= 0\n";
      2
    end
    else if infectious < 1 then begin
      Printf.eprintf "error: --infectious must be >= 1\n";
      2
    end
    else begin
      let g = build_graph ~backend spec ~seed in
      print_graph_line g spec;
      let n = Graph.View.n_vertices g in
      Printf.printf "seir: contacts %s, latent %d, infectious %d, %d trials, seed %d\n"
        (Cobra.Branching.to_string branching)
        latent infectious trials seed;
      let params =
        {
          K.default_params with
          K.branching;
          start;
          latent_rounds = latent;
          infectious_rounds = infectious;
        }
      in
      let outcomes = collect ~seed ~trials (K.run Epidemic.Kernels.seir g params) in
      let attack = Stats.Summary.create ()
      and peak = Stats.Summary.create ()
      and gen_r = Stats.Summary.create ()
      and rounds = Stats.Summary.create () in
      let major = ref 0 in
      Array.iter
        (fun o ->
          let ever = observation_exn o "ever" in
          Stats.Summary.add attack (ever /. float_of_int n);
          Stats.Summary.add peak (observation_exn o "peak");
          Stats.Summary.add gen_r (observation_exn o "gen_r");
          Stats.Summary.add_int rounds o.K.rounds;
          if 2.0 *. ever >= float_of_int n then incr major)
        outcomes;
      Printf.printf "attack rate: %s\n" (Format.asprintf "%a" Stats.Summary.pp attack);
      Printf.printf "peak infectious: %s\n"
        (Format.asprintf "%a" Stats.Summary.pp peak);
      Printf.printf "generational R: %s\n"
        (Format.asprintf "%a" Stats.Summary.pp gen_r);
      Printf.printf "rounds to absorption: %s\n"
        (Format.asprintf "%a" Stats.Summary.pp rounds);
      Printf.printf "major outbreaks (attack >= 1/2): %d/%d\n" !major trials;
      0
    end
  in
  let doc = "Run the discrete SEIR epidemic (latent/infectious timers) to absorption." in
  Cmd.v (Cmd.info "seir" ~doc)
    Term.(
      const run $ graph_t $ backend_t $ branching_t $ trials_t $ seed_t $ start_t
      $ latent_t $ infectious_t)

(* ---------- exact ---------- *)

let exact_cmd =
  let run spec branching seed u v t =
    let gv = build_graph spec ~seed in
    print_graph_line gv spec;
    let g = Graph.View.to_csr gv in
    let n = Graph.Csr.n_vertices g in
    if n > Cobra.Exact.max_vertices then begin
      Printf.eprintf "error: exact computation needs at most %d vertices (got %d)\n"
        Cobra.Exact.max_vertices n;
      2
    end
    else begin
      Printf.printf "branching %s\n\n" (Cobra.Branching.to_string branching);
      let survival = Cobra.Exact.cobra_hit_survival g ~branching ~start:[ u ] ~target:v ~t_max:t in
      let absent = Cobra.Exact.bips_avoid g ~branching ~source:v ~avoid:[ u ] ~t_max:t in
      let cover = Cobra.Exact.cover_survival g ~branching ~start:[ u ] ~t_max:t in
      let unsat = Cobra.Exact.bips_unsaturated g ~branching ~source:v ~t_max:t in
      let esize = Cobra.Exact.bips_expected_size g ~branching ~source:v ~t_max:t in
      Printf.printf
        " t  P(Hit_%d(%d)>t)  P(%d not in A_t)  P(cov>t)  P(A_t<>V)  E|A_t|\n" u v u;
      for s = 0 to t do
        Printf.printf "%2d      %.6f         %.6f  %.6f   %.6f  %6.3f\n" s survival.(s)
          absent.(s) cover.(s) unsat.(s) esize.(s)
      done;
      Printf.printf "\nexact E[cover from %d] = %.6f rounds\n" u
        (Cobra.Exact.expected_cover_time g ~branching ~start:[ u ]);
      Printf.printf "Theorem 4 residual at t=%d: %.3e\n" t
        (Float.abs (survival.(t) -. absent.(t)));
      0
    end
  in
  let doc = "Exact distributions on small graphs (DP over subsets)." in
  Cmd.v (Cmd.info "exact" ~doc)
    Term.(const run $ graph_t $ branching_t $ seed_t $ u_t $ v_t $ t_t ~default:10)

(* ---------- contact ---------- *)

let contact_cmd =
  let rate_t =
    Arg.(
      value & opt float 0.5
      & info [ "rate" ] ~docv:"MU" ~doc:"Per-edge infection rate (recovery rate is 1).")
  in
  let horizon_t =
    Arg.(
      value & opt float 200.0
      & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time horizon.")
  in
  let persistent_t =
    Arg.(
      value & flag
      & info [ "persistent" ] ~doc:"Make vertex 0 a persistent (never-recovering) source.")
  in
  let run spec trials seed rate horizon persistent =
    let g = build_graph spec ~seed in
    print_graph_line g spec;
    Printf.printf
      "contact process: rate %.3f, horizon %.0f, %s, %d trials, seed %d\n" rate horizon
      (if persistent then "persistent source at 0" else "transient seed at 0")
      trials seed;
    let params =
      { K.default_params with K.start = 0; rate; horizon; persistent }
    in
    let outcomes = collect ~seed ~trials (K.run Epidemic.Kernels.contact g params) in
    let died = ref 0 and full = ref 0 and active = ref 0 in
    let full_times = Stats.Summary.create () in
    Array.iter
      (fun o ->
        match observation_exn o "outcome" with
        | 0.0 -> incr died
        | 1.0 ->
          incr full;
          Stats.Summary.add full_times (observation_exn o "time")
        | _ -> incr active)
      outcomes;
    Printf.printf "died out: %d/%d   fully exposed: %d/%d   still active at horizon: %d/%d\n"
      !died trials !full trials !active trials;
    if Stats.Summary.count full_times > 0 then
      Printf.printf "time to full exposure: %s\n"
        (Format.asprintf "%a" Stats.Summary.pp full_times);
    0
  in
  let doc = "Run the continuous-time contact process (Harris 1974)." in
  Cmd.v (Cmd.info "contact" ~doc)
    Term.(const run $ graph_t $ trials_t $ seed_t $ rate_t $ horizon_t $ persistent_t)

(* ---------- main ---------- *)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let doc = "COBRA coalescing-branching walks and the dual BIPS epidemic" in
  let info = Cmd.info "cobra_cli" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            exp_cmd; sweep_cmd; serve_cmd; client_cmd; cover_cmd; bips_cmd; walk_cmd; push_cmd;
            pull_cmd; coalesce_cmd; explore_cmd; duality_cmd; spectral_cmd;
            gen_cmd; herd_cmd; seir_cmd; contact_cmd; exact_cmd;
          ]))
