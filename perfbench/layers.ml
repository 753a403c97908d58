(* The traced run: per-layer metrics measured from outside the program,
   by timing calls into each layer's public functions. It reruns the
   workload's exact inputs in-process — Sweep.Grid.cells, Campaign.plan
   / execute_cell / finalize over a Simkit.Pool, then the bare
   Graph.Spec.build_view and Sweep.Kernels.run_trials calls of every
   cell — recording one span per layer boundary, and adds fixed
   micro-measurements of Prng, Graph.View, kernel steps, Cellstore,
   Eventlog and Serve.Client. No library code is changed. *)

open Proc
module Json = Simkit.Json
module Campaign = Simkit.Campaign
module Cellstore = Simkit.Cellstore
module K = Cobra.Kernel

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let sum = List.fold_left ( +. ) 0.0

(* ns per call of [f i], median over 5 blocks of [n] calls. *)
let per_call_ns ~n f =
  Arith.median
    (List.init 5 (fun _ ->
         let t0 = now () in
         for i = 0 to n - 1 do
           f i
         done;
         (now () -. t0) *. 1e9 /. float_of_int n))

let mean_us xs f = 1e6 *. Arith.mean (List.map (fun x -> let t0 = now () in f x; now () -. t0) xs)

let cell_key (job : Workloads.job) address = job.name ^ "/" ^ address

let graph_rng ~seed spec =
  Simkit.Seeds.tagged_rng ~master:seed ~tag:("sweep:graph:" ^ Graph.Spec.to_string spec)

let build ~seed ~backend spec_str =
  let spec = Result.get_ok (Graph.Spec.parse spec_str) in
  Result.get_ok (Graph.Spec.build_view spec ~backend (graph_rng ~seed spec))

(* ---------- the in-process campaign pass ---------- *)

type pass = { wall : float; plans : (Workloads.job * Campaign.plan) list }

let campaign_pass tr pool ~seed ~dir ~store jobs =
  let t0 = now () in
  let plans =
    List.map
      (fun (job : Workloads.job) ->
        let cells =
          Trace.span tr ~name:"grid.cells" ~key:job.name (fun () ->
              Sweep.Grid.cells job.grid)
          |> List.map (fun (c : Campaign.cell) ->
                 let key = cell_key job c.address in
                 let run ~master ~salt =
                   Trace.span tr ~name:"cell.run" ~key (fun () -> c.run ~master ~salt)
                 in
                 { c with run })
        in
        let config =
          { Campaign.dir = Filename.concat dir job.name; master = seed; resume = false;
            max_cells = None; domains = None; cache = Some store; progress = ignore }
        in
        match
          Trace.span tr ~name:"campaign.plan" ~key:job.name (fun () ->
              Campaign.plan config ~name:job.name ~cells)
        with
        | Ok p -> (job, p)
        | Error msg -> failwith msg)
      jobs
  in
  let work =
    Array.of_list
      (List.concat_map
         (fun (job, p) -> List.map (fun c -> (job, p, c)) p.Campaign.p_pending)
         plans)
  in
  Simkit.Pool.run pool ~n:(Array.length work) (fun i ->
      let job, p, c = work.(i) in
      ignore
        (Trace.span tr ~name:"campaign.execute_cell" ~key:(cell_key job c.Campaign.address)
           (fun () -> Campaign.execute_cell p c)));
  List.iter
    (fun ((job : Workloads.job), p) ->
      if Trace.span tr ~name:"campaign.finalize" ~key:job.name (fun () -> Campaign.finalize p) = None
      then failwith (job.name ^ ": campaign incomplete"))
    plans;
  { wall = now () -. t0; plans }

(* ---------- the bare layer pass ---------- *)

type bare = { key : string; lanes : bool; rounds : int }

(* Every cell's graph build and trial run, called directly and in the
   cell's own order on one domain: each distinct graph is built once,
   each cell's trials run on the streams its campaign cell uses. *)
let bare_pass tr ~seed jobs =
  List.concat_map
    (fun (job : Workloads.job) ->
      let grid = job.grid in
      let addresses =
        Array.of_list (List.map (fun c -> c.Campaign.address) (Sweep.Grid.cells grid))
      in
      let index = ref 0 in
      List.concat_map
        (fun spec ->
          let spec_str = Graph.Spec.to_string spec in
          let g =
            Trace.span tr ~name:"graph.build" ~key:(job.name ^ "/" ^ spec_str) (fun () ->
                Graph.Spec.build_view spec ~backend:grid.Sweep.Grid.backend
                  (graph_rng ~seed spec))
            |> Result.get_ok
          in
          List.concat_map
            (fun kernel ->
              List.map
                (fun branching ->
                  let address =
                    Simkit.Cellid.address_of_parts
                      [ ("g", spec_str); ("k", kernel.K.name);
                        ("b", Cobra.Branching.to_arg branching) ]
                  in
                  if address <> addresses.(!index) then
                    failwith ("bare pass out of step with Sweep.Grid.cells at " ^ address);
                  incr index;
                  let params = { grid.Sweep.Grid.base with K.branching } in
                  let key = cell_key job address in
                  let outcomes =
                    Trace.span tr ~name:"kernel.trials" ~key (fun () ->
                        Sweep.Kernels.run_trials ~engine:grid.Sweep.Grid.engine kernel g
                          params ~trials:grid.Sweep.Grid.trials ~master:seed
                          ~salt0:(Campaign.salt_of_address address))
                  in
                  {
                    key;
                    lanes =
                      grid.Sweep.Grid.engine = `Lanes
                      && Sweep.Kernels.lanes_capable kernel params;
                    rounds = Array.fold_left (fun a o -> a + o.K.rounds) 0 outcomes;
                  })
                grid.Sweep.Grid.branchings)
            grid.Sweep.Grid.kernels)
        grid.Sweep.Grid.graphs)
    jobs

(* ---------- micro-measurements ---------- *)

let sink = ref 0

let prng_metrics () =
  let rng = Prng.Rng.create 17 in
  let gen = Prng.Lanes.create (Array.init 64 (fun j -> 1000 + j)) in
  let nbits = Prng.Lanes.bits_for 17 in
  let lo = Array.make nbits 0 and hi = Array.make nbits 0 in
  [
    m "prng.int_ns" "ns" (per_call_ns ~n:1_000_000 (fun _ -> sink := !sink lxor Prng.Rng.int rng 1000));
    m "prng.bernoulli_ns" "ns"
      (per_call_ns ~n:1_000_000 (fun _ -> if Prng.Rng.bernoulli rng 0.3 then incr sink));
    m "prng.lanes.word_ns" "ns" (per_call_ns ~n:200_000 (fun _ -> Prng.Lanes.word gen));
    m "prng.lanes.uniform_ns" "ns"
      (per_call_ns ~n:20_000 (fun _ -> Prng.Lanes.uniform_planes gen ~bound:17 ~nbits ~lo ~hi));
  ]

(* Neighbour lookups on hypercube:16 behind each topology backend, at
   scattered vertices. *)
let view_metrics ~seed =
  let rng = Prng.Rng.create 23 in
  List.concat_map
    (fun backend ->
      let g = build ~seed ~backend "hypercube:16" in
      let n = Graph.View.n_vertices g in
      let b = Graph.View.backend_to_string backend in
      let vertex i = i * 40503 land (n - 1) in
      [
        m ("view.nth_neighbour_ns." ^ b) "ns"
          (per_call_ns ~n:1_000_000 (fun i ->
               sink := !sink lxor Graph.View.nth_neighbour g (vertex i) (i land 15)));
        m ("view.random_neighbour_ns." ^ b) "ns"
          (per_call_ns ~n:1_000_000 (fun i ->
               sink := !sink lxor Graph.View.random_neighbour g rng (vertex i)));
      ])
    [ `Heap; `Bigarray; `Implicit ]

(* Mean time of the middle half of a run's steps, at most [cap] steps. *)
let mid_run_ns ~cap ~finished step =
  let times = ref [] and r = ref 0 in
  while (not (finished ())) && !r < cap do
    let t0 = now () in
    step ();
    times := (now () -. t0) :: !times;
    incr r
  done;
  let a = Array.of_list (List.rev !times) in
  let n = Array.length a in
  let lo = n / 4 and hi = max (n / 4 + 1) (3 * n / 4) in
  1e9 *. Arith.mean (Array.to_list (Array.sub a lo (min n hi - lo)))

let step_cap = 200

(* One mid-run [step] of each scalar kernel on grid A's rr4 graph, mean
   over three trials. *)
let step_metrics ~seed =
  let g = build ~seed ~backend:`Heap "random-regular:16384x4" in
  let params = { K.default_params with branching = Cobra.Branching.cobra_k2 } in
  List.map
    (fun name ->
      let kernel = Option.get (Sweep.Kernels.find name) in
      let per_trial =
        List.init 3 (fun salt ->
            let rng = Simkit.Seeds.trial_rng ~master:seed ~salt in
            let inst = kernel.K.create g params in
            mid_run_ns ~cap:step_cap ~finished:inst.K.is_complete (fun () -> inst.K.step rng))
      in
      m (Printf.sprintf "step.%s.rr4_ns" name) "ns" (Arith.mean per_trial))
    [ "cobra"; "bips"; "push"; "pull"; "sis"; "seir" ]

(* One mid-run step of a full 64-lane batch of each sliced kernel, on
   grid B's two graphs behind its bigarray backend. *)
let lanes_step_metrics ~seed =
  let params = { K.default_params with branching = Cobra.Branching.cobra_k2 } in
  let all_lo, all_hi = Dstruct.Lanemat.lane_mask 64 in
  List.concat_map
    (fun (label, spec) ->
      let g = build ~seed ~backend:`Bigarray spec in
      List.map
        (fun (s : Cobra.Lanes.t) ->
          let gen =
            Prng.Lanes.create
              (Array.init 64 (fun j -> Simkit.Seeds.trial_seed ~master:seed ~salt:j))
          in
          let inst = s.create g params gen in
          let live () =
            let dlo, dhi = inst.Cobra.Lanes.done_mask () in
            (all_lo land lnot dlo, all_hi land lnot dhi)
          in
          let ns =
            mid_run_ns ~cap:step_cap
              ~finished:(fun () -> live () = (0, 0))
              (fun () ->
                let live_lo, live_hi = live () in
                inst.Cobra.Lanes.step ~live_lo ~live_hi)
          in
          m (Printf.sprintf "lanes.step.%s.%s_ns" s.name label) "ns" ns)
        [ Cobra.Lanes.cobra; Cobra.Lanes.bips; Cobra.Lanes.push; Epidemic.Lanes.sis ])
    [ ("rr4", "random-regular:16384x4"); ("hypercube", "hypercube:14") ]

(* Serve.Client against a fresh daemon: idle [stats] round trips and
   the [submit] RPC of a one-cell grid. *)
let rpc_metrics ctx t ~dir =
  let s = E2e.samples () in
  let d = E2e.start_daemon ctx s ~dir in
  let idle =
    List.init 200 (fun _ ->
        let t0 = now () in
        let r = Serve.Client.request ~socket:d.E2e.socket Serve.Protocol.Stats in
        count t ~ok:(Result.is_ok r) 1;
        now () -. t0)
  in
  let submits =
    List.init 5 (fun k ->
        let sub =
          { Serve.Protocol.client = "perfbench";
            grid = `Inline (Printf.sprintf "name=probe%d;graphs=cycle:8;kernels=cobra;trials=1" k);
            out = Filename.concat dir (Printf.sprintf "probe%d" k); master = ctx.master;
            resume = false }
        in
        let t0 = now () in
        let r = Serve.Client.submit ~socket:d.E2e.socket sub in
        count t ~ok:(Result.is_ok r) 1;
        now () -. t0)
  in
  check t (E2e.stop_daemon d) "daemon did not shut down cleanly";
  [
    m "rpc.idle_rtt_us" "us" (1e6 *. Arith.median idle);
    m "rpc.submit_ms" "ms" (1e3 *. Arith.median submits);
  ]

let record_path dir (job : Workloads.job) (c : Campaign.cell) =
  Filename.concat
    (Filename.concat (Filename.concat dir job.name) "cells")
    (Printf.sprintf "cell_%05d.json" c.Campaign.index)

(* Cellstore, record encoding, digest and Eventlog costs, on (a sample
   of) the cells the traced pass wrote. *)
let store_metrics ~seed ~work ~store ~cold_dir plans =
  let cells =
    List.concat_map (fun (job, p) -> List.map (fun c -> (job, c)) p.Campaign.p_cells) plans
  in
  let every = max 1 (List.length cells / 200) in
  let sample = List.filteri (fun i _ -> i mod every = 0) cells in
  let ids = List.map (fun (_, c) -> Campaign.cellid c) sample in
  let docs =
    List.map (fun (job, c) -> Result.get_ok (Json.of_file (record_path cold_dir job c))) sample
  in
  let payloads = List.map (fun d -> Option.get (Json.member "payload" d)) docs in
  let fresh name = Cellstore.open_ ~dir:(Filename.concat work name) in
  let empty = fresh "store-miss" and scratch = fresh "store-put" in
  let bytes =
    List.map
      (fun (job, c) -> float_of_int (Unix.stat (record_path cold_dir job c)).Unix.st_size)
      cells
  in
  let log = Simkit.Eventlog.open_ ~path:(Filename.concat work "events.jsonl") in
  let event =
    Campaign.event_to_json
      (Campaign.Cell_done
         { index = 1234; address = "g=hypercube:14;k=cobra;b=k=2"; cached = false;
           done_ = 1234; of_ = 20000; elapsed_s = 12.5; cells_per_s = 98.7; eta_s = 190.1 })
  in
  let appends = List.init 2000 Fun.id in
  let metrics =
    [
      m "cellstore.find_hit_us" "us"
        (mean_us ids (fun id -> ignore (Cellstore.find store ~master:seed id)));
      m "cellstore.find_miss_us" "us"
        (mean_us ids (fun id -> ignore (Cellstore.find empty ~master:seed id)));
      m "cellstore.put_us" "us"
        (mean_us (List.combine ids payloads) (fun (id, p) -> Cellstore.put scratch ~master:seed id p));
      m "campaign.record_bytes" "bytes" (Arith.mean bytes);
      m "json.cell_encode_us" "us" (mean_us docs (fun d -> ignore (Json.to_string ~pretty:true d)));
      m "digest.cell_us" "us"
        (mean_us payloads (fun p -> ignore (Digest.string (Json.to_string p))));
      m "eventlog.append_us" "us" (mean_us appends (fun _ -> Simkit.Eventlog.append log event));
    ]
  in
  Simkit.Eventlog.close log;
  metrics

(* ---------- the traced run ---------- *)

let same_manifests t plans_a plans_b what =
  List.iter2
    (fun ((job : Workloads.job), a) (_, b) ->
      let manifest p = read_file (Filename.concat p.Campaign.p_config.Campaign.dir "manifest.json") in
      check t (manifest a = manifest b) (Printf.sprintf "%s: in-process manifest differs from %s" job.name what))
    plans_a plans_b

let measure ctx t (w : Workloads.t) ~spans_path =
  (* The inputs of the untraced run's first iteration. *)
  let ctx = { ctx with master = Workloads.master ~seed:ctx.master 0 } in
  let work = ctx.work in
  let dir name = Filename.concat work name in
  (* The untraced system, once, for the wall time the pool ratios use. *)
  let busy = E2e.samples () in
  let e2e_wall = E2e.iteration ctx busy t w ~dir:(dir "e2e") ~ref_dir:None in
  let rtt_ms = List.map (fun x -> 1e3 *. x) busy.E2e.rtt in
  rm_rf (dir "e2e");
  let rpc = rpc_metrics ctx t ~dir:(dir "rpc") in
  let pool = Simkit.Pool.create ~domains:ctx.domains in
  let tr = Trace.create ~enabled:true in
  (* Cold passes in the order untraced, traced, traced, untraced, so a
     drift in host speed cancels out of the tracing overhead. The first
     traced pass feeds the layer metrics. *)
  let pass tr name =
    campaign_pass tr pool ~seed:ctx.master ~dir:(dir name)
      ~store:(Cellstore.open_ ~dir:(dir (name ^ "-cache"))) w.jobs
  in
  let untraced = pass Trace.disabled "untraced1" in
  let store = Cellstore.open_ ~dir:(dir "cache") in
  let gc0 = Gc.quick_stat () in
  let cold = campaign_pass tr pool ~seed:ctx.master ~dir:(dir "cold") ~store w.jobs in
  let gc1 = Gc.quick_stat () in
  let cold_spans = Trace.spans tr in
  let traced2 = pass (Trace.create ~enabled:true) "traced2" in
  let untraced2 = pass Trace.disabled "untraced2" in
  let overhead =
    (cold.wall +. traced2.wall -. untraced.wall -. untraced2.wall)
    /. (untraced.wall +. untraced2.wall)
  in
  let cached = campaign_pass tr pool ~seed:ctx.master ~dir:(dir "cached") ~store w.jobs in
  Simkit.Pool.shutdown pool;
  let cs = Cellstore.stats store in
  same_manifests t cold.plans untraced.plans "the untraced pass";
  same_manifests t cached.plans cold.plans "the cold pass";
  let cells = List.fold_left (fun a (j : Workloads.job) -> a + Workloads.cells j) 0 w.jobs in
  count t ~ok:true (3 * cells);
  check t (cs.Cellstore.misses = cells && cs.Cellstore.hits = cells)
    "in-process cache: expected one miss per cell cold and one hit per cell cached";
  let bare = bare_pass tr ~seed:ctx.master w.jobs in
  let spans = Trace.spans tr in
  let named name = List.filter (fun s -> s.Arith.name = name) spans in
  let trials = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace trials s.Arith.key s) (named "kernel.trials");
  let engine lanes =
    let mine = List.filter (fun b -> b.lanes = lanes) bare in
    let secs = sum (List.map (fun b -> Arith.duration (Hashtbl.find trials b.key)) mine) in
    let rounds = List.fold_left (fun a b -> a + b.rounds) 0 mine in
    (secs, rounds)
  in
  let scalar_s, scalar_rounds = engine false and lanes_s, lanes_rounds = engine true in
  let per_round s r = if r = 0 then 0.0 else s *. 1e9 /. float_of_int r in
  let words_of l = sum (List.map (fun s -> s.Arith.words) l) in
  let cold_named name = List.filter (fun s -> s.Arith.name = name) cold_spans in
  let cell_runs = cold_named "cell.run" in
  let busy_s = sum (List.map Arith.duration cell_runs) in
  let bare_s = sum (List.map Arith.duration (named "kernel.trials")) in
  let persist =
    Arith.self_times cold_spans
    |> List.filter (fun (s, _) -> s.Arith.name = "campaign.execute_cell")
    |> List.map snd
  in
  let layer =
    [
      m "graph.build_s" "s" (Arith.total_duration "graph.build" spans);
      m "graph.builds_per_spec" "ratio"
        ((words_of cell_runs -. words_of (named "kernel.trials")) /. words_of (named "graph.build"));
      m "kernel.scalar.trials_s" "s" scalar_s;
      m "kernel.scalar.rounds" "count" (float_of_int scalar_rounds);
      m "kernel.scalar.ns_per_round" "ns" (per_round scalar_s scalar_rounds);
      m "kernel.lanes.trials_s" "s" lanes_s;
      m "kernel.lanes.rounds" "count" (float_of_int lanes_rounds);
      m "kernel.lanes.ns_per_round" "ns" (per_round lanes_s lanes_rounds);
      m "pool.busy_frac" "frac" (Arith.busy_frac ~busy_s ~wall_s:e2e_wall ~domains:ctx.domains);
      m "serve.overhead_ratio" "ratio"
        (Arith.overhead_ratio ~wall_s:e2e_wall ~bare_s ~domains:ctx.domains);
      m "campaign.plan_s" "s" (Arith.total_duration "campaign.plan" cold_spans);
      m "campaign.persist_us_per_cell" "us" (1e6 *. Arith.mean persist);
      m "campaign.finalize_s" "s" (Arith.total_duration "campaign.finalize" cold_spans);
      m "cellstore.hits" "count" (float_of_int cs.Cellstore.hits);
      m "cellstore.misses" "count" (float_of_int cs.Cellstore.misses);
      m "cellstore.puts" "count" (float_of_int cs.Cellstore.puts);
      m "cellstore.hit_ratio" "frac"
        (float_of_int cs.Cellstore.hits /. float_of_int (cs.Cellstore.hits + cs.Cellstore.misses));
      m "gc.minor_mwords" "Mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      m "gc.major_mwords" "Mwords" ((gc1.Gc.major_words -. gc0.Gc.major_words) /. 1e6);
      m "gc.top_heap_mib" "MiB"
        (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "trace.overhead_frac" "frac" overhead;
      m "trace.spans" "count" (float_of_int (List.length spans));
    ]
  in
  let stores = store_metrics ~seed:ctx.master ~work ~store ~cold_dir:(dir "cold") cold.plans in
  Trace.write tr spans_path;
  let micro =
    prng_metrics () @ view_metrics ~seed:ctx.master @ step_metrics ~seed:ctx.master
    @ lanes_step_metrics ~seed:ctx.master
  in
  let busy_rpc =
    [
      m "rpc.busy_p50_ms" "ms" (Arith.median rtt_ms);
      m "rpc.busy_p95_ms" "ms" (snd (Arith.tail_percentile ~want:95 rtt_ms));
    ]
  in
  micro @ layer @ stores @ rpc @ busy_rpc
