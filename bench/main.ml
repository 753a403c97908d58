(* bench/main.exe — the reproduction's benchmark harness.

   Part 1 (Bechamel): one Test.make per experiment E1..E16, timing that
   experiment's computational kernel at a fixed representative size, plus
   a group of substrate micro-benchmarks (process steps, spectral matvec
   and Lanczos, generator). Estimates are OLS fits of wall time vs
   iterations.

   Part 2 (parallel engine): wall-clock of the same trial batch through
   Trial.collect ~domains:1 and Trial.collect on the shared pool,
   asserting the results identical.

   Part 3 (tables): regenerates every experiment table at Quick scale —
   the same tables EXPERIMENTS.md records at Standard/Full scale. Set
   COBRA_SCALE=standard|full and re-run for the big versions.

   Part 4 (scale): `bench/main.exe -- scale [--smoke] [--json FILE]`
   skips Bechamel and instead wall-clocks generation plus one full COBRA
   cover on million-vertex-class instances (random 4-regular and
   hypercube at n = 10^4, 10^5, 10^6; --smoke keeps only n = 10^4),
   reporting peak RSS from /proc, then the backend rows, each with a
   12-step Lanczos row printed as theta ± bound. It exits 1 when a bound
   is not finite, or when the implicit hypercube's theta_2 or theta_min
   has no closed-form eigenvalue 1 - 2k/d within its bound. These rows
   land in the "scale/" section of the JSON file, so `make bench-compare`
   gates them like any other section.

   Part 5 (lanes): `bench/main.exe -- lanes [--smoke] [--json FILE]`
   wall-clocks the same 64-trial batch of BIPS and SIS through the
   scalar engine and the bit-sliced lane engine on random 4-regular and
   hypercube instances at n = 2^10, 2^14, 2^17 (--smoke keeps only
   2^10), emitting "lanes/" rows and failing when the sliced engine's
   speedup on the rr4 instances drops below the floor (8x full, 2x
   smoke).

   Flags: --json FILE     write a cobra.bench/1 file for perf tracking
                          across PRs (see `make bench-json` and
                          `make bench-compare`)
          --kernels-only  skip part 3 (the experiment tables) *)

open Bechamel
module B = Cobra.Branching
module K = Cobra.Kernel

let master = Simkit.Seeds.master ~default:1 ()

let rng_of tag = Simkit.Seeds.tagged_rng ~master ~tag

(* Workloads are built once, outside the timed closures. Processes and
   kernels consume Graph.View; the exact engine takes raw CSR (dense DP,
   heap-only by design). *)
let expander_1k = Graph.View.of_csr (Graph.Gen.random_regular (rng_of "bench:rr1k") ~n:1024 ~r:3)
let expander_4k = Graph.View.of_csr (Graph.Gen.random_regular (rng_of "bench:rr4k") ~n:4096 ~r:3)
let complete_256 = Graph.View.of_csr (Graph.Gen.complete 256)
let circulant_1k = Graph.View.of_csr (Graph.Gen.circulant 1025 [ 1; 2; 3; 4; 5; 6; 7; 8 ])
let torus_32 = Graph.View.of_csr (Graph.Gen.torus [| 32; 32 |])
let petersen = Graph.Gen.petersen ()
let herd_graph = Graph.View.of_csr (Graph.Gen.ring_of_cliques ~cliques:6 ~clique_size:8)

let cover g branching tag =
  let rng = rng_of tag in
  let params = { K.default_params with K.branching } in
  Staged.stage (fun () -> ignore (K.completion_time K.cobra g params rng))

let experiment_kernels =
  [
    Test.make ~name:"E1/cover-3reg-n1024" (cover expander_1k B.cobra_k2 "e1");
    Test.make ~name:"E2/cover-complete-n256" (cover complete_256 B.cobra_k2 "e2");
    Test.make ~name:"E3/bips-3reg-n1024"
      (let rng = rng_of "e3" in
       Staged.stage (fun () ->
           ignore (K.completion_time K.bips expander_1k K.default_params rng)));
    Test.make ~name:"E4/exact-duality-petersen"
      (let engine = Cobra.Exact.Cobra_engine.create petersen ~branching:B.cobra_k2 in
       (* Warm the transition memo so the OLS fit measures steady-state
          evolution, not the one-time convolution setup. *)
       ignore (Cobra.Exact.Cobra_engine.hit_survival engine ~start:[ 0 ] ~target:7 ~t_max:8);
       Staged.stage (fun () ->
           ignore
             (Cobra.Exact.Cobra_engine.hit_survival engine ~start:[ 0 ] ~target:7 ~t_max:8)));
    Test.make ~name:"E5/cover-frac-rho0.3-n1024" (cover expander_1k (B.one_plus 0.3) "e5");
    Test.make ~name:"E6/cover-circulant-n1025" (cover circulant_1k B.cobra_k2 "e6");
    Test.make ~name:"E7/cover-torus-32x32" (cover torus_32 B.cobra_k2 "e7");
    Test.make ~name:"E8/walk-cover-3reg-n256"
      (let g = Graph.View.of_csr (Graph.Gen.random_regular (rng_of "bench:rr256") ~n:256 ~r:3) in
       let rng = rng_of "e8" in
       Staged.stage (fun () -> ignore (K.completion_time K.rwalk g K.default_params rng)));
    Test.make ~name:"E9/growth-formula-n1024"
      (let rng = rng_of "e9" in
       let set = Cobra.Growth.random_infected_set rng expander_1k ~source:0 ~size:256 in
       Staged.stage (fun () ->
           ignore
             (Cobra.Growth.expected_next_size expander_1k ~branching:B.cobra_k2 ~source:0
                ~infected:set)));
    Test.make ~name:"E10/herd-run-6x8"
      (let rng = rng_of "e10" in
       let params =
         { K.default_params with
           K.persistent = true; infectious_rounds = 2; immune_rounds = 4; cap = Some 50_000 }
       in
       Staged.stage (fun () -> ignore (K.run Epidemic.Kernels.herd herd_graph params rng)));
    Test.make ~name:"E11/push-complete-n256"
      (let rng = rng_of "e11" in
       Staged.stage (fun () -> ignore (K.run K.push complete_256 K.default_params rng)));
    Test.make ~name:"E12/contact-supercrit-n1024"
      (let rng = rng_of "e12" in
       Staged.stage (fun () ->
           ignore
             (Epidemic.Contact.run ~horizon:50.0 expander_1k ~infection_rate:1.0
                ~persistent:(Some 0) ~start:[] rng)));
    Test.make ~name:"E13/first-visits-n1024"
      (let rng = rng_of "e13" in
       Staged.stage (fun () ->
           ignore
             (Cobra.Process.first_visit_times expander_1k ~branching:B.cobra_k2 ~start:0 rng)));
    Test.make ~name:"E14/bips-trajectory-n1024"
      (let rng = rng_of "e14" in
       let params = { K.default_params with K.branching = B.cobra_k2; start = 0 } in
       Staged.stage (fun () ->
           ignore (K.trajectory K.bips expander_1k params rng ~key:"infected")));
    Test.make ~name:"E15/cover-distinct-n1024" (cover expander_1k (B.distinct 2) "e15");
    Test.make ~name:"E16/pushpull-n1024"
      (let rng = rng_of "e16" in
       Staged.stage (fun () -> ignore (K.run K.push_pull expander_1k K.default_params rng)));
  ]

let substrate_kernels =
  [
    Test.make ~name:"substrate/cobra-step-n4096"
      (let rng = rng_of "s1" in
       let p = Cobra.Process.create expander_4k ~branching:B.cobra_k2 ~start:[ 0 ] in
       Staged.stage (fun () ->
           (* keep the frontier warm: restart when covered *)
           if Cobra.Process.is_covered p then Cobra.Process.reset p ~start:[ 0 ];
           Cobra.Process.step p rng));
    Test.make ~name:"substrate/bips-step-n4096"
      (let rng = rng_of "s2" in
       let p = Cobra.Bips.create expander_4k ~branching:B.cobra_k2 ~source:0 in
       Staged.stage (fun () -> Cobra.Bips.step p rng));
    Test.make ~name:"substrate/walk-matvec-n4096"
      (let op = Spectral.Op.walk_matrix expander_4k in
       let x = Array.make 4096 1.0 in
       let y = Array.make 4096 0.0 in
       Staged.stage (fun () -> op.Spectral.Op.apply ~x ~y));
    Test.make ~name:"substrate/random-regular-n1024"
      (let rng = rng_of "s4" in
       Staged.stage (fun () -> ignore (Graph.Gen.random_regular rng ~n:1024 ~r:3)));
    Test.make ~name:"substrate/lanczos-lambda-n1024"
      (let rng = rng_of "s5" in
       Staged.stage (fun () ->
           ignore (Spectral.Lanczos.extremes ~steps:40 rng expander_1k)));
    Test.make ~name:"substrate/bitset-card-n65536"
      (let s = Dstruct.Bitset.create 65536 in
       Dstruct.Bitset.fill s;
       Staged.stage (fun () -> ignore (Dstruct.Bitset.cardinal s)));
  ]

let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let table =
    Stats.Table.create
      ~aligns:[ Stats.Table.Left; Stats.Table.Right; Stats.Table.Right ]
      [ "benchmark"; "time/run"; "r²" ]
  in
  let pretty_time ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let collected = ref [] in
  let bench_one test =
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all ols instance raw in
    let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
    List.iter
      (fun (name, o) ->
        let est =
          match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> Float.nan
        in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square o) in
        collected := (name, est) :: !collected;
        Stats.Table.add_row table [ name; pretty_time est; Printf.sprintf "%.4f" r2 ])
      (List.sort compare rows)
  in
  print_endline "== Bechamel kernels: one per experiment, then substrates ==";
  List.iter bench_one experiment_kernels;
  List.iter bench_one substrate_kernels;
  Stats.Table.print table;
  List.rev !collected

(* Machine-readable perf trajectory: a cobra.bench/1 file mapping
   benchmark names to ns/run. Later PRs diff these files with
   `make bench-compare` to catch regressions. *)
let emit_json path rows =
  Simkit.Benchfile.write path
    { Simkit.Benchfile.rows =
        List.map (fun (name, ns) -> { Simkit.Benchfile.name; ns }) rows };
  Printf.printf "wrote %s (%d benchmarks)\n" path (List.length rows)

(* --- Part 4: large-n scaling rows. ---------------------------------- *)

(* Peak RSS in KiB from /proc/self/status (Linux); None elsewhere. *)
let peak_rss_kib () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun k -> Some k)
          else scan ()
        in
        scan ())
  with _ -> None

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One-shot wall-clock rows: at these sizes a single run takes seconds,
   so OLS over many iterations is neither needed nor affordable. *)
let run_scale ~smoke ~json_path =
  let sizes = if smoke then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let rows = ref [] in
  let rss_note () =
    match peak_rss_kib () with
    | Some kib -> Printf.printf "    (peak RSS so far: %.1f MiB)\n%!" (float_of_int kib /. 1024.0)
    | None -> ()
  in
  let row name seconds =
    Printf.printf "  %-36s %8.3f s\n%!" name seconds;
    rows := (name, seconds *. 1e9) :: !rows
  in
  let cover_rows ?(prefix = "scale/cover-") name g tag =
    let rng = rng_of tag in
    let (covered, dt) =
      timed (fun () -> K.completion_time K.cobra g K.default_params rng)
    in
    (match covered with
    | Some _ -> ()
    | None -> failwith (name ^ ": COBRA failed to cover within the round cap"));
    row (prefix ^ name) dt
  in
  Printf.printf "== Scaling rows (%s) ==\n%!"
    (if smoke then "smoke: n = 10^4" else "n = 10^4, 10^5, 10^6");
  List.iter
    (fun n ->
      let label = Printf.sprintf "rr4-n%d" n in
      let (g, dt) =
        timed (fun () ->
            Graph.View.of_csr
              (Graph.Gen.random_regular (rng_of ("scale:" ^ label)) ~n ~r:4))
      in
      row ("scale/gen-" ^ label) dt;
      cover_rows label g ("scale:cover:" ^ label);
      (* Hypercube of comparable size: d = log2 n rounded to the grid
         14 / 17 / 20 used in EXPERIMENTS.md. *)
      let d =
        if n <= 10_000 then 14 else if n <= 100_000 then 17 else 20
      in
      let hlabel = Printf.sprintf "hypercube-d%d" d in
      let (h, dth) = timed (fun () -> Graph.View.of_csr (Graph.Gen.hypercube d)) in
      row ("scale/gen-" ^ hlabel) dth;
      cover_rows hlabel h ("scale:cover:" ^ hlabel);
      (* Preferential attachment at the same n: generation streams the
         recorded endpoint array through of_edge_iter (two passes, no
         intermediate edge list beyond the 2m endpoints), and the cover
         row prices COBRA against the heavy degree tail. *)
      let balabel = Printf.sprintf "ba2-n%d" n in
      let (ba, dtba) =
        timed (fun () ->
            Graph.View.of_csr
              (Graph.Gen.barabasi_albert
                 (rng_of ("scale:" ^ balabel))
                 ~n ~m:2 ~prob_unbiased:0.0))
      in
      row ("scale/gen-" ^ balabel) dtba;
      cover_rows balabel ba ("scale:cover:" ^ balabel))
    sizes;
  (* Backend rows: the same E1-style workload through the off-heap and
     closed-form topology layers. Full scale runs the 2 GiB-class
     acceptance instances — random 4-regular at n = 10^7 on Bigarray
     int32 CSR (the GC never scans the adjacency) and the d = 24
     hypercube with no materialised topology at all; smoke shrinks them
     to n = 10^4 / d = 14 so CI exercises both code paths cheaply. *)
  Printf.printf "== Backend rows (%s) ==\n%!"
    (if smoke then "smoke: bigarray n = 10^4, implicit d = 14"
     else "bigarray n = 10^7, implicit d = 24");
  let big_n = if smoke then 10_000 else 10_000_000 in
  let blabel = Printf.sprintf "rr4-n%d" big_n in
  let (gb, dtb) =
    timed (fun () ->
        let heap =
          Graph.Gen.random_regular (rng_of ("scale:big:" ^ blabel)) ~n:big_n ~r:4
        in
        Graph.View.of_bigcsr (Graph.Bigcsr.of_csr heap))
  in
  row ("scale/bigarray-gen-" ^ blabel) dtb;
  (* Drop the heap copy before covering so the cover row's RSS reflects
     the off-heap representation. *)
  Gc.compact ();
  cover_rows ~prefix:"scale/bigarray-cover-" blabel gb ("scale:big:cover:" ^ blabel);
  (* Spectral premise check at full scale, through the same view: 12
     Lanczos steps with the matvec straight off the int32 arrays. Each
     Ritz value prints with its bound, within which lies the eigenvalue
     nearest it; after 12 steps that need not be the extreme one. *)
  let bad_bounds = ref [] in
  let lanczos12 prefix label g =
    let e, dt =
      timed (fun () -> Spectral.Lanczos.extremes ~steps:12 (rng_of ("scale:lambda:" ^ label)) g)
    in
    row (prefix ^ label) dt;
    let open Spectral.Lanczos in
    Printf.printf
      "    (theta_2 = %+.4f ± %.1e, theta_min = %+.4f ± %.1e after %d Lanczos steps)\n%!"
      e.lambda_2 e.bound_2 e.lambda_min e.bound_min e.steps;
    if not (Float.is_finite e.bound_2 && Float.is_finite e.bound_min) then
      bad_bounds := (label ^ ": bound not finite") :: !bad_bounds;
    e
  in
  ignore (lanczos12 "scale/lanczos12-bigarray-" blabel gb);
  rss_note ();
  let d_imp = if smoke then 14 else 24 in
  let ilabel = Printf.sprintf "hypercube-d%d" d_imp in
  let (gi, dti) =
    timed (fun () -> Graph.View.of_implicit (Graph.Implicit.hypercube d_imp))
  in
  row ("scale/implicit-gen-" ^ ilabel) dti;
  cover_rows ~prefix:"scale/implicit-cover-" ilabel gi ("scale:big:cover:" ^ ilabel);
  (* The hypercube's nontrivial walk eigenvalues are 1 - 2k/d, k = 1..d:
     each Ritz value must have one within its bound (plus 1e-12 for
     rounding). *)
  let ext_i = lanczos12 "scale/lanczos12-implicit-" ilabel gi in
  let near_eigenvalue theta b =
    List.exists
      (fun k ->
        let mu = 1.0 -. (2.0 *. float_of_int k /. float_of_int d_imp) in
        Float.abs (theta -. mu) <= b +. 1e-12)
      (List.init d_imp (fun k -> k + 1))
  in
  List.iter
    (fun (name, theta, b) ->
      if not (near_eigenvalue theta b) then
        bad_bounds :=
          Printf.sprintf "%s: %s = %f has no eigenvalue 1 - 2k/d within %.1e" ilabel name theta b
          :: !bad_bounds)
    Spectral.Lanczos.
      [
        ("theta_2", ext_i.lambda_2, ext_i.bound_2);
        ("theta_min", ext_i.lambda_min, ext_i.bound_min);
      ];
  rss_note ();
  (match peak_rss_kib () with
  | Some kib -> Printf.printf "peak RSS: %.1f MiB\n" (float_of_int kib /. 1024.0)
  | None -> print_endline "peak RSS: unavailable (no /proc)");
  Option.iter (fun path -> emit_json path (List.rev !rows)) json_path;
  if !bad_bounds <> [] then begin
    List.iter (fun f -> Printf.printf "SCALE GATE FAILED: %s\n" f) (List.rev !bad_bounds);
    exit 1
  end

(* --- Part 5: bit-sliced lane engine rows. --------------------------- *)

(* One 64-trial batch per engine: exactly the workload a sweep cell with
   trials=64 runs, so the scalar side is the historical per-trial loop
   and the lanes side is one bit-sliced batch. Both draw from the same
   derived trial streams; the gate is on wall-clock, not on agreement
   (the conformance and sweep suites own correctness). *)
let run_lanes ~smoke ~json_path =
  let sizes =
    if smoke then [ (1_024, 10) ] else [ (1_024, 10); (16_384, 14); (131_072, 17) ]
  in
  let trials = 64 in
  let min_speedup = if smoke then 2.0 else 8.0 in
  let gate_n = if smoke then 1_024 else 16_384 in
  let rows = ref [] and failures = ref [] in
  let base = Cobra.Kernel.default_params in
  let kernels =
    [
      ("bips", Cobra.Kernel.bips, base);
      ( "sis",
        Epidemic.Kernels.sis,
        (* Persistent source: saturation, not extinction, ends a trial,
           so every lane runs the full epidemic. *)
        { base with Cobra.Kernel.recovery = 0.25; persistent = true } );
    ]
  in
  Printf.printf "== Lane engine: 64-trial batches, scalar vs bit-sliced (%s) ==\n%!"
    (if smoke then "smoke: n = 2^10" else "n = 2^10, 2^14, 2^17");
  List.iter
    (fun (n, d) ->
      let graphs =
        [
          ( Printf.sprintf "rr4-n%d" n,
            Graph.View.of_csr
              (Graph.Gen.random_regular
                 (rng_of (Printf.sprintf "lanes:rr4-n%d" n))
                 ~n ~r:4) );
          ( Printf.sprintf "hypercube-d%d" d,
            Graph.View.of_csr (Graph.Gen.hypercube d) );
        ]
      in
      List.iter
        (fun (glabel, g) ->
          List.iter
            (fun (kname, kernel, params) ->
              let label = Printf.sprintf "%s-%s" kname glabel in
              let salt0 = Simkit.Seeds.salt_of_tag ("lanes:" ^ label) in
              let time engine =
                let _, dt =
                  timed (fun () ->
                      Sweep.Kernels.run_trials ~engine kernel g params ~trials
                        ~master ~salt0)
                in
                dt
              in
              let t_scalar = time `Scalar in
              let t_lanes = time `Lanes in
              let speedup = t_scalar /. t_lanes in
              Printf.printf
                "  %-28s scalar %8.3f s   lanes %8.3f s   speedup %6.2fx\n%!"
                label t_scalar t_lanes speedup;
              rows :=
                (Printf.sprintf "lanes/%s-lanes64" label, t_lanes *. 1e9)
                :: (Printf.sprintf "lanes/%s-scalar64" label, t_scalar *. 1e9)
                :: !rows;
              (* The acceptance floor is pinned on the expander rows:
                 hypercubes are reported but not gated (their structure
                 is a scaling reference, not the paper's regime). *)
              if n = gate_n && String.length glabel >= 3 && String.sub glabel 0 3 = "rr4"
                 && speedup < min_speedup
              then
                failures :=
                  Printf.sprintf "%s: speedup %.2fx below the %.0fx floor" label
                    speedup min_speedup
                  :: !failures)
            kernels)
        graphs)
    sizes;
  Option.iter (fun path -> emit_json path (List.rev !rows)) json_path;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.printf "LANES GATE FAILED: %s\n" f) fs;
    exit 1

(* Wall-clock of the same trial batch, sequential vs the domain pool, with
   the determinism guarantee checked on the spot. *)
let parallel_engine_check () =
  let domains = Simkit.Pool.default_domains () in
  Printf.printf "\n== Parallel trial engine (COBRA_DOMAINS=%d) ==\n" domains;
  let trials = 24 in
  let measure rng =
    match K.completion_time K.cobra expander_4k K.default_params rng with
    | Some t -> t
    | None -> -1
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq =
    time (fun () -> Simkit.Trial.collect ~domains:1 ~trials ~master ~salt0:0 measure)
  in
  let par, t_par =
    time (fun () -> Simkit.Trial.collect ~trials ~master ~salt0:0 measure)
  in
  Printf.printf
    "E1-style batch (cover, n=4096, %d trials): sequential %.3f s, parallel %.3f s \
     (speedup %.2fx), results %s\n"
    trials t_seq t_par (t_seq /. t_par)
    (if seq = par then "IDENTICAL" else "DIFFER (BUG!)");
  if seq <> par then exit 1

let () =
  Printf.printf "COBRA/BIPS reproduction benchmark harness (master seed %d)\n" master;
  let argv = Array.to_list Sys.argv in
  let kernels_only = List.mem "--kernels-only" argv in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  if List.mem "scale" argv then begin
    run_scale ~smoke:(List.mem "--smoke" argv) ~json_path;
    exit 0
  end;
  if List.mem "lanes" argv then begin
    run_lanes ~smoke:(List.mem "--smoke" argv) ~json_path;
    exit 0
  end;
  let rows = run_benchmarks () in
  Option.iter (fun path -> emit_json path rows) json_path;
  parallel_engine_check ();
  if not kernels_only then begin
    let scale = Simkit.Scale.of_env ~default:Simkit.Scale.Quick () in
    Printf.printf
      "\n== Experiment tables (scale: %s; set COBRA_SCALE=standard|full for the \
       EXPERIMENTS.md versions) ==\n"
      (Simkit.Scale.to_string scale);
    Experiments.Registry.run_all ~scale ~master
  end
