(* Integration tests: whole-pipeline scenarios crossing library
   boundaries, i.e. the paper's statements exercised end-to-end at small
   scale. These are the `dune runtest` versions of experiments E1-E11. *)

module B = Cobra.Branching
module K = Cobra.Kernel
(* Cross-library flows consume Graph.View; of_csr is a free wrap. *)
module GenC = Graph.Gen

module Gen = struct
  let v = Graph.View.of_csr
  let complete n = v (GenC.complete n)
  let circulant n offs = v (GenC.circulant n offs)
  let ring_of_cliques ~cliques ~clique_size = v (GenC.ring_of_cliques ~cliques ~clique_size)
  let random_regular rng ~n ~r = v (GenC.random_regular rng ~n ~r)
end
module Rng = Prng.Rng

let check = Alcotest.check

(* COBRA cover and BIPS infection times through the kernels, from (or
   sourced at) vertex 0. *)
let cobra_cover ?(branching = B.cobra_k2) g rng =
  K.completion_time K.cobra g { K.default_params with K.branching } rng

let bips_infection g rng = K.completion_time K.bips g K.default_params rng

(* Theorem 1 end-to-end: generate an expander, estimate lambda, verify the
   premise, and check the measured cover time sits below the theoretical
   ceiling (with its hidden constant assumed >= 1) and above log2 n. *)
let test_theorem1_pipeline () =
  let rng = Rng.create 1 in
  let n = 1024 in
  let g = Gen.random_regular rng ~n ~r:4 in
  check Alcotest.bool "connected" true (Graph.Algo.is_connected (Graph.View.to_csr g));
  let gap = Spectral.Gap.estimate rng g in
  check Alcotest.bool "constant gap" true (gap.Spectral.Gap.gap > 0.1);
  let bound = Spectral.Gap.theorem1_bound ~n gap in
  let s = Stats.Summary.create () in
  for _ = 1 to 20 do
    match cobra_cover g rng with
    | Some t -> Stats.Summary.add_int s t
    | None -> Alcotest.fail "censored"
  done;
  let mean = Stats.Summary.mean s in
  check Alcotest.bool "above information bound log2 n" true (mean >= 10.0);
  check Alcotest.bool "below theoretical ceiling" true (mean <= bound)

(* Theorem 2 + duality end-to-end: infection time and cover time on the
   same graph have the same order. *)
let test_theorem2_matches_cover_order () =
  let rng = Rng.create 2 in
  let g = Gen.random_regular rng ~n:512 ~r:3 in
  let mean f =
    let s = Stats.Summary.create () in
    for _ = 1 to 20 do
      match f () with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  let cover = mean (fun () -> cobra_cover g rng) in
  let infec = mean (fun () -> bips_infection g rng) in
  let ratio = infec /. cover in
  if ratio < 0.4 || ratio > 2.5 then
    Alcotest.failf "cover %.1f vs infec %.1f: not the same order" cover infec

(* Theorem 3 end-to-end: fractional branching still covers in O(log n);
   doubling n adds ~log-factor, not a polynomial factor. *)
let test_theorem3_fractional () =
  let rng = Rng.create 3 in
  let branching = B.one_plus 0.3 in
  let mean g =
    let s = Stats.Summary.create () in
    for _ = 1 to 15 do
      match cobra_cover ~branching g rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  let c1 = mean (Gen.random_regular rng ~n:256 ~r:3) in
  let c2 = mean (Gen.random_regular rng ~n:1024 ~r:3) in
  (* 4x vertices: logarithmic growth means the ratio stays near
     ln 1024/ln 256 = 1.25, far from the polynomial ratio 4. *)
  check Alcotest.bool "log growth" true (c2 /. c1 < 2.0)

(* Theorem 4 end-to-end at statistical scale with Wilson intervals. *)
let test_theorem4_mc_with_cis () =
  let rng = Rng.create 4 in
  let g = Gen.random_regular rng ~n:300 ~r:3 in
  let trials = 8000 in
  let c = Cobra.Duality.compare_at ~trials g ~branching:B.cobra_k2 ~u:7 ~v:123 ~t:6 rng in
  let ci_c =
    Stats.Ci.proportion_ci ~successes:c.Cobra.Duality.cobra_surviving ~trials ()
  in
  let ci_b = Stats.Ci.proportion_ci ~successes:c.Cobra.Duality.bips_absent ~trials () in
  check Alcotest.bool "CIs overlap" true
    (ci_c.Stats.Ci.lo <= ci_b.Stats.Ci.hi && ci_b.Stats.Ci.lo <= ci_c.Stats.Ci.hi)

(* Degree independence at small scale: r = 3 and r = n-1 within 3x. *)
let test_degree_independence_small () =
  let rng = Rng.create 5 in
  let n = 512 in
  let mean g =
    let s = Stats.Summary.create () in
    for _ = 1 to 15 do
      match cobra_cover g rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  let sparse = mean (Gen.random_regular rng ~n ~r:3) in
  let dense = mean (Gen.complete n) in
  check Alcotest.bool "same ballpark" true (sparse /. dense < 3.5 && dense /. sparse < 3.5)

(* Lemma 1 end-to-end with a *numerically estimated* lambda: measured
   per-step growth off a live BIPS run beats the bound in every bucket
   with enough samples. *)
let test_lemma1_with_estimated_lambda () =
  let rng = Rng.create 6 in
  let g = Gen.random_regular rng ~n:400 ~r:4 in
  let lambda = (Spectral.Gap.estimate rng g).Spectral.Gap.lambda in
  let samples = Cobra.Growth.transition_samples g ~branching:B.cobra_k2 ~source:0 ~trials:40 rng in
  let viol = ref 0 and tested = ref 0 in
  (* Pool by exact |A|: compare the bucket mean against the bound. *)
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (a, a') ->
      let s =
        match Hashtbl.find_opt tbl a with
        | Some s -> s
        | None ->
          let s = Stats.Summary.create () in
          Hashtbl.replace tbl a s;
          s
      in
      Stats.Summary.add_int s a')
    samples;
  Hashtbl.iter
    (fun a s ->
      if Stats.Summary.count s >= 30 then begin
        incr tested;
        let bound = Cobra.Growth.lemma1_bound ~n:400 ~lambda ~branching:B.cobra_k2 ~a in
        if Stats.Summary.mean s +. (3.0 *. Stats.Summary.std_error s) < bound then incr viol
      end)
    tbl;
  check Alcotest.bool "tested some sizes" true (!tested > 0);
  check Alcotest.int "no violations" 0 !viol

(* The walk-vs-COBRA separation at small scale (E8). *)
let test_k1_vs_k2_separation () =
  let rng = Rng.create 7 in
  let g = Gen.random_regular rng ~n:256 ~r:3 in
  let walk =
    match K.completion_time K.rwalk g K.default_params rng with
    | Some t -> t
    | None -> Alcotest.fail "walk censored"
  in
  let cobra =
    match cobra_cover g rng with
    | Some t -> t
    | None -> Alcotest.fail "cobra censored"
  in
  check Alcotest.bool "at least 20x separation" true (walk > 20 * cobra)

(* Graph spec -> process pipeline, as the CLI drives it. *)
let test_spec_to_process_pipeline () =
  let rng = Rng.create 8 in
  match Graph.Spec.parse "torus:8x8" with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
    match Graph.Spec.build_view spec ~backend:`Heap rng with
    | Error e -> Alcotest.fail e
    | Ok g -> (
      match cobra_cover g rng with
      | Some t -> check Alcotest.bool "covers torus" true (t > 0 && t < 500)
      | None -> Alcotest.fail "censored"))

(* Herd + BIPS cross-library: the BIPS saturation time lower-bounds the
   herd's full-exposure time on the same graph (immunity only slows
   things down) — statistically, with generous slack. *)
let test_herd_slower_than_bips () =
  let rng = Rng.create 9 in
  let g = Gen.ring_of_cliques ~cliques:5 ~clique_size:8 in
  (* A PI animal at vertex 0, k = 2 contacts. *)
  let herd_params =
    { K.default_params with
      K.persistent = true; infectious_rounds = 2; immune_rounds = 6; cap = Some 100_000 }
  in
  let herd_mean =
    let s = Stats.Summary.create () in
    for _ = 1 to 15 do
      let o = K.run Epidemic.Kernels.herd g herd_params rng in
      if K.observation o "ever" = Some 40.0 then Stats.Summary.add_int s o.K.rounds
      else Alcotest.fail "herd unresolved"
    done;
    Stats.Summary.mean s
  in
  let bips_mean =
    let s = Stats.Summary.create () in
    for _ = 1 to 15 do
      match bips_infection g rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "bips censored"
    done;
    Stats.Summary.mean s
  in
  check Alcotest.bool "immunity slows exposure" true (herd_mean > bips_mean /. 2.0)

(* Three routes to lambda agree on a nontrivial graph: Lanczos from two
   independent random starts, each within its certified bound, and the
   actual TV-mixing decay of the walk. *)
let test_three_lambdas_agree () =
  let rng = Rng.create 11 in
  let g = Gen.random_regular rng ~n:600 ~r:6 in
  let a = Spectral.Gap.estimate (Rng.split rng) g in
  let b = Spectral.Gap.estimate (Rng.split rng) g in
  let decay = Spectral.Mixing.empirical_decay_rate (Graph.View.to_csr g) ~steps:60 ~start:0 in
  let open Spectral.Gap in
  if Float.abs (a.lambda -. b.lambda) > a.bound +. b.bound +. 1e-12 then
    Alcotest.failf "lanczos %f ± %g vs %f ± %g" a.lambda a.bound b.lambda b.bound;
  (* The TV decay is asymptotically lambda; finite-t effects leave a
     little slack. *)
  if Float.abs (a.lambda -. decay) > 0.03 then
    Alcotest.failf "spectral %f vs mixing decay %f" a.lambda decay

(* The contact process embeds the same persistent-source dichotomy as the
   herd model: at supercritical rate with a source, both reach everyone;
   without, both can die. *)
let test_contact_vs_bips_qualitative () =
  let rng = Rng.create 12 in
  let g = Gen.random_regular rng ~n:300 ~r:4 in
  (* persistent + supercritical: always full exposure *)
  for _ = 1 to 5 do
    let r =
      Epidemic.Contact.run ~horizon:500.0 g ~infection_rate:1.0 ~persistent:(Some 0)
        ~start:[] rng
    in
    match r.Epidemic.Contact.outcome with
    | Epidemic.Contact.Fully_exposed _ -> ()
    | _ -> Alcotest.fail "supercritical persistent contact must fully expose"
  done;
  (* BIPS on the same graph: same outcome, always *)
  match bips_infection g rng with
  | Some _ -> ()
  | None -> Alcotest.fail "BIPS censored"

(* Spectral premise check: the E6 circulant family's closed-form lambda
   lies within the numerical estimate's bound across the sweep. *)
let test_circulant_family_spectra () =
  let rng = Rng.create 10 in
  List.iter
    (fun m ->
      let offsets = List.init m (fun i -> i + 1) in
      let g = Gen.circulant 129 offsets in
      let closed = Spectral.Closed_form.circulant 129 offsets in
      let numeric = Spectral.Gap.estimate (Rng.split rng) g in
      let open Spectral.Gap in
      if Float.abs (closed -. numeric.lambda) > numeric.bound +. 1e-12 then
        Alcotest.failf "m=%d: closed %f vs numeric %f ± %g" m closed numeric.lambda numeric.bound)
    [ 2; 4; 8 ]

let () =
  Alcotest.run "integration"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "Theorem 1 pipeline" `Quick test_theorem1_pipeline;
          Alcotest.test_case "Theorem 2 order match" `Quick test_theorem2_matches_cover_order;
          Alcotest.test_case "Theorem 3 fractional" `Quick test_theorem3_fractional;
          Alcotest.test_case "Theorem 4 Monte-Carlo" `Quick test_theorem4_mc_with_cis;
          Alcotest.test_case "degree independence" `Quick test_degree_independence_small;
          Alcotest.test_case "Lemma 1 with estimated lambda" `Quick test_lemma1_with_estimated_lambda;
          Alcotest.test_case "k=1 vs k=2 separation" `Quick test_k1_vs_k2_separation;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "spec to process" `Quick test_spec_to_process_pipeline;
          Alcotest.test_case "herd vs BIPS" `Quick test_herd_slower_than_bips;
          Alcotest.test_case "circulant spectra" `Quick test_circulant_family_spectra;
          Alcotest.test_case "three lambdas agree" `Quick test_three_lambdas_agree;
          Alcotest.test_case "contact vs BIPS dichotomy" `Quick test_contact_vs_bips_qualitative;
        ] );
    ]
