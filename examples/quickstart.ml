(* Quickstart: the five-minute tour of the library.

   Build an expander, check its spectral gap, run the COBRA process to
   cover, run the dual BIPS epidemic to saturation, and verify on a small
   graph that the two processes really are duals (Theorem 4).

   Run with: dune exec examples/quickstart.exe *)

let () =
  let rng = Prng.Rng.create 2016 in

  (* 1. A random 3-regular graph on 10'000 vertices: an expander w.h.p. *)
  let gc = Graph.Gen.random_regular rng ~n:10_000 ~r:3 in
  let g = Graph.View.of_csr gc in
  Format.printf "graph: %a, connected: %b@." Graph.View.pp g (Graph.Algo.is_connected gc);

  (* 2. Its spectral gap, and what Theorem 1 predicts from it. *)
  let gap = Spectral.Gap.estimate rng g in
  Format.printf "spectrum: %a@." Spectral.Gap.pp gap;
  Format.printf "Theorem 1 scale, log n / gap^3: %.0f rounds (the hidden constant is small)@."
    (Spectral.Gap.theorem1_bound ~n:10_000 gap);

  (* 3. COBRA with branching factor 2: how many rounds to visit everyone?
     Every process is a Cobra.Kernel, run to completion (here: cover) or
     its round cap; [start] is the start vertex. *)
  let branching = Cobra.Branching.cobra_k2 in
  let params = { Cobra.Kernel.default_params with branching; start = 0 } in
  (match Cobra.Kernel.completion_time Cobra.Kernel.cobra g params rng with
  | Some rounds ->
    Format.printf "COBRA covered all %d vertices in %d rounds (log2 n = %.1f)@."
      10_000 rounds (log (10_000.0) /. log 2.0)
  | None -> Format.printf "COBRA hit the round cap — should not happen here@.");

  (* 4. The dual epidemic: the persistently infected source ([start])
     infects all. *)
  (match Cobra.Kernel.completion_time Cobra.Kernel.bips g params rng with
  | Some rounds -> Format.printf "BIPS infected the whole graph in %d rounds@." rounds
  | None -> Format.printf "BIPS hit the round cap — should not happen here@.");

  (* 5. Theorem 4, exactly: on the Petersen graph, the probability that
     COBRA from u has not hit v by round t equals the probability that
     the BIPS epidemic sourced at v has not infected u at round t. *)
  let petersen = Graph.Gen.petersen () in
  let survival =
    Cobra.Exact.cobra_hit_survival petersen ~branching ~start:[ 0 ] ~target:7 ~t_max:5
  in
  let absent = Cobra.Exact.bips_avoid petersen ~branching ~source:7 ~avoid:[ 0 ] ~t_max:5 in
  Format.printf "@.Petersen graph, u=0, v=7 (exact distributions):@.";
  Format.printf " t | P(Hit_u(v) > t) | P(u not in A_t) @.";
  Array.iteri
    (fun t s -> Format.printf "%2d |      %.8f |      %.8f@." t s absent.(t))
    survival
