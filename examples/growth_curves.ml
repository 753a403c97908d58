(* Growth curves: watch the proof happen.

   One COBRA run and one BIPS run on the same expander, rendered as
   terminal sparklines. The BIPS curve shows the three phases the proof
   of Theorem 2 formalises (Lemmas 2-4): a slow burn while |A| is small,
   clean exponential growth through the bulk, and a coupon-collector
   endgame; the COBRA frontier curve shows the doubling launch and the
   ~0.8n equilibrium occupancy of the coalescing frontier.

   Run with: dune exec examples/growth_curves.exe *)

let n = 16_384
let r = 4

module K = Cobra.Kernel

(* k = 2 from vertex 0: the COBRA start and the BIPS source. *)
let params = { K.default_params with K.branching = Cobra.Branching.cobra_k2; start = 0 }

let () =
  let rng = Prng.Rng.create 77 in
  let g = Graph.View.of_csr (Graph.Gen.random_regular rng ~n ~r) in
  let gap = Spectral.Gap.estimate rng g in
  Format.printf "graph: %a, %a@.@." Graph.View.pp g Spectral.Gap.pp gap;

  let trajectory kernel ~key = Array.map int_of_float (K.trajectory kernel g params rng ~key) in
  let frontier = trajectory K.cobra ~key:"frontier" in
  Format.printf "COBRA frontier |C_t|, %d rounds to cover:@." (Array.length frontier - 1);
  Format.printf "  %s@." (Stats.Sparkline.render_ints frontier);
  let peak = Array.fold_left max 0 frontier in
  Format.printf "  range %s; equilibrium occupancy %.2fn (theory: 1 - e^-2 ~ 0.86 of@."
    (Stats.Sparkline.scale_line ~lo:1.0 ~hi:(Float.of_int peak))
    (Float.of_int peak /. Float.of_int n);
  Format.printf "  reachable mass under double uniform pushes)@.@.";

  let infected = trajectory K.bips ~key:"infected" in
  Format.printf "BIPS infected |A_t|, %d rounds to saturation:@."
    (Array.length infected - 1);
  Format.printf "  %s@." (Stats.Sparkline.render_ints infected);
  (* Locate the proof's phase boundaries on this trajectory. *)
  let first_at threshold =
    let t = ref 0 in
    (try
       Array.iteri
         (fun i s ->
           if s >= threshold then begin
             t := i;
             raise Exit
           end)
         infected
     with Exit -> ());
    !t
  in
  let t1 = first_at (n / 10) and t2 = first_at (9 * n / 10) in
  Format.printf
    "  phases: 1 -> n/10 in %d rounds (Lemma 2) | n/10 -> 9n/10 in %d (Lemma 3) | \
     endgame %d (Lemma 4)@."
    t1 (t2 - t1)
    (Array.length infected - 1 - t2);
  Format.printf
    "@.The log-scale view of the middle phase is a straight line — the@.\
     per-round growth factor Lemma 1 bounds from below:@.";
  let log_infected = Array.map (fun s -> log (Float.of_int s)) infected in
  Format.printf "  %s@." (Stats.Sparkline.render log_infected)
