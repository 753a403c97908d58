module Scale = Simkit.Scale
module A = Simkit.Artifact
module K = Cobra.Kernel

(* The SEIR kernel on heavy-tailed contact graphs: one preferential
   attachment family at fixed n and m = 2, with the uniform-attachment
   probability sweeping the degree tail from heavy hubs (p = 0) to the
   uniform-attachment regime (p = 1). Each tail reports the epidemic
   headlines — attack rate, peak infectious load, generational R — from
   the same latent-2/infectious-2 process seeded at vertex 0. *)

let ps = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let run ~emit ~scale ~master =
  let n = Scale.pick scale ~quick:256 ~standard:1024 ~full:4096 in
  let trials = Scale.pick scale ~quick:10 ~standard:25 ~full:60 in
  let params =
    { K.default_params with K.branching = Cobra.Branching.cobra_k2; start = 0;
      latent_rounds = 2; infectious_rounds = 2 }
  in
  emit
    (A.context
       [
         ("n", string_of_int n); ("trials", string_of_int trials);
         ("contacts", "k=2"); ("latent", "2"); ("infectious", "2");
       ]);
  let table =
    A.Tab.create
      [
        "prob_unbiased"; "max deg"; "attack rate"; "peak load / n"; "gen R";
        "rounds";
      ]
  in
  let rows =
    List.map
      (fun p ->
        let g =
          Graph.View.of_csr
            (Graph.Gen.barabasi_albert
               (Common.graph_rng ~master ~tag:(Printf.sprintf "e18:ba:%g" p))
               ~n ~m:2 ~prob_unbiased:p)
        in
        let attack = Stats.Summary.create ()
        and peak = Stats.Summary.create ()
        and gen_r = Stats.Summary.create ()
        and rounds = Stats.Summary.create () in
        let { Simkit.Trial.values; censored } =
          Simkit.Trial.collect_censored ~trials ~master
            ~salt0:(Common.salt_of ~tag:(Printf.sprintf "e18:seir:%g" p))
            (fun rng ->
              let o = K.run Epidemic.Kernels.seir g params rng in
              if o.K.completed then Some o else None)
        in
        Array.iter
          (fun o ->
            let obs key =
              match K.observation o key with
              | Some v -> v
              | None -> 0.0
            in
            Stats.Summary.add attack (obs "attack");
            Stats.Summary.add peak (obs "peak" /. float_of_int n);
            Stats.Summary.add gen_r (obs "gen_r");
            Stats.Summary.add_int rounds o.K.rounds)
          values;
        A.Tab.add_row table
          [
            A.floatf "%.2f" p;
            A.int (Graph.View.max_degree g);
            A.summary attack;
            A.summary peak;
            A.summary gen_r;
            A.summary rounds;
          ];
        (p, attack, gen_r, censored))
      ps
  in
  emit (A.Tab.event table);
  emit
    (A.note
       "p = 0 is pure preferential attachment (heavy hubs); p = 1 attaches \
        uniformly. Two contact picks per susceptible per round keep the \
        epidemic supercritical across the whole tail sweep.");
  (* Acceptance: the process always absorbs (no censoring — absorption
     is deterministic within n * (latent + infectious) rounds, so a
     censored trial is a kernel bug), the epidemic is supercritical on
     every tail (mean attack rate above one half), and the growth phase
     is visible in the generational R (mean above 1). *)
  let none_censored = List.for_all (fun (_, _, _, c) -> c = 0) rows in
  let supercritical =
    List.for_all (fun (_, a, _, _) -> Stats.Summary.mean a > 0.5) rows
  in
  let growth =
    List.for_all (fun (_, _, r, _) -> Stats.Summary.mean r > 1.0) rows
  in
  emit
    (A.verdict
       ~pass:(none_censored && supercritical && growth)
       (Printf.sprintf
          "SEIR absorbed in every trial%s; mean attack rate above 1/2 on \
           every degree tail%s; mean generational R above 1%s"
          (if none_censored then "" else " FAILED: censored trials")
          (if supercritical then "" else " FAILED: subcritical attack rate")
          (if growth then "" else " FAILED: no generational growth")))

let spec =
  {
    Spec.id = "E18";
    slug = "seir-attack";
    title = "SEIR attack rate, peak load and generational R across degree tails";
    claim =
      "On preferential-attachment contact graphs the discrete SEIR process \
       with two contact picks per round is supercritical across the whole \
       uniform-vs-preferential attachment sweep: attack rates stay \
       macroscopic, the peak infectious load and generational R shift \
       with the degree tail, and the fixed latency only stretches the \
       timeline, never the outcome.";
    run;
  }
