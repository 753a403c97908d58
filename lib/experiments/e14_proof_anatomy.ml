module Scale = Simkit.Scale
module A = Simkit.Artifact
module K = Cobra.Kernel

(* The proof of Theorem 2 splits a BIPS run into three phases:
   - Lemma 2 (small sets): |A| grows from 1 to m within
     13m/(1-λ) + 24C·log n/(1-λ)² rounds w.h.p.;
   - Lemma 3 (middle): from K log n/(1-λ)² to 9n/10 within
     23 log n/(1-λ) rounds, by per-(23/(1-λ))-round doubling;
   - Lemma 4 (endgame): from 9n/10 to n within 8 log n/(1-λ) rounds.
   We time the corresponding segments of live trajectories and compare
   each against its lemma's explicit bound. The middle and endgame bounds
   have concrete constants with no slack parameters, so the comparison is
   sharp: every trial must finish inside them (they hold w.h.p. with
   failure probability n^-4, far below our trial counts). *)
let run ~emit ~scale ~master =
  let n = Scale.pick scale ~quick:1024 ~standard:8192 ~full:65536 in
  let r = 4 in
  let trials = Scale.pick scale ~quick:20 ~standard:60 ~full:150 in
  let g = Common.expander ~master ~tag:"e14" ~n ~r () in
  let gap_t =
    Spectral.Gap.estimate (Simkit.Seeds.tagged_rng ~master ~tag:"e14:spec") g
  in
  let gap = gap_t.Spectral.Gap.gap in
  let ln_n = Common.ln n in
  emit
    (A.context
       [
         ("graph", Printf.sprintf "random %d-regular, n=%d" r n);
         ("lambda", Printf.sprintf "%.4f (gap %.4f)" gap_t.Spectral.Gap.lambda gap);
         ("trials", string_of_int trials);
         ("branching", "k=2");
       ]);
  let thresh_small = n / 10 and thresh_big = 9 * n / 10 in
  let p1 = Stats.Summary.create () in
  let p2 = Stats.Summary.create () in
  let p3 = Stats.Summary.create () in
  let params = { K.default_params with K.branching = Cobra.Branching.cobra_k2; start = 0 } in
  let phases rng =
    let sizes = K.trajectory K.bips g params rng ~key:"infected" in
    let first_at threshold =
      let t = ref (-1) in
      (try
         Array.iteri
           (fun i s ->
             if s >= Float.of_int threshold then begin
               t := i;
               raise Exit
             end)
           sizes
       with Exit -> ());
      !t
    in
    let t_small = first_at thresh_small in
    let t_big = first_at thresh_big in
    let t_full = Array.length sizes - 1 in
    if t_small < 0 || t_big < 0 then
      failwith "E14: trajectory never reached its thresholds";
    (t_small, t_big - t_small, t_full - t_big)
  in
  Simkit.Trial.collect ~trials ~master ~salt0:(Common.salt_of ~tag:"e14") phases
  |> Array.iter (fun (d1, d2, d3) ->
         Stats.Summary.add_int p1 d1;
         Stats.Summary.add_int p2 d2;
         Stats.Summary.add_int p3 d3);
  (* Lemma 2's bound for m = n/10 (C = 3 matches the paper's n^-3
     failure-probability target). *)
  let lemma2_bound =
    (13.0 *. Float.of_int thresh_small /. gap) +. (72.0 *. ln_n /. (gap ** 2.0))
  in
  let lemma3_bound = 23.0 *. ln_n /. gap in
  let lemma4_bound = 8.0 *. ln_n /. gap in
  let table =
    A.Tab.create
      [ "phase"; "range of |A|"; "rounds (mean ± ci95)"; "max"; "lemma bound"; "max/bound" ]
  in
  let row name range s bound =
    A.Tab.add_row table
      [
        A.str name;
        A.str range;
        A.summary s;
        A.float (Stats.Summary.max s);
        A.float bound;
        A.floatf "%.4f" (Stats.Summary.max s /. bound);
      ]
  in
  row "Lemma 2 (small sets)" (Printf.sprintf "1 -> n/10 (%d)" thresh_small) p1 lemma2_bound;
  row "Lemma 3 (growth)" (Printf.sprintf "n/10 -> 9n/10 (%d)" thresh_big) p2 lemma3_bound;
  row "Lemma 4 (endgame)" "9n/10 -> n" p3 lemma4_bound;
  emit (A.Tab.event table);
  let ok =
    Stats.Summary.max p1 <= lemma2_bound
    && Stats.Summary.max p2 <= lemma3_bound
    && Stats.Summary.max p3 <= lemma4_bound
  in
  emit
    (A.verdict ~pass:ok
       "every trial finishes each phase within its lemma's explicit w.h.p. bound")

let spec =
  {
    Spec.id = "E14";
    slug = "proof-anatomy";
    title = "The three BIPS growth phases vs Lemmas 2-4's explicit bounds";
    claim =
      "Lemmas 2-4: BIPS grows from 1 to m in 13m/(1-lambda) + \
       24C log n/(1-lambda)^2 rounds, doubles every 23/(1-lambda) rounds \
       up to 9n/10, and finishes within 8 log n/(1-lambda) more rounds, \
       each w.h.p.";
    run;
  }
