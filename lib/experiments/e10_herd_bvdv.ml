module Scale = Simkit.Scale
module A = Simkit.Artifact
module B = Cobra.Branching
module K = Cobra.Kernel

(* Herd structure: pens of animals in dense contact (cliques) arranged in
   a ring with one shared fence-line contact between neighbouring pens —
   Graph.Gen.ring_of_cliques. Disease parameters loosely follow the BVDV
   literature's shape: short transient infectiousness, longer immunity.
   The index animal is vertex 0, a PI animal when [persistent]. *)
let params =
  { K.default_params with K.branching = B.cobra_k2; infectious_rounds = 2; immune_rounds = 8 }

let run ~emit ~scale ~master =
  let pens, pen_size =
    Scale.pick scale ~quick:(6, 8) ~standard:(10, 12) ~full:(20, 20)
  in
  let trials = Scale.pick scale ~quick:30 ~standard:100 ~full:60 in
  let g = Graph.View.of_csr (Graph.Gen.ring_of_cliques ~cliques:pens ~clique_size:pen_size) in
  let n = Graph.View.n_vertices g in
  emit
    (A.context
       [
         ("herd", Printf.sprintf "%d pens x %d animals (n=%d)" pens pen_size n);
         ("infectious_rounds", string_of_int params.K.infectious_rounds);
         ("immune_rounds", string_of_int params.K.immune_rounds);
         ("trials", string_of_int trials);
       ]);
  let run_config ~tag ~persistent =
    let full = Stats.Summary.create () in
    let extinct = Stats.Summary.create () in
    let full_count = ref 0 and extinct_count = ref 0 and censored = ref 0 in
    Simkit.Trial.collect ~trials ~master ~salt0:(Common.salt_of ~tag)
      (K.run Epidemic.Kernels.herd g { params with K.persistent })
    |> Array.iter (fun o ->
           if not o.K.completed then incr censored
           else if K.observation o "ever" = Some (float_of_int n) then begin
             incr full_count;
             Stats.Summary.add_int full o.K.rounds
           end
           else begin
             incr extinct_count;
             Stats.Summary.add_int extinct o.K.rounds
           end);
    (full, !full_count, extinct, !extinct_count, !censored)
  in
  let table =
    A.Tab.create
      [ "configuration"; "full exposure"; "mean rounds"; "extinct"; "mean rounds";
        "censored" ]
  in
  let cell s count = if count = 0 then A.str "-" else A.summary s in
  let fp, fpc, ep, epc, cp = run_config ~tag:"e10:pi" ~persistent:true in
  A.Tab.add_row table
    [
      A.str "1 PI animal";
      A.str (Printf.sprintf "%d/%d" fpc trials);
      cell fp fpc;
      A.str (Printf.sprintf "%d/%d" epc trials);
      cell ep epc;
      A.int cp;
    ];
  let ft, ftc, et, etc_, ct = run_config ~tag:"e10:ti" ~persistent:false in
  A.Tab.add_row table
    [
      A.str "1 transient case";
      A.str (Printf.sprintf "%d/%d" ftc trials);
      cell ft ftc;
      A.str (Printf.sprintf "%d/%d" etc_ trials);
      cell et etc_;
      A.int ct;
    ];
  emit (A.Tab.event table);
  (* BIPS abstraction on the same herd graph, for the structural analogy
     the paper draws: the persistent source makes full infection certain. *)
  let bips, _ =
    Common.infection_summary g ~branching:B.cobra_k2 ~source:0 ~trials ~master
      ~tag:"e10:bips"
  in
  emit
    (A.notef
       "\nBIPS on the same herd graph (pure abstraction): %s rounds to full infection"
       (A.summary_to_string (A.of_summary bips)));
  let pi_always_full = fpc = trials in
  let ti_sometimes_dies = etc_ > 0 in
  emit
    (A.verdict
       ~pass:(pi_always_full && ti_sometimes_dies)
       (Printf.sprintf
          "PI animal: %d/%d runs reach full exposure; transient index case \
           dies out in %d/%d runs"
          fpc trials etc_ trials))

let spec =
  {
    Spec.id = "E10";
    slug = "herd-bvdv";
    title = "BVDV-style herd epidemic with a persistently infected animal";
    claim =
      "Section 1 (ref [9]): a persistently infected individual introduced \
       into an infection-free herd eventually exposes the whole herd — \
       the phenomenon BIPS abstracts; without persistence the infection \
       can die out.";
    run;
  }
