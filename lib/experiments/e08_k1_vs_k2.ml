module Scale = Simkit.Scale
module A = Simkit.Artifact

(* Three regimes on the same graphs: a single walk (COBRA with k = 1,
   Ω(n log n)); 16 *independent* walks (the multiple-random-walk model of
   Alon et al., the paper's reference [1] — speedup at most ~linear in
   the number of walkers); and COBRA k = 2, whose *branching* dependence
   reaches O(log n). *)
let walkers = 16

let run ~emit ~scale ~master =
  let ns =
    Scale.pick scale ~quick:[ 128; 256; 512 ] ~standard:[ 256; 512; 1024; 2048 ]
      ~full:[ 512; 1024; 2048; 4096; 8192 ]
  in
  let trials = Scale.pick scale ~quick:8 ~standard:20 ~full:50 in
  let r = 3 in
  emit
    (A.context
       [ ("r", string_of_int r); ("trials/n", string_of_int trials);
         ("independent walkers", string_of_int walkers) ]);
  let table =
    A.Tab.create
      [ "n"; "walk cover (k=1)"; "walk/(n ln n)"; "16 walks"; "COBRA cover (k=2)";
        "cobra/ln n"; "speedup" ]
  in
  let walk_ratios = ref [] and cobra_ratios = ref [] in
  List.iter
    (fun n ->
      let g = Common.expander ~master ~tag:"e08" ~n ~r () in
      let walk, _ =
        Common.walk_cover_summary g ~start:0 ~trials ~master
          ~tag:(Printf.sprintf "e08w:%d" n)
      in
      let multi, _ =
        Simkit.Trial.summarize_int ~trials ~master
          ~salt0:(Common.salt_of ~tag:(Printf.sprintf "e08m:%d" n))
          (Cobra.Kernel.completion_time Cobra.Kernel.rwalk g
             { Cobra.Kernel.default_params with walkers })
      in
      let cobra, _ =
        Common.cover_summary g ~branching:Cobra.Branching.cobra_k2 ~start:0 ~trials
          ~master ~tag:(Printf.sprintf "e08c:%d" n)
      in
      let mw = Stats.Summary.mean walk and mc = Stats.Summary.mean cobra in
      let wr = mw /. (Float.of_int n *. Common.ln n) in
      let cr = mc /. Common.ln n in
      walk_ratios := wr :: !walk_ratios;
      cobra_ratios := cr :: !cobra_ratios;
      A.Tab.add_row table
        [
          A.int n;
          A.summary walk;
          A.floatf "%.3f" wr;
          A.summary multi;
          A.summary cobra;
          A.floatf "%.3f" cr;
          A.str (Printf.sprintf "%.0fx" (mw /. mc));
        ])
    ns;
  emit (A.Tab.event table);
  (* Acceptance: both normalised columns are flat — the walk really is
     Θ(n log n) and COBRA really is Θ(log n). *)
  let flat values =
    let v = Array.of_list values in
    let lo = Array.fold_left Float.min infinity v in
    let hi = Array.fold_left Float.max neg_infinity v in
    hi /. lo < 2.0
  in
  emit
    (A.verdict
       ~pass:(flat !walk_ratios && flat !cobra_ratios)
       "walk/(n ln n) and cobra/ln n are both flat across the size sweep")

let spec =
  {
    Spec.id = "E8";
    slug = "k1-vs-k2";
    title = "k = 1 (random walk) vs many independent walks vs k = 2 (COBRA)";
    claim =
      "Section 1: k = 1 is a simple random walk with cover time \
       Omega(n log n); even many independent walks [1] only help \
       linearly; branching factor 2 collapses cover to O(log n) on \
       expanders.";
    run;
  }
