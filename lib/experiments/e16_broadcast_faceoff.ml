module Scale = Simkit.Scale
module A = Simkit.Artifact
module K = Cobra.Kernel

(* Four single-source broadcast models, one kernel API: push and
   push-pull (Karp et al.; Fountoulakis–Panagiotou), pull alone, and
   COBRA at k = 2 (rounds until the active set has covered V). Running
   all four through Cobra.Kernel keeps the trial seeding identical to
   the sweep subsystem's, so the face-off numbers here are reproducible
   cell-for-cell with `cobra_cli sweep`. *)
let protocols =
  [
    ("push", K.push, K.default_params);
    ("pull", K.pull, K.default_params);
    ("push-pull", K.push_pull, K.default_params);
    ("COBRA k=2", K.cobra, K.default_params);
  ]

(* [collect_censored], not [summarize_int]: a protocol whose every trial
   was capped must still come back as a (censored) row. *)
let rounds_summary kernel g params ~trials ~master ~tag =
  let s = Stats.Summary.create () in
  let { Simkit.Trial.values; censored } =
    Simkit.Trial.collect_censored ~trials ~master ~salt0:(Common.salt_of ~tag)
      (K.completion_time kernel g params)
  in
  Array.iter (Stats.Summary.add_int s) values;
  (s, censored)

let run_graph ~emit ~name g ~trials ~master ~tag =
  let n = Graph.View.n_vertices g in
  emit (A.section (Printf.sprintf "%s (n=%d)" name n));
  let table = A.Tab.create [ "protocol"; "rounds"; "rounds / log2 n" ] in
  let log2n = Common.ln n /. Float.log 2.0 in
  let means =
    List.map
      (fun (label, kernel, params) ->
        let s, censored =
          rounds_summary kernel g params ~trials ~master
            ~tag:(Printf.sprintf "%s:%s" tag label)
        in
        let m = Stats.Summary.mean s in
        A.Tab.add_row table
          [ A.str label; A.summary s; A.floatf "%.2f" (m /. log2n) ];
        (label, m, censored))
      protocols
  in
  emit (A.Tab.event table);
  means

let run ~emit ~scale ~master =
  let n_rr = Scale.pick scale ~quick:256 ~standard:1024 ~full:4096 in
  let dim = Scale.pick scale ~quick:8 ~standard:10 ~full:12 in
  let trials = Scale.pick scale ~quick:10 ~standard:25 ~full:60 in
  emit (A.context [ ("trials", string_of_int trials) ]);
  (* Sequenced lets: a list literal would emit the sections in
     right-to-left evaluation order. *)
  let rr =
    run_graph ~emit ~name:"random 4-regular"
      (Common.expander ~master ~tag:"e16" ~n:n_rr ~r:4 ())
      ~trials ~master ~tag:"e16:rr"
  in
  let q =
    run_graph ~emit
      ~name:(Printf.sprintf "hypercube Q%d" dim)
      (Graph.View.of_csr (Graph.Gen.hypercube dim))
      ~trials ~master ~tag:"e16:q"
  in
  let faceoff = [ rr; q ] in
  (* Acceptance: every protocol informs the whole graph in every trial,
     and the hybrid is a genuine hybrid — mean push-pull rounds never
     exceed the better of its two halves by more than one round. *)
  let none_censored =
    List.for_all (List.for_all (fun (_, _, c) -> c = 0)) faceoff
  in
  let mean_of label rows =
    let _, m, _ = List.find (fun (l, _, _) -> l = label) rows in
    m
  in
  let hybrid_wins =
    List.for_all
      (fun rows ->
        mean_of "push-pull" rows
        <= Float.min (mean_of "push" rows) (mean_of "pull" rows) +. 1.0)
      faceoff
  in
  emit
    (A.verdict
       ~pass:(none_censored && hybrid_wins)
       (Printf.sprintf
          "all four protocols covered every trial%s; push-pull within one \
           round of min(push, pull) on both graphs%s"
          (if none_censored then "" else " FAILED: some trials censored")
          (if hybrid_wins then "" else " FAILED: hybrid slower")))

let spec =
  {
    Spec.id = "E16";
    slug = "broadcast-faceoff";
    title = "Broadcast model face-off: push vs pull vs push-pull vs COBRA";
    claim =
      "Related-work positioning: on bounded-degree expanders all four \
       broadcast models cover in O(log n) rounds; the push-pull hybrid \
       dominates either half alone, and COBRA k=2 keeps pace while \
       bounding per-vertex transmissions.";
    run;
  }
