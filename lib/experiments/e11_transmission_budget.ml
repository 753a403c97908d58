module Scale = Simkit.Scale
module A = Simkit.Artifact
module K = Cobra.Kernel

(* Protocol accounting: a COBRA vertex transmits at most k times per round
   and only while active; a push vertex transmits every round once
   informed; flooding transmits on every edge every round. Total
   transmissions until cover tell the cost story the paper's introduction
   motivates. Every protocol starts at vertex 0 (COBRA with k = 2). *)
let rounds_and_transmissions kernel g rng =
  let o = K.run kernel g K.default_params rng in
  if o.K.completed then
    Some (o.K.rounds, int_of_float (Option.get (K.observation o "transmissions")))
  else None

let summarise_pairs ~trials ~master ~tag f =
  let rounds = Stats.Summary.create () and tx = Stats.Summary.create () in
  let censored = ref 0 in
  for i = 0 to trials - 1 do
    let rng = Simkit.Seeds.trial_rng ~master ~salt:(Common.salt_of ~tag + i) in
    match f rng with
    | Some (r, t) ->
      Stats.Summary.add_int rounds r;
      Stats.Summary.add_int tx t
    | None -> incr censored
  done;
  (rounds, tx, !censored)

let run_graph ~emit ~name g ~trials ~master ~tag =
  emit (A.section (Printf.sprintf "%s (n=%d)" name (Graph.View.n_vertices g)));
  let table =
    A.Tab.create [ "protocol"; "rounds"; "transmissions"; "tx / n" ]
  in
  let n = Float.of_int (Graph.View.n_vertices g) in
  let add_protocol label rounds tx =
    A.Tab.add_row table
      [
        A.str label;
        A.summary rounds;
        A.float (Stats.Summary.mean tx);
        A.floatf "%.2f" (Stats.Summary.mean tx /. n);
      ]
  in
  let protocol kernel ~tag =
    summarise_pairs ~trials ~master ~tag (rounds_and_transmissions kernel g)
  in
  let c_rounds, c_tx, _ = protocol K.cobra ~tag:(tag ^ ":cobra") in
  add_protocol "COBRA k=2" c_rounds c_tx;
  let p_rounds, p_tx, _ = protocol K.push ~tag:(tag ^ ":push") in
  add_protocol "push" p_rounds p_tx;
  let pp_rounds, pp_tx, _ = protocol K.push_pull ~tag:(tag ^ ":pushpull") in
  add_protocol "push-pull" pp_rounds pp_tx;
  let flood = Cobra.Push.flood g ~start:0 in
  A.Tab.add_row table
    [
      A.str "flooding";
      A.int flood.Cobra.Push.rounds;
      A.int flood.Cobra.Push.transmissions;
      A.floatf "%.2f" (Float.of_int flood.Cobra.Push.transmissions /. n);
    ];
  emit (A.Tab.event table);
  ( Stats.Summary.mean c_rounds, Stats.Summary.mean c_tx,
    Stats.Summary.mean p_rounds, Stats.Summary.mean p_tx )

let run ~emit ~scale ~master =
  let n_complete = Scale.pick scale ~quick:256 ~standard:1024 ~full:8192 in
  let n_sparse = Scale.pick scale ~quick:1024 ~standard:4096 ~full:32768 in
  let trials = Scale.pick scale ~quick:10 ~standard:25 ~full:60 in
  emit (A.context [ ("trials", string_of_int trials) ]);
  let cr1, ct1, pr1, pt1 =
    run_graph ~emit ~name:"complete graph" (Graph.View.of_csr (Graph.Gen.complete n_complete)) ~trials
      ~master ~tag:"e11:k"
  in
  let cr2, ct2, pr2, pt2 =
    run_graph ~emit ~name:"random 3-regular"
      (Common.expander ~master ~tag:"e11" ~n:n_sparse ~r:3 ())
      ~trials ~master ~tag:"e11:r"
  in
  (* Acceptance: COBRA matches push's round count up to a small factor
     and its total transmissions stay within a small factor too — while,
     by construction, no vertex ever transmits more than k = 2 times per
     round and inactive vertices transmit nothing (push keeps every
     informed vertex transmitting every round). *)
  let ok =
    cr1 < 4.0 *. pr1 && cr2 < 4.0 *. pr2 && ct1 < 3.0 *. pt1 && ct2 < 3.0 *. pt2
  in
  emit
    (A.verdict ~pass:ok
       (Printf.sprintf
          "COBRA rounds within 4x of push (%.0f vs %.0f; %.0f vs %.0f), total \
           transmissions within 3x (%.0f vs %.0f; %.0f vs %.0f), per-vertex \
           per-round budget <= 2 by construction"
          cr1 pr1 cr2 pr2 ct1 pt1 ct2 pt2))

let spec =
  {
    Spec.id = "E11";
    slug = "transmission-budget";
    title = "Rounds vs total transmissions: COBRA against push/flooding";
    claim =
      "Section 1: COBRA propagates fast while limiting transmissions per \
       vertex per round — unlike push, informed vertices stop \
       transmitting until reactivated.";
    run;
  }
