(* Broadcast race: the scenario from the paper's introduction.

   A rumour must reach every node of a sparse peer-to-peer overlay. We
   race four protocols on the same random 3-regular network and account
   both for latency (rounds) and bandwidth (total transmissions):

   - COBRA k=2: informed nodes push to 2 random neighbours, then go
     quiet until pushed to again;
   - push: every informed node pushes to 1 random neighbour every round;
   - push-pull: every node contacts 1 random neighbour, rumours cross
     the contact both ways;
   - simple random walk: a single token wanders (COBRA with k=1);
   - flooding: everyone repeats the rumour to all neighbours (the
     latency optimum and bandwidth worst case).

   Run with: dune exec examples/broadcast_race.exe *)

let n = 50_000
let trials = 5

let mean xs = Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

let () =
  let rng = Prng.Rng.create 7 in
  let g = Graph.View.of_csr (Graph.Gen.random_regular rng ~n ~r:3) in
  Format.printf "network: %a@.@." Graph.View.pp g;
  let table = Stats.Table.create [ "protocol"; "rounds"; "transmissions"; "tx/node" ] in
  let row name rounds tx =
    Stats.Table.add_row table
      [
        name;
        Printf.sprintf "%.1f" rounds;
        Printf.sprintf "%.3g" tx;
        Printf.sprintf "%.2f" (tx /. Float.of_int n);
      ]
  in

  (* COBRA k=2, push and push-pull, each run to full information from
     node 0 (the kernel defaults) *)
  let run_protocol kernel =
    let rounds = Array.make trials 0.0 and tx = Array.make trials 0.0 in
    for i = 0 to trials - 1 do
      let o = Cobra.Kernel.run kernel g Cobra.Kernel.default_params rng in
      assert o.completed;
      rounds.(i) <- Float.of_int o.rounds;
      tx.(i) <- Option.get (Cobra.Kernel.observation o "transmissions")
    done;
    (mean rounds, mean tx)
  in
  let cr, ct = run_protocol Cobra.Kernel.cobra in
  row "COBRA k=2" cr ct;
  let pr, pt = run_protocol Cobra.Kernel.push in
  row "push" pr pt;
  let qr, qt = run_protocol Cobra.Kernel.push_pull in
  row "push-pull" qr qt;

  (* single random walk — the k = 1 degenerate case; steps = transmissions *)
  (match Cobra.Kernel.(completion_time rwalk g default_params rng) with
  | Some steps -> row "random walk (k=1)" (Float.of_int steps) (Float.of_int steps)
  | None -> row "random walk (k=1)" Float.nan Float.nan);

  (* flooding *)
  let flood = Cobra.Push.flood g ~start:0 in
  row "flooding"
    (Float.of_int flood.Cobra.Push.rounds)
    (Float.of_int flood.Cobra.Push.transmissions);

  Stats.Table.print table;
  Format.printf
    "@.COBRA matches the randomized-broadcast latency class while every@.\
     node sends at most 2 messages per round and only while active;@.\
     the walk is ~1000x slower; flooding pays maximal bandwidth.@."
