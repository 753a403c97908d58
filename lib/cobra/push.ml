type outcome = { rounds : int; transmissions : int }

let check g v =
  if v < 0 || v >= Graph.View.n_vertices g then invalid_arg "Push: vertex out of range"

let flood g ~start =
  check g start;
  let n = Graph.View.n_vertices g in
  let dist = Graph.View.bfs g start in
  let rounds = Array.fold_left Stdlib.max 0 dist in
  if Array.exists (fun d -> d < 0) dist then
    invalid_arg "Push.flood: graph is disconnected";
  (* Every informed vertex sends to all neighbours each round until the
     last round; vertex u is informed from round dist(u) on. *)
  let transmissions = ref 0 in
  for u = 0 to n - 1 do
    let active_rounds = rounds - dist.(u) in
    if active_rounds > 0 then
      transmissions := !transmissions + (active_rounds * Graph.View.degree g u)
  done;
  { rounds; transmissions = !transmissions }
