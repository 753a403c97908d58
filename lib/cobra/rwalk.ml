let check g v =
  if v < 0 || v >= Graph.View.n_vertices g then invalid_arg "Rwalk: vertex out of range"

let default_cap g =
  let n = Graph.View.n_vertices g in
  (100 * n * n) + 10_000

(* The walk positions stay in range by construction ([start] is checked
   on entry, every later position is an adjacency entry), so the loops
   below use the unchecked neighbour accessor. *)

let hitting_time ?cap g ~start ~target rng =
  check g start;
  check g target;
  let cap = match cap with Some c -> c | None -> default_cap g in
  let rec go pos steps =
    if pos = target then Some steps
    else if steps >= cap then None
    else go (Graph.View.unsafe_random_neighbour g rng pos) (steps + 1)
  in
  go start 0

let positions ?(steps = 1000) g ~start rng =
  check g start;
  if steps < 0 then invalid_arg "Rwalk.positions: steps >= 0";
  let out = Array.make (steps + 1) start in
  for i = 1 to steps do
    out.(i) <- Graph.View.unsafe_random_neighbour g rng out.(i - 1)
  done;
  out
