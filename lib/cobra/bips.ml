module Bitset = Dstruct.Bitset
module Intvec = Dstruct.Intvec

type t = {
  graph : Graph.View.t;
  branching : Branching.t;
  mutable source : int;
  mutable infected : Bitset.t; (* A_t *)
  mutable next : Bitset.t; (* A_{t+1} under construction *)
  mutable count : int;
  mutable round : int;
}

let check_source g v =
  if v < 0 || v >= Graph.View.n_vertices g then
    invalid_arg "Bips: source out of range"

let create g ~branching ~source =
  let n = Graph.View.n_vertices g in
  if n = 0 then invalid_arg "Bips.create: empty graph";
  check_source g source;
  let infected = Bitset.create n in
  Bitset.add infected source;
  {
    graph = g;
    branching;
    source;
    infected;
    next = Bitset.create n;
    count = 1;
    round = 0;
  }

let reset p ~source =
  check_source p.graph source;
  Bitset.clear p.infected;
  Bitset.clear p.next;
  Bitset.add p.infected source;
  p.source <- source;
  p.count <- 1;
  p.round <- 0

let graph p = p.graph
let branching p = p.branching
let source p = p.source
let round p = p.round
let infected p u = Bitset.mem p.infected u
let infected_count p = p.count
let infected_set p = Array.of_list (Bitset.to_list p.infected)
let is_saturated p = p.count = Graph.View.n_vertices p.graph

let step p rng =
  let g = p.graph in
  let n = Graph.View.n_vertices g in
  Bitset.clear p.next;
  let count = ref 0 in
  (* [u] scans [0 .. n-1] and [w] comes from the adjacency array, so the
     unchecked bitset operations are in range by construction. *)
  for u = 0 to n - 1 do
    if u = p.source then begin
      Bitset.unsafe_add p.next u;
      incr count
    end
    else begin
      let hit = ref false in
      let check w = if Bitset.unsafe_mem p.infected w then hit := true in
      ignore (Branching.iter_picks p.branching rng g u ~f:check);
      if !hit then begin
        Bitset.unsafe_add p.next u;
        incr count
      end
    end
  done;
  let old = p.infected in
  p.infected <- p.next;
  p.next <- old;
  p.count <- !count;
  p.round <- p.round + 1

let default_cap g = 10_000 + (100 * Graph.View.n_vertices g)

let size_trajectory ?cap g ~branching ~source rng =
  let cap = match cap with Some c -> c | None -> default_cap g in
  let p = create g ~branching ~source in
  let sizes = Intvec.create () in
  Intvec.push sizes p.count;
  while (not (is_saturated p)) && p.round < cap do
    step p rng;
    Intvec.push sizes p.count
  done;
  Intvec.to_array sizes
