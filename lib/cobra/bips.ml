module Bitset = Dstruct.Bitset

type t = {
  graph : Graph.View.t;
  branching : Branching.t;
  mutable source : int;
  mutable infected : Bitset.t; (* A_t *)
  mutable next : Bitset.t; (* A_{t+1} under construction *)
  picks : int array; (* one vertex's picks, [Branching.picks_into]'s buffer *)
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
    picks = Branching.picks_buffer branching g;
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
  (* [u] scans [0 .. n-1] and every pick comes from the adjacency
     arrays, so the unchecked [Bitset] reads and writes are in range by
     construction. One [Branching.picks_into] call per vertex; every
     pick is drawn, hit or not, as the draw count requires. *)
  let infected = p.infected and next = p.next and picks = p.picks in
  for u = 0 to n - 1 do
    let hit =
      u = p.source
      ||
      let c = Branching.picks_into p.branching rng g u picks in
      let hit = ref false in
      for j = 0 to c - 1 do
        if Bitset.unsafe_mem infected (Array.unsafe_get picks j) then hit := true
      done;
      !hit
    in
    if hit then begin
      Bitset.unsafe_add next u;
      incr count
    end
  done;
  let old = p.infected in
  p.infected <- p.next;
  p.next <- old;
  p.count <- !count;
  p.round <- p.round + 1
