module Bitset = Dstruct.Bitset

(* The visited-edge table is indexed by directed adjacency slots: slot
   [offsets.(u) + j] is the j-th neighbour of u in ascending adjacency
   order (a Graph.View contract on every backend).  Traversing the
   undirected edge {u,w} marks both its slots, so "unvisited incident
   edge" is a scan of u's slot range. *)
type t = {
  g : Graph.View.t;
  offsets : int array;
  visited_slots : Bitset.t;
  visited : Bitset.t;
  mutable position : int;
  mutable visited_count : int;
  mutable edges : int;
  mutable round : int;
}

let create g ~start =
  let n = Graph.View.n_vertices g in
  if start < 0 || start >= n then invalid_arg "Explore.create: start out of range";
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.View.degree g u
  done;
  let visited = Bitset.create n in
  Bitset.add visited start;
  {
    g;
    offsets;
    visited_slots = Bitset.create offsets.(n);
    visited;
    position = start;
    visited_count = 1;
    edges = 0;
    round = 0;
  }

(* Reverse slot of (u, j-th neighbour w): the index of u in w's ascending
   adjacency list. *)
let reverse_slot t w u =
  let d = Graph.View.degree t.g w in
  let rec find j =
    if j >= d then invalid_arg "Explore: adjacency is not symmetric"
    else if Graph.View.nth_neighbour t.g w j = u then j
    else find (j + 1)
  in
  t.offsets.(w) + find 0

let move_along t ~slot ~target =
  Bitset.add t.visited_slots slot;
  Bitset.add t.visited_slots (reverse_slot t target t.position);
  t.edges <- t.edges + 1;
  t.position <- target

let step t rng =
  let u = t.position in
  let base = t.offsets.(u) in
  let d = Graph.View.degree t.g u in
  let unvisited = ref 0 in
  for j = 0 to d - 1 do
    if not (Bitset.mem t.visited_slots (base + j)) then incr unvisited
  done;
  if !unvisited > 0 then begin
    (* Uniform among unvisited slots, in ascending adjacency order. *)
    let r = Prng.Rng.int rng !unvisited in
    let seen = ref 0 and chosen = ref (-1) in
    for j = 0 to d - 1 do
      if !chosen < 0 && not (Bitset.mem t.visited_slots (base + j)) then begin
        if !seen = r then chosen := j else incr seen
      end
    done;
    let j = !chosen in
    move_along t ~slot:(base + j) ~target:(Graph.View.nth_neighbour t.g u j)
  end
  else t.position <- Graph.View.random_neighbour t.g rng u;
  if not (Bitset.mem t.visited t.position) then begin
    Bitset.add t.visited t.position;
    t.visited_count <- t.visited_count + 1
  end;
  t.round <- t.round + 1

let position t = t.position
let visited_count t = t.visited_count
let edges_traversed t = t.edges
let round t = t.round
let is_covered t = t.visited_count = Graph.View.n_vertices t.g
