module Bitset = Dstruct.Bitset

type t = {
  g : Graph.View.t;
  walkers : int;
  mutable occupied : Bitset.t;
  mutable scratch : Bitset.t;
  mutable clusters : int;
  mutable round : int;
}

let create g ~walkers ~start =
  let n = Graph.View.n_vertices g in
  if walkers < 1 then invalid_arg "Coalesce.create: walkers >= 1";
  if walkers > n then invalid_arg "Coalesce.create: more walkers than vertices";
  if start < 0 || start >= n then invalid_arg "Coalesce.create: start out of range";
  let occupied = Bitset.create n in
  for i = 0 to walkers - 1 do
    Bitset.add occupied ((start + i) mod n)
  done;
  { g; walkers; occupied; scratch = Bitset.create n; clusters = walkers; round = 0 }

(* One round: every occupied vertex, in increasing order (Bitset.iter is
   the increasing word scan), moves its cluster along one uniform
   neighbour draw; clusters landing together merge by the set union. *)
let step t rng =
  Bitset.clear t.scratch;
  let c = ref 0 in
  Bitset.iter
    (fun u ->
      let w = Graph.View.unsafe_random_neighbour t.g rng u in
      if not (Bitset.unsafe_mem t.scratch w) then begin
        Bitset.unsafe_add t.scratch w;
        incr c
      end)
    t.occupied;
  let old = t.occupied in
  t.occupied <- t.scratch;
  t.scratch <- old;
  t.clusters <- !c;
  t.round <- t.round + 1

let clusters t = t.clusters
let mem t v = Bitset.mem t.occupied v
let walkers t = t.walkers
let merged t = t.walkers - t.clusters
let round t = t.round
let is_consensus t = t.clusters = 1
