module Bitset = Dstruct.Bitset

type params = { contacts : Cobra.Branching.t; recovery : float }

type t = {
  graph : Graph.View.t;
  params : params;
  persistent : int option;
  mutable infected : Bitset.t;
  mutable next : Bitset.t;
  ever : Bitset.t;
  mutable infected_count : int;
  mutable ever_count : int;
  mutable round : int;
}

let validate g params ~persistent ~start =
  let n = Graph.View.n_vertices g in
  if n = 0 then invalid_arg "Sis.create: empty graph";
  if params.recovery < 0.0 || params.recovery > 1.0 then
    invalid_arg "Sis.create: recovery outside [0, 1]";
  let check v = if v < 0 || v >= n then invalid_arg "Sis: vertex out of range" in
  List.iter check start;
  Option.iter check persistent;
  if start = [] && persistent = None then invalid_arg "Sis.create: nobody infected"

let create g params ~persistent ~start =
  validate g params ~persistent ~start;
  let n = Graph.View.n_vertices g in
  let infected = Bitset.create n and ever = Bitset.create n in
  let seed_list = match persistent with Some v -> v :: start | None -> start in
  List.iter
    (fun v ->
      Bitset.add infected v;
      Bitset.add ever v)
    seed_list;
  let count = Bitset.cardinal infected in
  {
    graph = g;
    params;
    persistent;
    infected;
    next = Bitset.create n;
    ever;
    infected_count = count;
    ever_count = count;
    round = 0;
  }

let round p = p.round
let infected p v = Bitset.mem p.infected v
let infected_count p = p.infected_count
let ever_infected_count p = p.ever_count
let is_extinct p = p.infected_count = 0

let step p rng =
  let g = p.graph in
  let n = Graph.View.n_vertices g in
  Bitset.clear p.next;
  let count = ref 0 in
  (* All indices below are loop counters in [0, n) or adjacency entries,
     so the unchecked bitset operations are safe. *)
  let infect u =
    Bitset.unsafe_add p.next u;
    incr count;
    if not (Bitset.unsafe_mem p.ever u) then begin
      Bitset.unsafe_add p.ever u;
      p.ever_count <- p.ever_count + 1
    end
  in
  let pers = match p.persistent with Some v -> v | None -> -1 in
  (* Round order: recovery first, then exposure of everyone currently
     susceptible (including same-round recoverers) against the *previous*
     infected set. With [recovery = 1.0] and a persistent source this is
     exactly the BIPS process — the embedding the tests check. *)
  for u = 0 to n - 1 do
    if pers = u then infect u
    else begin
      let stays =
        Bitset.unsafe_mem p.infected u
        && not (Prng.Rng.bernoulli rng p.params.recovery)
      in
      if stays then infect u
      else begin
        let hit = ref false in
        let check w = if Bitset.unsafe_mem p.infected w then hit := true in
        ignore (Cobra.Branching.iter_picks p.params.contacts rng g u ~f:check);
        if !hit then infect u
      end
    end
  done;
  let old = p.infected in
  p.infected <- p.next;
  p.next <- old;
  p.infected_count <- !count;
  p.round <- p.round + 1
