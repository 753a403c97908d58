module Bitset = Dstruct.Bitset
module Intvec = Dstruct.Intvec

type t = {
  graph : Graph.View.t;
  branching : Branching.t;
  mutable frontier : Intvec.t; (* members of C_t, no duplicates *)
  mutable next : Intvec.t; (* scratch for C_{t+1} *)
  mutable in_frontier : Bitset.t; (* membership for [frontier]: O(1) [active] *)
  mutable in_next : Bitset.t; (* membership for [next]; swapped with [in_frontier] *)
  visited : Bitset.t;
  mutable visited_count : int;
  mutable round : int;
  mutable transmissions : int;
}

let check_start g start =
  if start = [] then invalid_arg "Process: empty start set";
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.View.n_vertices g then
        invalid_arg "Process: start vertex out of range")
    start

let load_start p start =
  check_start p.graph start;
  Intvec.clear p.frontier;
  Intvec.clear p.next;
  Bitset.clear p.in_frontier;
  Bitset.clear p.in_next;
  Bitset.clear p.visited;
  p.visited_count <- 0;
  p.round <- 0;
  p.transmissions <- 0;
  List.iter
    (fun v ->
      if not (Bitset.mem p.visited v) then begin
        Bitset.add p.visited v;
        p.visited_count <- p.visited_count + 1;
        Bitset.add p.in_frontier v;
        Intvec.push p.frontier v
      end)
    start

let create g ~branching ~start =
  let n = Graph.View.n_vertices g in
  if n = 0 then invalid_arg "Process.create: empty graph";
  let p =
    {
      graph = g;
      branching;
      frontier = Intvec.create ~capacity:64 ();
      next = Intvec.create ~capacity:64 ();
      in_frontier = Bitset.create n;
      in_next = Bitset.create n;
      visited = Bitset.create n;
      visited_count = 0;
      round = 0;
      transmissions = 0;
    }
  in
  load_start p start;
  p

let reset p ~start = load_start p start

let graph p = p.graph
let branching p = p.branching
let round p = p.round
let frontier_size p = Intvec.length p.frontier
let frontier p = Intvec.to_array p.frontier
(* O(1): [in_frontier] mirrors [frontier] at all times (the bitsets are
   swapped along with the vectors at the end of each round). *)
let active p v =
  (* Out-of-range vertices are simply not members, as before. *)
  v >= 0 && v < Graph.View.n_vertices p.graph && Bitset.unsafe_mem p.in_frontier v

let visited p v = Bitset.mem p.visited v
let visited_count p = p.visited_count
let is_covered p = p.visited_count = Graph.View.n_vertices p.graph
let transmissions p = p.transmissions

let step p rng =
  let g = p.graph in
  (* [w] comes from the adjacency array, so it is in range by
     construction: the unchecked bitset operations are safe. *)
  let push_pick w =
    if not (Bitset.unsafe_mem p.in_next w) then begin
      Bitset.unsafe_add p.in_next w;
      Intvec.push p.next w;
      if not (Bitset.unsafe_mem p.visited w) then begin
        Bitset.unsafe_add p.visited w;
        p.visited_count <- p.visited_count + 1
      end
    end
  in
  Intvec.iter
    (fun v ->
      let picks = Branching.iter_picks p.branching rng g v ~f:push_pick in
      p.transmissions <- p.transmissions + picks)
    p.frontier;
  (* Clear the outgoing frontier's membership bits: member-wise while the
     frontier is sparse, whole-array fill once it holds more members than
     words (past that point the word fill writes less memory). Both paths
     leave the bitset empty and draw nothing from [rng]. Then swap both
     the vectors and their membership bitsets, keeping [active] O(1). *)
  let nw = (Graph.View.n_vertices g + Bitset.word_size - 1) / Bitset.word_size in
  if Intvec.length p.frontier <= nw then
    Intvec.iter (fun v -> Bitset.unsafe_remove p.in_frontier v) p.frontier
  else Bitset.clear p.in_frontier;
  let old = p.frontier in
  p.frontier <- p.next;
  p.next <- old;
  Intvec.clear p.next;
  let old_bits = p.in_frontier in
  p.in_frontier <- p.in_next;
  p.in_next <- old_bits;
  p.round <- p.round + 1

let default_cap g = 10_000 + (100 * Graph.View.n_vertices g)

let hitting_time ?cap g ~branching ~start ~target rng =
  let cap = match cap with Some c -> c | None -> default_cap g in
  let p = create g ~branching ~start:[ start ] in
  let rec go () =
    if visited p target then Some p.round
    else if p.round >= cap then None
    else begin
      step p rng;
      go ()
    end
  in
  go ()

let first_visit_times ?cap g ~branching ~start rng =
  let cap = match cap with Some c -> c | None -> default_cap g in
  let n = Graph.View.n_vertices g in
  let p = create g ~branching ~start:[ start ] in
  let first = Array.make n (-1) in
  first.(start) <- 0;
  while (not (is_covered p)) && p.round < cap do
    step p rng;
    Intvec.iter (fun v -> if first.(v) < 0 then first.(v) <- p.round) p.frontier
  done;
  first
