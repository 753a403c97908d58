module Bitset = Dstruct.Bitset

type status = Susceptible | Transient | Immune | Persistent

type params = {
  contacts : Cobra.Branching.t;
  infectious_rounds : int;
  immune_rounds : int;
}

(* Per-animal state: status plus a countdown for the timed states. *)
type t = {
  graph : Graph.View.t;
  params : params;
  status : status array;
  timer : int array; (* rounds remaining in Transient/Immune *)
  infectious : Bitset.t; (* Transient or Persistent, kept in sync *)
  snapshot : Bitset.t; (* [infectious] at the start of the current round *)
  ever : Bitset.t;
  picks : int array; (* one animal's contacts, [Branching.picks_into]'s buffer *)
  mutable ever_count : int;
  mutable infectious_count : int;
  mutable round : int;
}

let create g params ~pi ~index_cases =
  let n = Graph.View.n_vertices g in
  if n = 0 then invalid_arg "Herd.create: empty graph";
  if params.infectious_rounds < 1 then invalid_arg "Herd.create: infectious_rounds >= 1";
  if params.immune_rounds < 0 then invalid_arg "Herd.create: immune_rounds >= 0";
  if pi = [] && index_cases = [] then invalid_arg "Herd.create: nobody infected";
  let check v = if v < 0 || v >= n then invalid_arg "Herd: animal out of range" in
  List.iter check pi;
  List.iter check index_cases;
  let h =
    {
      graph = g;
      params;
      status = Array.make n Susceptible;
      timer = Array.make n 0;
      infectious = Bitset.create n;
      snapshot = Bitset.create n;
      ever = Bitset.create n;
      picks = Cobra.Branching.picks_buffer params.contacts g;
      ever_count = 0;
      infectious_count = 0;
      round = 0;
    }
  in
  let expose v =
    if not (Bitset.mem h.ever v) then begin
      Bitset.add h.ever v;
      h.ever_count <- h.ever_count + 1
    end
  in
  List.iter
    (fun v ->
      if h.status.(v) = Susceptible then begin
        h.status.(v) <- Persistent;
        Bitset.add h.infectious v;
        h.infectious_count <- h.infectious_count + 1;
        expose v
      end)
    pi;
  List.iter
    (fun v ->
      if h.status.(v) = Susceptible then begin
        h.status.(v) <- Transient;
        h.timer.(v) <- params.infectious_rounds;
        Bitset.add h.infectious v;
        h.infectious_count <- h.infectious_count + 1;
        expose v
      end)
    index_cases;
  h

let round h = h.round
let status h v = h.status.(v)

let count h s =
  let c = ref 0 in
  Array.iter (fun x -> if x = s then incr c) h.status;
  !c

let infectious_count h = h.infectious_count
let ever_exposed_count h = h.ever_count
let is_extinct h = h.infectious_count = 0

let step h rng =
  let g = h.graph in
  let n = Graph.View.n_vertices g in
  (* Exposure is evaluated against the infectious set at the start of the
     round (synchronous update, matching the BIPS round structure). A new
     infection is applied in place: exposure reads only the snapshot, and
     no later vertex reads this one's status. *)
  Bitset.blit ~src:h.infectious ~dst:h.snapshot;
  for v = 0 to n - 1 do
    match h.status.(v) with
    | Persistent -> ()
    | Transient ->
      h.timer.(v) <- h.timer.(v) - 1;
      if h.timer.(v) = 0 then begin
        Bitset.remove h.infectious v;
        h.infectious_count <- h.infectious_count - 1;
        if h.params.immune_rounds > 0 then begin
          h.status.(v) <- Immune;
          h.timer.(v) <- h.params.immune_rounds
        end
        else h.status.(v) <- Susceptible
      end
    | Immune ->
      h.timer.(v) <- h.timer.(v) - 1;
      if h.timer.(v) = 0 then h.status.(v) <- Susceptible
    | Susceptible ->
      let c = Cobra.Branching.picks_into h.params.contacts rng g v h.picks in
      let hit = ref false in
      for j = 0 to c - 1 do
        if Bitset.mem h.snapshot h.picks.(j) then hit := true
      done;
      if !hit then begin
        h.status.(v) <- Transient;
        h.timer.(v) <- h.params.infectious_rounds;
        Bitset.add h.infectious v;
        h.infectious_count <- h.infectious_count + 1;
        if not (Bitset.mem h.ever v) then begin
          Bitset.add h.ever v;
          h.ever_count <- h.ever_count + 1
        end
      end
  done;
  h.round <- h.round + 1
