module Bitset = Dstruct.Bitset

type status = Susceptible | Exposed | Infectious | Recovered

type params = {
  contacts : Cobra.Branching.t;
  latent_rounds : int;
  infectious_rounds : int;
}

(* Per-vertex state: status plus a countdown for the timed states, plus
   the infection generation for R estimation. *)
type t = {
  graph : Graph.View.t;
  params : params;
  status : status array;
  timer : int array; (* rounds remaining in Exposed/Infectious *)
  gen : int array; (* infection generation; -1 while never infected *)
  infectious : Bitset.t; (* status = Infectious, kept in sync *)
  snapshot : Bitset.t; (* [infectious] at the start of the current round *)
  picks : int array; (* one vertex's picks, [Branching.picks_into]'s buffer *)
  exposures : Dstruct.Intvec.t; (* this round's (vertex, generation) pairs *)
  mutable infectious_count : int;
  mutable exposed_count : int;
  mutable ever_count : int;
  mutable peak_infectious : int;
  mutable gen_sizes : int array; (* gen_sizes.(g) = |generation g| *)
  mutable max_gen : int;
  mutable round : int;
}

let create g params ~index_cases =
  let n = Graph.View.n_vertices g in
  if n = 0 then invalid_arg "Seir.create: empty graph";
  if params.latent_rounds < 0 then invalid_arg "Seir.create: latent_rounds >= 0";
  if params.infectious_rounds < 1 then
    invalid_arg "Seir.create: infectious_rounds >= 1";
  if index_cases = [] then invalid_arg "Seir.create: nobody infected";
  List.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Seir: vertex out of range")
    index_cases;
  let p =
    {
      graph = g;
      params;
      status = Array.make n Susceptible;
      timer = Array.make n 0;
      gen = Array.make n (-1);
      infectious = Bitset.create n;
      snapshot = Bitset.create n;
      picks = Cobra.Branching.picks_buffer params.contacts g;
      exposures = Dstruct.Intvec.create ();
      infectious_count = 0;
      exposed_count = 0;
      ever_count = 0;
      peak_infectious = 0;
      gen_sizes = Array.make 8 0;
      max_gen = 0;
      round = 0;
    }
  in
  (* Index cases start infectious with a full timer: generation 0. *)
  List.iter
    (fun v ->
      if p.status.(v) = Susceptible then begin
        p.status.(v) <- Infectious;
        p.timer.(v) <- params.infectious_rounds;
        p.gen.(v) <- 0;
        Bitset.add p.infectious v;
        p.infectious_count <- p.infectious_count + 1;
        p.ever_count <- p.ever_count + 1;
        p.gen_sizes.(0) <- p.gen_sizes.(0) + 1
      end)
    index_cases;
  p.peak_infectious <- p.infectious_count;
  p

let round p = p.round
let status p v = p.status.(v)
let infectious_count p = p.infectious_count
let exposed_count p = p.exposed_count
let ever_infected_count p = p.ever_count
let peak_infectious p = p.peak_infectious
let is_absorbed p = p.infectious_count = 0 && p.exposed_count = 0

let record_gen p g =
  if g >= Array.length p.gen_sizes then begin
    let bigger = Array.make (2 * (g + 1)) 0 in
    Array.blit p.gen_sizes 0 bigger 0 (Array.length p.gen_sizes);
    p.gen_sizes <- bigger
  end;
  p.gen_sizes.(g) <- p.gen_sizes.(g) + 1;
  if g > p.max_gen then p.max_gen <- g

(* Mean of the successive generation-size ratios |gen g+1| / |gen g|:
   a finite-population estimate of the reproduction number R. Non-empty
   generations are prefix-contiguous (generation g+1 needs an infectious
   generation-g vertex), so the ratios are well defined; 0.0 when the
   seeds infected nobody. *)
let generational_r p =
  if p.max_gen = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for g = 0 to p.max_gen - 1 do
      acc :=
        !acc +. (float_of_int p.gen_sizes.(g + 1) /. float_of_int p.gen_sizes.(g))
    done;
    !acc /. float_of_int p.max_gen
  end

let expose p v gen =
  p.gen.(v) <- gen;
  p.ever_count <- p.ever_count + 1;
  record_gen p gen;
  if p.params.latent_rounds > 0 then begin
    p.status.(v) <- Exposed;
    p.timer.(v) <- p.params.latent_rounds;
    p.exposed_count <- p.exposed_count + 1
  end
  else begin
    (* Zero latency: newly infected vertices are immediately infectious
       (for rounds after this one — they are not in this round's
       snapshot). *)
    p.status.(v) <- Infectious;
    p.timer.(v) <- p.params.infectious_rounds;
    Bitset.add p.infectious v;
    p.infectious_count <- p.infectious_count + 1
  end

let step p rng =
  let g = p.graph in
  let n = Graph.View.n_vertices g in
  (* Exposure is evaluated against the infectious set at the start of
     the round (synchronous update, matching the SIS/herd round
     structure): timers advance first per vertex, susceptibles draw
     against the snapshot in increasing vertex order, and new exposures
     apply after the scan. *)
  Bitset.blit ~src:p.infectious ~dst:p.snapshot;
  let exposures = p.exposures in
  Dstruct.Intvec.clear exposures;
  (* [v] scans [0 .. n-1] and every pick comes from the adjacency
     arrays, so the unchecked reads are in range by construction. One
     [Branching.picks_into] call per susceptible vertex, no call per
     pick. *)
  let status = p.status and timer = p.timer and gen = p.gen in
  let snapshot = p.snapshot and picks = p.picks in
  for v = 0 to n - 1 do
    match Array.unsafe_get status v with
    | Recovered -> ()
    | Infectious ->
      let t = Array.unsafe_get timer v - 1 in
      Array.unsafe_set timer v t;
      if t = 0 then begin
        Array.unsafe_set status v Recovered;
        Bitset.unsafe_remove p.infectious v;
        p.infectious_count <- p.infectious_count - 1
      end
    | Exposed ->
      let t = Array.unsafe_get timer v - 1 in
      Array.unsafe_set timer v t;
      if t = 0 then begin
        Array.unsafe_set status v Infectious;
        Array.unsafe_set timer v p.params.infectious_rounds;
        p.exposed_count <- p.exposed_count - 1;
        Bitset.unsafe_add p.infectious v;
        p.infectious_count <- p.infectious_count + 1
      end
    | Susceptible ->
      (* Attribute the infection to the earliest-generation infectious
         contact drawn this round. *)
      let c = Cobra.Branching.picks_into p.params.contacts rng g v picks in
      let src = ref max_int in
      for j = 0 to c - 1 do
        let w = Array.unsafe_get picks j in
        if Bitset.unsafe_mem snapshot w then begin
          let gw = Array.unsafe_get gen w in
          if gw < !src then src := gw
        end
      done;
      if !src < max_int then begin
        Dstruct.Intvec.push exposures v;
        Dstruct.Intvec.push exposures (!src + 1)
      end
  done;
  (* Exposures commute (each sets its own vertex's state and adds to
     counters), so they apply in scan order. *)
  for i = 0 to (Dstruct.Intvec.length exposures / 2) - 1 do
    expose p (Dstruct.Intvec.unsafe_get exposures (2 * i))
      (Dstruct.Intvec.unsafe_get exposures ((2 * i) + 1))
  done;
  if p.infectious_count > p.peak_infectious then
    p.peak_infectious <- p.infectious_count;
  p.round <- p.round + 1
