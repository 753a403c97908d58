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
  let snapshot = Bitset.copy p.infectious in
  let newly_exposed = ref [] in
  for v = 0 to n - 1 do
    match p.status.(v) with
    | Recovered -> ()
    | Infectious ->
      p.timer.(v) <- p.timer.(v) - 1;
      if p.timer.(v) = 0 then begin
        p.status.(v) <- Recovered;
        Bitset.remove p.infectious v;
        p.infectious_count <- p.infectious_count - 1
      end
    | Exposed ->
      p.timer.(v) <- p.timer.(v) - 1;
      if p.timer.(v) = 0 then begin
        p.status.(v) <- Infectious;
        p.timer.(v) <- p.params.infectious_rounds;
        p.exposed_count <- p.exposed_count - 1;
        Bitset.add p.infectious v;
        p.infectious_count <- p.infectious_count + 1
      end
    | Susceptible ->
      (* Attribute the infection to the earliest-generation infectious
         contact drawn this round. *)
      let src = ref max_int in
      let check w =
        if Bitset.mem snapshot w && p.gen.(w) < !src then src := p.gen.(w)
      in
      ignore (Cobra.Branching.iter_picks p.params.contacts rng g v ~f:check);
      if !src < max_int then newly_exposed := (v, !src + 1) :: !newly_exposed
  done;
  List.iter (fun (v, gen) -> expose p v gen) !newly_exposed;
  if p.infectious_count > p.peak_infectious then
    p.peak_infectious <- p.infectious_count;
  p.round <- p.round + 1
