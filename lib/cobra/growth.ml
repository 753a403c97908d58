module Bitset = Dstruct.Bitset
module Intvec = Dstruct.Intvec

let expected_next_size g ~branching ~source ~infected =
  let n = Graph.View.n_vertices g in
  if Bitset.capacity infected <> n then invalid_arg "Growth: set/graph size mismatch";
  if not (Bitset.mem infected source) then
    invalid_arg "Growth.expected_next_size: infected must contain the source";
  let acc = ref 1.0 in
  for u = 0 to n - 1 do
    if u <> source then begin
      let deg = Graph.View.degree g u in
      let hits =
        Graph.View.fold_neighbours g u ~init:0 ~f:(fun c w ->
            if Bitset.mem infected w then c + 1 else c)
      in
      acc :=
        !acc
        +. Branching.infection_probability_counts branching ~degree:deg
             ~infected:hits
    end
  done;
  !acc

let growth_coefficient = function
  (* Distinct k >= 2 dominates Fixed k >= 2 pointwise (sampling without
     replacement can only increase the chance of touching the infected
     set), so Lemma 1's coefficient applies to it as well. *)
  | Branching.Fixed k | Branching.Distinct k -> if k >= 2 then 1.0 else 0.0
  | Branching.One_plus rho -> rho

let lemma1_bound ~n ~lambda ~branching ~a =
  if a < 1 || a > n then invalid_arg "Growth.lemma1_bound: a in [1, n]";
  let c = growth_coefficient branching in
  let fa = Float.of_int a and fn = Float.of_int n in
  fa *. (1.0 +. (c *. (1.0 -. (lambda *. lambda)) *. (1.0 -. (fa /. fn))))

let transition_samples ?cap g ~branching ~source ~trials rng =
  if trials < 1 then invalid_arg "Growth.transition_samples: trials >= 1";
  let froms = Intvec.create () and tos = Intvec.create () in
  let params = { Kernel.default_params with Kernel.branching; start = source; cap } in
  for _ = 1 to trials do
    let sizes = Kernel.trajectory Kernel.bips g params rng ~key:"infected" in
    for t = 0 to Array.length sizes - 2 do
      Intvec.push froms (int_of_float sizes.(t));
      Intvec.push tos (int_of_float sizes.(t + 1))
    done
  done;
  let a = Intvec.to_array froms and b = Intvec.to_array tos in
  Array.init (Array.length a) (fun i -> (a.(i), b.(i)))

let random_infected_set rng g ~source ~size =
  let n = Graph.View.n_vertices g in
  if size < 1 || size > n then invalid_arg "Growth.random_infected_set: size in [1, n]";
  if source < 0 || source >= n then invalid_arg "Growth.random_infected_set: bad source";
  let set = Bitset.create n in
  Bitset.add set source;
  let remaining = ref (size - 1) in
  while !remaining > 0 do
    let v = Prng.Rng.int rng n in
    if not (Bitset.mem set v) then begin
      Bitset.add set v;
      decr remaining
    end
  done;
  set
