type t = Splitmix.t

let create = Splitmix.create
let split = Splitmix.split
let copy = Splitmix.copy
let int = Splitmix.int
let float = Splitmix.float
let bool = Splitmix.bool
let bits = Splitmix.bits62

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + Splitmix.int t (hi - lo + 1)

let float_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  lo +. (Splitmix.float t *. (hi -. lo))

let bernoulli = Splitmix.bernoulli
