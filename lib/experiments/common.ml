let salt_of ~tag = Simkit.Seeds.salt_of_tag tag

let graph_rng ~master ~tag = Simkit.Seeds.tagged_rng ~master ~tag:("graph:" ^ tag)

let expander ?(backend = `Heap) ~master ~tag ~n ~r () =
  let rng = graph_rng ~master ~tag:(Printf.sprintf "%s:n=%d:r=%d" tag n r) in
  let g = Graph.Gen.random_regular rng ~n ~r in
  match (backend : Graph.View.backend) with
  | `Heap -> Graph.View.of_csr g
  | `Bigarray -> Graph.View.of_bigcsr (Graph.Bigcsr.of_csr g)
  | `Implicit ->
    invalid_arg "Common.expander: random regular graphs have no implicit form"

module K = Cobra.Kernel

(* [Trial] runs the trials on the domain pool, bit-for-bit identically at
   any COBRA_DOMAINS (each trial derives its own stream from [salt0 + i]
   and lands in slot [i]), so every experiment parallelises for free
   without changing a single reported number. *)
let cover_summary ?cap g ~branching ~start ~trials ~master ~tag =
  Simkit.Trial.summarize_int ~trials ~master ~salt0:(salt_of ~tag)
    (K.completion_time K.cobra g { K.default_params with K.branching; start; cap })

let infection_summary ?cap g ~branching ~source ~trials ~master ~tag =
  Simkit.Trial.summarize_int ~trials ~master ~salt0:(salt_of ~tag)
    (K.completion_time K.bips g
       { K.default_params with K.branching; start = source; cap })

let walk_cover_summary ?cap g ~start ~trials ~master ~tag =
  Simkit.Trial.summarize_int ~trials ~master ~salt0:(salt_of ~tag)
    (K.completion_time K.rwalk g { K.default_params with K.start; cap })

let ln n = log (Float.of_int n)
