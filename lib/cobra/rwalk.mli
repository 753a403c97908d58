(** The simple random walk — COBRA's [k = 1] degenerate case and the
    baseline for experiment E8. Its cover time is Ω(n log n) on every
    graph, against COBRA's O(log n) on expanders; cover runs, with one
    or several walkers, are the {!Kernel.rwalk} kernel. *)

(** [default_cap g] is [100 * n^2 + 10_000] steps, comfortably above the
    O(n^2·log n) worst-case cover time for small n (pass an explicit cap
    for large graphs). The walk-like kernels ({!Kernel.rwalk},
    {!Kernel.coalesce}, {!Kernel.explore}) share it. *)
val default_cap : Graph.View.t -> int

(** [hitting_time ?cap g ~start ~target rng] is the first step at which
    the walk reaches [target], or [None] if [cap] steps (default
    {!default_cap}) pass first. *)
val hitting_time :
  ?cap:int -> Graph.View.t -> start:int -> target:int -> Prng.Rng.t -> int option

(** [positions ?steps g ~start rng] runs [steps] steps and returns the
    trajectory including the start (length [steps + 1]). *)
val positions : ?steps:int -> Graph.View.t -> start:int -> Prng.Rng.t -> int array
