(** The unvisited-edge-preferring walk of Berenbrink–Cooper–Friedetzky,
    "Random walks which prefer unvisited edges: exploring high girth
    even degree expanders in linear time" (see PAPERS.md) — the
    linear-time expander-exploration baseline against COBRA cover.

    A single walker keeps a visited mark per {e edge}. At each step it
    looks at its incident edges: if any are unvisited it moves along one
    of those chosen uniformly (one [Rng.int] draw over the unvisited
    slots, in ascending adjacency order), otherwise it moves to a
    uniform random neighbour (one {!Graph.View.random_neighbour} draw).
    Traversing an edge marks it in both directions. On high-girth
    even-degree expanders this covers all vertices in O(n) steps, versus
    Θ(n log n) for the simple walk.

    Ascending adjacency order is a {!Graph.View} backend contract, so
    the unvisited-slot indexing — and hence the full RNG stream — is
    bit-identical across heap/bigarray/implicit backends. The exact
    small-graph oracle is [Exact.explore_position_dist] /
    [Exact.explore_cover_survival] (a DP over (vertex, visited-edge-set)
    states). *)

type t

(** [create g ~start] places the walker; rejects out-of-range [start]. *)
val create : Graph.View.t -> start:int -> t

(** [step t rng] plays one move: uniform among unvisited incident edges
    when one exists, else uniform among all neighbours. *)
val step : t -> Prng.Rng.t -> unit

(** [position t] — the walker's current vertex. *)
val position : t -> int

(** [visited_count t] — vertices visited so far (the start counts). *)
val visited_count : t -> int

(** [edges_traversed t] — distinct (undirected) edges traversed. *)
val edges_traversed : t -> int

(** [round t] — completed steps. *)
val round : t -> int

(** [is_covered t] — every vertex visited at least once. *)
val is_covered : t -> bool
