(** Coalescing random walks with voting — the {e coalescing} half of the
    coalescing-branching walk.

    [m] walkers start on distinct vertices; each round every occupied
    vertex (a {e cluster} of walkers) moves to one uniformly random
    neighbour, and clusters landing on the same vertex merge for good.
    Identifying each cluster with an opinion makes this the classical
    coalescing-time = consensus-time correspondence of
    Cooper–Elsässer–Ono–Radzik, "Coalescing random walks and voting on
    connected graphs" (see PAPERS.md): consensus is reached exactly when
    one cluster remains.

    As a set-valued chain this is precisely COBRA with branching
    [Fixed 1] — each occupied vertex makes a single pick and the next
    occupied set is the union — so {!Cobra.Exact}'s COBRA engine at
    [k = 1] is its exact oracle ([Exact.coalescing_step_dist],
    [Exact.coalescing_cluster_dist]). Clusters move in increasing vertex
    order, one {!Graph.View.unsafe_random_neighbour} draw each, which
    keeps the stream identical across every topology backend.

    Parity caveat: the chain is synchronous — every cluster moves every
    round — so on a bipartite graph (even cycles, hypercubes) two
    clusters seeded in different colour classes can never occupy the
    same vertex and consensus is unreachable; a {!Kernel.coalesce} run
    then stops at its cap, incomplete. Use non-bipartite graphs (odd
    cycles, cliques) or same-parity starts when consensus matters. *)

type t

(** [create g ~walkers ~start] places [walkers >= 1] clusters on the
    distinct vertices [(start + i) mod n] for [i = 0 .. walkers - 1];
    rejects [walkers > n] and out-of-range [start]. *)
val create : Graph.View.t -> walkers:int -> start:int -> t

(** [step t rng] plays one round: each occupied vertex, in increasing
    order, draws one uniform neighbour; the new occupied set is the
    union of the draws. *)
val step : t -> Prng.Rng.t -> unit

(** [clusters t] — number of surviving clusters (occupied vertices). *)
val clusters : t -> int

(** [mem t v] — is vertex [v] occupied by a cluster? *)
val mem : t -> int -> bool

(** [walkers t] — the initial cluster count. *)
val walkers : t -> int

(** [merged t] is [walkers t - clusters t]. *)
val merged : t -> int

(** [round t] — completed rounds. *)
val round : t -> int

(** [is_consensus t] — one cluster left (true immediately when
    [walkers = 1]). *)
val is_consensus : t -> bool
