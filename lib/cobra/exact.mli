(** Exact distributions of the COBRA and BIPS set-valued Markov chains on
    small graphs, by dynamic programming over the 2^n subsets.

    This module is the repository's precision anchor: Theorem 4's duality

    [P(Hit_C(v) > t) = P(C ∩ A_t = ∅ | A_0 = {v})]

    is verified here to floating-point accuracy rather than statistically.
    Subsets are encoded as bit masks, so graphs are limited to
    {!max_vertices} vertices; the cost per step is roughly
    O(4^n) for BIPS and O(reachable masks × branching support) for COBRA.

    The COBRA chain: from active set [C], each member picks its branching
    number of uniform neighbours; the next state is the union. Its
    per-vertex pick-set distributions convolve (by subset union) into the
    next-state distribution. For hitting times the target is made
    absorbing — mass entering a set containing the target leaves the
    "alive" distribution.

    The BIPS chain: given [A], each vertex [u ≠ source] is infected next
    round independently with probability
    [Branching.infection_probability b (d_A(u)/deg u)], and the source is
    always infected — so each row of the transition kernel is a product
    measure, enumerated directly. *)

(** Largest vertex count accepted (16: dense 2^n arrays stay small). *)
val max_vertices : int

(** A COBRA transition table shared across queries: the next-state
    distribution of an active set does not depend on the hitting target,
    so the (expensive) union-convolutions are memoised once per graph and
    branching and reused by every [hit_survival] call. *)
module Cobra_engine : sig
  type t

  (** [create g ~branching] prepares per-vertex pick distributions and an
      empty transition memo. *)
  val create : Graph.Csr.t -> branching:Branching.t -> t

  (** [hit_survival e ~start ~target ~t_max] — as {!cobra_hit_survival},
      sharing [e]'s memo. *)
  val hit_survival : t -> start:int list -> target:int -> t_max:int -> float array
end

(** [cobra_hit_survival g ~branching ~start ~target ~t_max] returns
    [s] with [s.(t) = P(Hit_start(target) > t | C_0 = start)] for
    [t = 0 .. t_max]. [start] must be non-empty; [s.(0) = 0] iff [target]
    is in [start]. One-shot form of {!Cobra_engine.hit_survival}. *)
val cobra_hit_survival :
  Graph.Csr.t ->
  branching:Branching.t ->
  start:int list ->
  target:int ->
  t_max:int ->
  float array

(** [cover_survival g ~branching ~start ~t_max] returns [s] with
    [s.(t) = P(cov > t | C_0 = start)] where [cov] is the first round at
    which every vertex has been active at least once (the start set
    counts as visited at t = 0). Tracks the joint (frontier, visited)
    chain — ≲ 3^n states — so keep [n] below ~12. *)
val cover_survival :
  Graph.Csr.t -> branching:Branching.t -> start:int list -> t_max:int -> float array

(** [expected_cover_time g ~branching ~start] sums the survival series
    [Σ_{t>=0} P(cov > t)] until the tail is below 1e-12 (the chain covers
    geometrically, so this terminates fast on connected graphs); raises
    [Failure] if 10^6 steps do not get there. *)
val expected_cover_time :
  Graph.Csr.t -> branching:Branching.t -> start:int list -> float

(** [bips_avoid g ~branching ~source ~avoid ~t_max] returns [s] with
    [s.(t) = P(avoid ∩ A_t = ∅ | A_0 = {source})] for the given set of
    vertices to avoid — the right-hand side of Theorem 4. *)
val bips_avoid :
  Graph.Csr.t ->
  branching:Branching.t ->
  source:int ->
  avoid:int list ->
  t_max:int ->
  float array

(** [bips_unsaturated g ~branching ~source ~t_max] returns
    [s.(t) = P(A_t ≠ V)] — the quantity Theorem 2 bounds. *)
val bips_unsaturated :
  Graph.Csr.t -> branching:Branching.t -> source:int -> t_max:int -> float array

(** [bips_expected_size g ~branching ~source ~t_max] returns
    [e.(t) = E|A_t|] — compared against Lemma 1's compounded lower bound
    in tests. *)
val bips_expected_size :
  Graph.Csr.t -> branching:Branching.t -> source:int -> t_max:int -> float array

(** [duality_gap g ~branching ~t_max] computes
    [max over u, v, t <= t_max of
     |P(Hit_u(v) > t) - P(u ∉ A_t | A_0 = v)|] — zero (to numerical
    precision) by Theorem 4. O(n² · t_max · 4^n): keep n at ~8. *)
val duality_gap : Graph.Csr.t -> branching:Branching.t -> t_max:int -> float

(** {1 Distribution-level oracle exports}

    These functions export the exact next-state distributions and
    occupancy marginals that [test/conformance] cross-validates the
    sampling kernels against. Distributions over vertex sets are
    association lists [(mask, probability)] of the non-zero entries,
    sorted by mask — deterministic, so chi-square cells line up between
    oracle and sampler. *)

(** [mask_of_vertices ~n vs] encodes a vertex list as a bit mask;
    rejects out-of-range or duplicate vertices and [n > max_vertices]. *)
val mask_of_vertices : n:int -> int list -> int

(** [vertices_of_mask mask] decodes a bit mask into its sorted vertex
    list. *)
val vertices_of_mask : int -> int list

(** [cobra_step_dist g ~branching ~active] is the exact distribution of
    the next COBRA active set given the current (non-empty) one. *)
val cobra_step_dist :
  Graph.Csr.t -> branching:Branching.t -> active:int list -> (int * float) list

(** [cobra_occupancy g ~branching ~start ~t_max] returns [occ] with
    [occ.(t).(v) = P(v ∈ C_t | C_0 = start)] for [t = 0 .. t_max]. *)
val cobra_occupancy :
  Graph.Csr.t ->
  branching:Branching.t ->
  start:int list ->
  t_max:int ->
  float array array

(** [bips_step_dist g ~branching ~source ~infected] is the exact
    distribution of the next BIPS infected set — a product measure with
    the source pinned to infected. *)
val bips_step_dist :
  Graph.Csr.t ->
  branching:Branching.t ->
  source:int ->
  infected:int list ->
  (int * float) list

(** [bips_occupancy g ~branching ~source ~t_max] returns [occ] with
    [occ.(t).(v) = P(v ∈ A_t | A_0 = {source})]. *)
val bips_occupancy :
  Graph.Csr.t -> branching:Branching.t -> source:int -> t_max:int -> float array array

(** [push_cover_survival g ~start ~t_max] returns [s] with
    [s.(t) = P(broadcast incomplete after t rounds)] for the push
    protocol started at [start] — the monotone single-pick COBRA chain
    {!Cobra.Push} samples. *)
val push_cover_survival : Graph.Csr.t -> start:int -> t_max:int -> float array

(** [coalescing_step_dist g ~active] is the exact distribution of the
    next occupied set of the coalescing walks ({!Cobra.Coalesce}) given
    the current one — the COBRA chain at branching [Fixed 1]. *)
val coalescing_step_dist : Graph.Csr.t -> active:int list -> (int * float) list

(** [coalescing_cluster_dist g ~start ~t_max] is the exact distribution
    of the {e number of clusters} after [t_max] rounds of coalescing
    walks started on the occupied set [start], as a sorted
    [(count, probability)] list. *)
val coalescing_cluster_dist :
  Graph.Csr.t -> start:int list -> t_max:int -> (int * float) list

(** [coalescing_consensus_survival g ~start ~t_max] returns [s] with
    [s.(t) = P(more than one cluster after t rounds)] — the consensus
    (= coalescence) time's survival function. *)
val coalescing_consensus_survival :
  Graph.Csr.t -> start:int list -> t_max:int -> float array

(** [explore_position_dist g ~start ~t] is the exact distribution of the
    unvisited-edge-preferring walker's ({!Cobra.Explore}) position after
    [t] steps, by DP over (vertex, visited-edge-set) states; the graph
    must have at most 16 edges. Sorted [(vertex, probability)] list. *)
val explore_position_dist : Graph.Csr.t -> start:int -> t:int -> (int * float) list

(** [explore_cover_survival g ~start ~t_max] returns [s] with
    [s.(t) = P(some vertex unvisited after t steps)] for the
    unvisited-edge-preferring walk. *)
val explore_cover_survival : Graph.Csr.t -> start:int -> t_max:int -> float array

(** [pull_step_dist g ~infected] is the exact one-round transition of
    the pull protocol ({!Cobra.Kernel.pull}): members stay informed and
    each uninformed vertex joins independently with probability
    [d_I(u) / deg u]. Product measure, sorted association list. *)
val pull_step_dist : Graph.Csr.t -> infected:int list -> (int * float) list

(** [pull_cover_survival g ~start ~t_max] returns [s] with
    [s.(t) = P(broadcast incomplete after t rounds)] for pull. *)
val pull_cover_survival : Graph.Csr.t -> start:int -> t_max:int -> float array

(** [push_pull_step_dist g ~infected] is the exact one-round transition
    of push-pull ({!Cobra.Kernel.push_pull}), by enumeration of all joint
    contact vectors (every vertex calls one uniform neighbour;
    information crosses each contact both ways). O(Π deg): small graphs
    only. *)
val push_pull_step_dist : Graph.Csr.t -> infected:int list -> (int * float) list

(** [push_pull_cover_survival g ~start ~t_max] returns [s] with
    [s.(t) = P(broadcast incomplete after t rounds)] for push-pull. *)
val push_pull_cover_survival : Graph.Csr.t -> start:int -> t_max:int -> float array

(** [sis_step_dist g ~contacts ~recovery ~persistent ~infected] is the
    exact one-round transition of {!Epidemic.Sis}: recovery first (each
    infected vertex stays with probability [1 - recovery]), then every
    vertex currently susceptible is exposed against the {e previous}
    infected set, catching with
    [Branching.infection_probability_counts contacts]; a [persistent]
    vertex is always infected next round. Product measure, exported as a
    sorted association list. *)
val sis_step_dist :
  Graph.Csr.t ->
  contacts:Branching.t ->
  recovery:float ->
  persistent:int option ->
  infected:int list ->
  (int * float) list

(** [sis_extinct_series g ~contacts ~recovery ~start ~t_max] returns [e]
    with [e.(t) = P(no vertex infected after t rounds)] for the SIS chain
    without a persistent seed (the empty set is absorbing). *)
val sis_extinct_series :
  Graph.Csr.t ->
  contacts:Branching.t ->
  recovery:float ->
  start:int list ->
  t_max:int ->
  float array

(** [seir_step_dist g ~contacts ~infectious ~susceptible] is the exact
    distribution of the {e newly-exposed} set after one round of
    {!Epidemic.Seir}: each vertex in [susceptible] catches against the
    [infectious] snapshot with
    [Branching.infection_probability_counts contacts], independently —
    timer transitions are deterministic and contribute no randomness.
    Product measure over the susceptibles, exported as a sorted
    association list of (mask, probability); vertices outside
    [susceptible] never appear in a mask. The two sets must be
    disjoint and [infectious] non-empty. *)
val seir_step_dist :
  Graph.Csr.t ->
  contacts:Branching.t ->
  infectious:int list ->
  susceptible:int list ->
  (int * float) list

(** [seir_attack_dist g ~contacts ~latent_rounds ~infectious_rounds
    ~start] is the exact distribution of the attack count: [a.(k)] is
    the probability that exactly [k] vertices were ever infected (index
    cases included) when the SEIR chain absorbs. [start] vertices begin
    infectious with a full timer, like [Epidemic.Seir.create]. Computed
    by sparse evolution over mixed-radix per-vertex states (timers are
    not bits, so the dense SIS representation does not apply); the chain
    absorbs deterministically within [n * (latent + infectious)]
    rounds. Requires the per-vertex state space to fit 62 bits —
    comfortable for every [<= 16]-vertex fixture with small timers. *)
val seir_attack_dist :
  Graph.Csr.t ->
  contacts:Branching.t ->
  latent_rounds:int ->
  infectious_rounds:int ->
  start:int list ->
  float array

(** [seir_extinct_series g ~contacts ~latent_rounds ~infectious_rounds
    ~start ~t_max] returns [e] with [e.(t) = P(no Exposed or Infectious
    vertex after t rounds)]. Monotone in [t]; reaches 1.0 once every
    epidemic path has burnt out. *)
val seir_extinct_series :
  Graph.Csr.t ->
  contacts:Branching.t ->
  latent_rounds:int ->
  infectious_rounds:int ->
  start:int list ->
  t_max:int ->
  float array

(** [contact_absorption g ~infection_rate ~start] is the probability
    that the continuous-time contact process (infection rate
    [infection_rate] per infected neighbour, recovery rate 1) exposes
    every vertex at least once before dying out — the chance
    {!Epidemic.Contact.run} returns [Fully_exposed] rather than
    [Died_out]. Computed on the jump chain over (infected, ever-infected)
    pairs by value iteration to 1e-13. *)
val contact_absorption : Graph.Csr.t -> infection_rate:float -> start:int list -> float
