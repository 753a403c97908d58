(** The COBRA (COalescing-BRAnching) random walk.

    State: a set [C_t] of active vertices. One round: every [v ∈ C_t]
    independently picks its branching factor's number of neighbours,
    uniformly with replacement; [C_{t+1}] is the union of all picks
    (coalescing: duplicates merge). Active vertices that are not picked
    fall silent — the frontier does not accumulate.

    Definitions follow the paper: [hit(v)] is the first [t >= 0] with
    [v ∈ C_t] (so every start vertex has hitting time 0), and the cover
    time is the first [t] at which every vertex has been active at least
    once, i.e. [max_v hit(v)]. *)

type t

(** [create g ~branching ~start] initialises with [C_0 = start]
    (deduplicated, non-empty, in range). *)
val create : Graph.View.t -> branching:Branching.t -> start:int list -> t

(** [graph p], [branching p] recover the configuration. *)
val graph : t -> Graph.View.t

val branching : t -> Branching.t

(** [round p] is the number of completed rounds [t]. *)
val round : t -> int

(** [frontier_size p] is [|C_t|]. *)
val frontier_size : t -> int

(** [frontier p] is a fresh array of [C_t]'s members (unspecified order). *)
val frontier : t -> int array

(** [active p v] tests [v ∈ C_t]. *)
val active : t -> int -> bool

(** [visited p v] tests whether [v] has ever been active. *)
val visited : t -> int -> bool

(** [visited_count p] counts vertices visited so far. *)
val visited_count : t -> int

(** [is_covered p] is [visited_count p = n]. *)
val is_covered : t -> bool

(** [step p rng] plays one round. The frontier never becomes empty: every
    active vertex makes at least one pick. *)
val step : t -> Prng.Rng.t -> unit

(** [reset p ~start] rewinds to round 0 with a new start set, reusing the
    allocated buffers. *)
val reset : t -> start:int list -> unit

(** {1 One-shot measurements}

    Cover runs are the {!Kernel.cobra} kernel. The drivers below take
    [?cap] rounds, default [10_000 + 100 * n]. *)

(** [hitting_time ?cap g ~branching ~start ~target rng] is the first round
    at which [target] becomes active (0 if [target = start]), or [None] on
    cap. *)
val hitting_time :
  ?cap:int ->
  Graph.View.t ->
  branching:Branching.t ->
  start:int ->
  target:int ->
  Prng.Rng.t ->
  int option

(** [frontier_trajectory ?cap g ~branching ~start rng] runs to cover (or
    cap) and returns [|C_t|] for [t = 0, 1, ...] — the growth curves of
    the E9-style reports. *)
val frontier_trajectory :
  ?cap:int ->
  Graph.View.t ->
  branching:Branching.t ->
  start:int ->
  Prng.Rng.t ->
  int array

(** [first_visit_times ?cap g ~branching ~start rng] runs to cover (or
    [cap]) and returns the first round at which each vertex became
    active; [start] gets 0, never-visited vertices (cap hit) get [-1].
    Since information travels one hop per round, the value at [v] is at
    least the BFS distance from [start] — the deterministic lower bound
    the E13 experiment exhibits. *)
val first_visit_times :
  ?cap:int -> Graph.View.t -> branching:Branching.t -> start:int -> Prng.Rng.t -> int array

(** [transmissions p] is the total number of pushes performed so far —
    the "limited transmission" budget the paper's introduction motivates
    (each active vertex transmits at most [max_picks] times per round). *)
val transmissions : t -> int
