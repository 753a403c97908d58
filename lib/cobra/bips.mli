(** BIPS — Biased Infection with Persistent Source (the paper's Section 1).

    A fixed source vertex [v] is permanently infected. In each round, every
    other vertex [u] independently picks its branching factor's number of
    neighbours, uniformly with replacement, and is infected in the next
    round iff at least one pick is currently infected. This is a discrete
    SIS-type epidemic; unlike the contact process it cannot die out, and by
    the paper's Theorem 4 it is the exact time-reversal dual of COBRA:

    [P(Hit_u(v) > t | C_0 = {u}) = P(u ∉ A_t | A_0 = {v})].

    Note the non-monotonicity: an infected vertex whose picks all miss the
    infected set recovers. The infection time is the first round at which
    [A_t = V]. *)

type t

(** [create g ~branching ~source] initialises with [A_0 = {source}]. *)
val create : Graph.View.t -> branching:Branching.t -> source:int -> t

(** [graph p], [branching p], [source p] recover the configuration. *)
val graph : t -> Graph.View.t

val branching : t -> Branching.t
val source : t -> int

(** [round p] is the number of completed rounds [t]. *)
val round : t -> int

(** [infected p u] tests [u ∈ A_t]. *)
val infected : t -> int -> bool

(** [infected_count p] is [|A_t|]. *)
val infected_count : t -> int

(** [infected_set p] is a fresh sorted array of [A_t]. *)
val infected_set : t -> int array

(** [is_saturated p] is [|A_t| = n]. *)
val is_saturated : t -> bool

(** [step p rng] plays one round: O(E(picks) · n) neighbour draws. *)
val step : t -> Prng.Rng.t -> unit

(** [reset p ~source] rewinds to round 0 with a new source. *)
val reset : t -> source:int -> unit

(** {1 One-shot measurements}

    Infection-time runs are the {!Kernel.bips} kernel. *)

(** [size_trajectory ?cap g ~branching ~source rng] records [|A_t|] for
    [t = 0, 1, ...] until saturation (or [cap] rounds, default
    [10_000 + 100 * n]) — Lemma 1's growth data. *)
val size_trajectory :
  ?cap:int -> Graph.View.t -> branching:Branching.t -> source:int -> Prng.Rng.t -> int array
