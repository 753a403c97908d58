(** Branching factors for COBRA and BIPS.

    The paper's main theorems use a fixed branching factor [k = 2] (each
    active vertex pushes to two neighbours, chosen independently with
    replacement). Theorem 3 extends the cover-time bound to fractional
    expected branching [1 + ρ]: one push always, a second with probability
    ρ. Both are instances of this type; a process parameterised by
    [Branching.t] covers every statement in the paper.

    [Distinct k] is this repository's ablation of the paper's
    with-replacement choice: [min k (deg v)] neighbours sampled {e without}
    replacement. Theorem 4's duality proof only needs COBRA's pushes and
    BIPS's contacts to draw from the same per-vertex neighbour-set
    distribution, so it holds verbatim for this variant too — checked
    exactly in the tests and measured in experiment E15. *)

type t =
  | Fixed of int  (** exactly [k >= 1] picks per active vertex per round,
                      uniformly with replacement — the paper's model *)
  | One_plus of float
      (** one pick, plus an extra pick with probability [ρ ∈ (0, 1]] —
          Theorem 3's expected branching factor [1 + ρ] *)
  | Distinct of int
      (** [min k (deg v)] distinct neighbours, uniformly without
          replacement — the sampling-scheme ablation *)

(** [fixed k] is [Fixed k]; requires [k >= 1]. *)
val fixed : int -> t

(** [one_plus rho] is [One_plus rho]; requires [0 < rho <= 1]. *)
val one_plus : float -> t

(** [distinct k] is [Distinct k]; requires [k >= 1]. *)
val distinct : int -> t

(** [cobra_k2] is the paper's headline process, [Fixed 2]. *)
val cobra_k2 : t

(** [expected t] is the nominal expected number of picks per vertex per
    round ([Distinct k] reports [k]; the realised count is capped at the
    vertex degree). *)
val expected : t -> float

(** [max_picks t] is the largest possible number of picks in one round. *)
val max_picks : t -> int

(** [draws t rng] samples the number of picks for one vertex this round
    (for [Distinct k] this is the nominal [k]; callers use {!picks_into}
    which applies the degree cap). *)
val draws : t -> Prng.Rng.t -> int

(** [picks_into t rng g v buf] draws this round's neighbour picks for
    vertex [v] into [buf.(0 .. c - 1)] and returns the count [c] — the
    single sampling routine every process engine uses, so all of them
    agree on each scheme's meaning. [buf] must be at least as long as
    {!picks_buffer}[ t g]. A kernel step calls it once per vertex and
    reads the picks from [buf], so a pick costs no closure call:
    [Fixed]/[One_plus] picks are one
    {!Graph.View.unsafe_random_neighbour} each (never a
    whole-neighbourhood read), [Distinct] picks are
    [Prng.Sample.without_replacement] indices, or the whole
    neighbourhood in order when [k >= degree]. Raises
    [Invalid_argument] (["Branching.iter_picks: ..."]) for an
    out-of-range or isolated [v], before any draw. *)
val picks_into : t -> Prng.Rng.t -> Graph.View.t -> int -> int array -> int

(** [picks_buffer t g] is a buffer {!picks_into} can fill for every
    vertex of [g]: [max_picks t] entries, or for [Distinct k] at most
    [g]'s maximum degree, where picks without replacement stop (so a
    large [k] costs no memory). *)
val picks_buffer : t -> Graph.View.t -> int array

(** [iter_picks t rng g v ~f] is {!picks_into} applying [f] to each
    pick, in order, with a fresh buffer per call: for one-off draws, not
    for a step loop. Returns the number of picks made. *)
val iter_picks : t -> Prng.Rng.t -> Graph.View.t -> int -> f:(int -> unit) -> int

(** [pick_count_distribution t] lists [(count, probability)] pairs of the
    nominal pick count — used by the exact small-graph engine (which
    applies [Distinct]'s degree cap itself). *)
val pick_count_distribution : t -> (int * float) list

(** [infection_probability t p] is the probability that a vertex whose
    picks each independently land in the infected set with probability [p]
    gets infected this round: [1 - (1-p)^k] for [Fixed k],
    [1 - (1-p)(1-ρp)] for [One_plus ρ] (Corollary 1 of the paper).
    Raises [Invalid_argument] for [Distinct] — without replacement the
    probability depends on the integer counts; use
    {!infection_probability_counts}. *)
val infection_probability : t -> float -> float

(** [infection_probability_counts t ~degree ~infected] is the exact
    probability that a vertex of the given [degree], [infected] of whose
    neighbours are infected, gets infected this round — defined for every
    branching ([Distinct k] uses the hypergeometric complement
    [1 - C(degree-infected, k') / C(degree, k')] with
    [k' = min k degree]). *)
val infection_probability_counts : t -> degree:int -> infected:int -> float

(** [to_string] is ["k=2"], ["1+rho (rho=0.25)"] or ["k=2 distinct"]. *)
val to_string : t -> string

(** [of_string s] parses the CLI argument syntax: [k=<int>] or a bare
    [<int>] for {!Fixed}, [1+<rho>] for {!One_plus} (rho in (0, 1]),
    [distinct=<int>] for {!Distinct}. Case-insensitive; surrounding
    whitespace ignored. *)
val of_string : string -> (t, string) result

(** [to_arg t] is the canonical {!of_string}-parseable form ([to_string]'s
    ["1+rho (rho=0.5)"] is for display only); [of_string (to_arg t) = Ok t]
    for every valid [t]. *)
val to_arg : t -> string
