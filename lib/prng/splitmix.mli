(** SplitMix-style pseudo-random generator on native 63-bit integers.

    The state advances by a fixed odd increment (the "gamma") modulo 2^63 and
    outputs are produced by a bijective avalanche mixer, following the design
    of Steele, Lea & Flood's SplitMix64 adapted to OCaml's 63-bit native
    ints. The generator is {e splittable}: [split] deterministically derives
    a stream that is statistically independent of its parent, which gives
    every simulation trial its own reproducible randomness.

    This is the generator of the repository: allocation-free and a few ns
    per draw. *)

type t

(** [create seed] initialises a generator from an arbitrary integer seed. *)
val create : int -> t

(** [copy t] duplicates the state; the copy evolves independently. *)
val copy : t -> t

(** [split t] advances [t] and returns a fresh generator whose output stream
    is independent of the parent's subsequent outputs. *)
val split : t -> t

(** [next t] draws a full 63-bit pattern (may be negative when read as an
    OCaml [int]). *)
val next : t -> int

(** [bits62 t] draws a uniform integer in [0, 2^62). *)
val bits62 : t -> int

(** [int t bound] draws a uniform integer in [0, bound); [bound] must be
    positive. Unbiased via rejection sampling. *)
val int : t -> int -> int

(** [float t] draws a uniform float in [0, 1) with 53 random bits. *)
val float : t -> float

(** [bernoulli t p] is [true] with probability [p]: [false] for
    [p <= 0] and [true] for [p >= 1] without a draw, else [float t < p]. *)
val bernoulli : t -> float -> bool

(** [bool t] draws a fair coin. *)
val bool : t -> bool

(** {1 The raw stream}

    For a consumer that keeps many streams' states in one array
    ({!Lanes}): [create seed] starts from state [mix (seed + golden)],
    and [next] adds [golden] to the state and returns [mix] of the
    result. [mix] is inlined into its callers. *)

val golden : int

val mix : int -> int
