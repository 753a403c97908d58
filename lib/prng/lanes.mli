(** Batched per-lane randomness for the bit-sliced Monte-Carlo engine.

    A [Lanes.t] carries 64 independent {!Splitmix} streams — one per
    replica lane, seeded by the caller with the {e same} derived seeds
    the scalar engine would give trials [0 .. 63] — and serves their
    output as 32-lane {e plane} words: bit [j] of a plane is one fresh
    fair bit of lane [j]'s own stream. Lanes 0..31 form the "lo" block,
    lanes 32..63 the "hi" block, matching {!Dstruct.Lanemat}'s row-cell
    split.

    Internally each block refills by drawing one 32-bit word per lane
    and transposing the 32x32 bit matrix in place, so a plane amortises
    to one Splitmix draw plus a few shifts. The refill runs the
    Splitmix step in its own loop (no call per draw) and an unrolled
    transpose with unchecked indexing; the planes, their order (plane
    [p] of a refill is bit [31 - p] of each lane's draw) and the bits
    each lane consumes are those of the first, call-per-draw version,
    which test/prng keeps as a frozen reference. Stream identity with the
    scalar engine holds at the generator level (lane [j] consumes
    exactly trial [j]'s stream, in a fixed bit order); it does {e not}
    hold draw-for-draw, because the scalar engine interprets the same
    stream through floats and 62-bit rejection while the sliced
    primitives below consume raw bit planes (and may share rejection
    rounds across lanes, or skip draws no lane can observe). Results
    are distributionally equal per lane and exactly deterministic in
    the seed array.

    Mask-producing operations leave their result in the [lo]/[hi]
    accessors rather than allocating, for the steppers' inner loops. *)

type t

(** [create seeds] builds the 64 lane streams; [seeds] must have length
    exactly 64, [seeds.(j)] being lane [j]'s raw stream seed (the
    scalar engine's derived trial seed). *)
val create : int array -> t

(** [word t] draws one fresh plane: after the call, bit [j] of
    [lo t] (lanes 0..31) / [hi t] (lanes 32..63) is an independent fair
    bit of that lane's stream. *)
val word : t -> unit

(** [lo t] / [hi t] read the two 32-lane result cells of the last
    mask-producing call ([word], [bernoulli]). *)
val lo : t -> int

val hi : t -> int

(** [bernoulli t p] draws one Bernoulli([p]) indicator per lane into
    [lo]/[hi], by exact bitwise comparison of a fresh uniform against
    [p]'s binary expansion (floats are dyadic, so no rounding is
    involved; [p <= 0] and [p >= 1] consume no randomness). Expected
    cost ~2 planes independent of [p]. *)
val bernoulli : t -> float -> unit

(** [bits_for bound] is the smallest [b] with [2^b >= bound] — the
    number of planes {!uniform_planes} fills for that bound. *)
val bits_for : int -> int

(** [uniform_planes t ~bound ~nbits ~lo ~hi] draws one uniform index in
    [\[0, bound)] per lane, bit-plane encoded: after the call,
    [lo.(b)] (resp. [hi.(b)]) for [b = 0 .. nbits - 1] holds bit [b] of
    the lo-block (hi-block) lanes' indices, LSB first. [nbits] must be
    [bits_for bound] and the arrays at least that long. Non-power-of-two
    bounds use sliced rejection: fresh planes are spliced only into
    still-rejected lanes, so every lane's index is exactly uniform. *)
val uniform_planes :
  t -> bound:int -> nbits:int -> lo:int array -> hi:int array -> unit
