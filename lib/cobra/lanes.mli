(** Bit-sliced Monte-Carlo driver: 64 independent replicas per machine
    word.

    A {e batch} runs up to 64 trials of a kernel at once, one replica
    per bit-lane: lane [j] holds trial [j]'s state in lane [j] of the
    {!Dstruct.Lanemat} occupancy matrices and draws from trial [j]'s
    own stream (the caller seeds {!Prng.Lanes} with the scalar engine's
    derived trial seeds). One pass over the CSR therefore advances all
    64 trials by one synchronous round.

    Equality with the scalar engine is {e distributional} per lane, not
    draw-for-draw: sliced steppers consume raw bit planes where the
    scalar engine consumes floats and wide-word rejection, share
    rejection rounds across lanes, and skip draws that no live lane can
    observe. Per-lane marginals and cross-lane independence are exact
    (the conformance suite checks both against the closed-form
    oracles); results are exactly deterministic in the seeds.

    Completed lanes are frozen in place — their state stops evolving
    just as the scalar driver stops stepping a finished trial — and
    lanes beyond a short batch's [n_active] are masked out of every
    reduction, so phantom replicas never reach any statistic. *)

(** One live batch: [step] plays one synchronous round for the lanes in
    the live mask, [done_mask] reads the per-lane completion mask of
    the current state as [(lo, hi)] cells, and [observe] reads one
    lane's final kernel-specific observables (the driver prepends
    ["rounds"]). [state] exposes the occupancy matrix the process's
    exact oracle speaks about — BIPS/SIS: the current infected set,
    COBRA: the frontier, push: the informed set — so the conformance
    suite can read every lane's set directly. *)
type instance = {
  step : live_lo:int -> live_hi:int -> unit;
  done_mask : unit -> int * int;
  observe : lane:int -> (string * float) list;
  state : unit -> Dstruct.Lanemat.t;
}

(** A sliced kernel: the lane-engine counterpart of {!Kernel.t}.
    [supports] says whether these params have a sliced stepper (e.g.
    [Distinct] branching does not); callers fall back to the scalar
    engine when it is [false]. *)
type t = {
  name : string;
  supports : Kernel.params -> bool;
  create : Graph.View.t -> Kernel.params -> Prng.Lanes.t -> instance;
}

(** [run_batch t g params gen ~n_active ~cap] drives one batch of
    [n_active <= 64] trials to per-lane completion or [cap] rounds and
    returns one {!Kernel.outcome} per trial, lane [j] first. Censored
    lanes report [rounds = cap] and [completed = false], like the
    scalar {!Kernel.run}. The caller passes the scalar kernel's
    {!Kernel.cap}, so both engines stop a trial at the same round. *)
val run_batch :
  t -> Graph.View.t -> Kernel.params -> Prng.Lanes.t -> n_active:int -> cap:int ->
  Kernel.outcome array

(** COBRA cover, sliced. Observes ["rounds"; "visited"; "frontier"] —
    per-lane transmission counting would cost a popcount per scatter,
    so unlike the scalar kernel it does not report ["transmissions"]. *)
val cobra : t

(** BIPS saturation, sliced. Observes ["rounds"; "infected"]. *)
val bips : t

(** Push rumour spreading, sliced. Observes ["rounds"; "informed"]
    (no ["transmissions"], as for {!cobra}). *)
val push : t

(** The sliced kernels living in this library; [Epidemic.Lanes] adds
    [sis]. *)
val all : t list

val find : string -> t option

(** {1 Sliced-pick toolkit}

    The word-parallel neighbour-pick primitives the steppers above are
    built from, exported so sliced steppers in downstream libraries
    ([Epidemic.Lanes]) reuse them. A [picker] owns the per-graph
    scratch (the gathered neighbourhood, index bit-planes, mux and
    demux trees); mask-producing calls leave their result in the
    picker's {!cells}, which a stepper reads in place.

    {b Gather once.} {!nb_or_and} and {!scatter} read a vertex's
    neighbourhood once, with one {!Graph.View.unsafe_neighbours_into}
    call (one backend dispatch, and on the CSR backends no call per
    neighbour), and copy the neighbours' member cells. Every pick at
    that vertex then works from those copies: {!hit} muxes from the
    cells the preceding {!nb_or_and} gathered, and {!scatter}'s picks
    demux into the neighbours it gathered. The draws
    ({!Prng.Lanes.uniform_planes} per pick, one
    {!Prng.Lanes.bernoulli} per [1+rho] round), and so every lane's
    outcome, do not depend on how the neighbourhood is read; test/sweep
    pins them per trial. *)
module Slice : sig
  type picker

  (** The result cells of the last mask-producing call, as [(lo, hi)]
      halves: [lo]/[hi] hold {!nb_or_and}'s OR or {!hit}'s hit mask,
      [and_lo]/[and_hi] {!nb_or_and}'s AND. Read-only outside. *)
  type cells = private {
    mutable lo : int;
    mutable hi : int;
    mutable and_lo : int;
    mutable and_hi : int;
  }

  (** [picker g branching] prepares sliced branching picks on [g];
      raises [Invalid_argument] for [Distinct] branching (use
      {!supported} to pre-test). *)
  val picker : Graph.View.t -> Branching.t -> picker

  (** [single_picker g] prepares plain one-uniform-neighbour picks
      (the push protocol's rule). *)
  val single_picker : Graph.View.t -> picker

  val supported : Branching.t -> bool

  (** [cells p] is [p]'s result record, the same value for [p]'s whole
      life: a stepper fetches it once and reads it after each call. *)
  val cells : picker -> cells

  (** [nb_or_and p members ~v] gathers [v]'s neighbourhood and
      [members]'s cells over it, and leaves their OR in [lo]/[hi] (bit
      [j] set iff some neighbour of [v] is occupied in lane [j]) and
      their AND in [and_lo]/[and_hi] (bit [j] set iff {e every}
      neighbour is). Draw-free. AND-lanes hit deterministically and
      OR-free lanes miss deterministically, so a stepper only needs a
      {!hit} draw when some live lane sits strictly in between — the
      skip that keeps saturated neighbourhoods from burning pick
      draws. *)
  val nb_or_and : picker -> Dstruct.Lanemat.t -> v:int -> unit

  (** [hit p gen] draws one full branching round of picks from the
      neighbourhood the last {!nb_or_and} gathered, for every
      lane at once; bit [j] of [lo]/[hi] is set iff at least one of
      lane [j]'s picks lands in the gathered [members] — the BIPS / SIS
      exposure rule. Raises [Invalid_argument] if that vertex is
      isolated. *)
  val hit : picker -> Prng.Lanes.t -> unit

  (** [scatter p gen ~v ~base_lo ~base_hi ~into] gathers [v]'s
      neighbourhood, draws one full branching round of picks from it
      and, for every lane in [base], adds that lane to the chosen
      neighbours' rows of [into] — the COBRA / push transmission rule. *)
  val scatter :
    picker -> Prng.Lanes.t -> v:int -> base_lo:int -> base_hi:int ->
    into:Dstruct.Lanemat.t -> unit
end
