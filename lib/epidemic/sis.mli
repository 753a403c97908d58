(** A discrete SIS (susceptible–infected–susceptible) contact process.

    The paper situates BIPS among epidemic models: the classical contact
    process can die out, while BIPS cannot because of its persistent
    source. This module provides that classical counterpoint. Per round:
    infected vertices first recover with probability [recovery]; then
    every vertex that is now susceptible (including same-round
    recoverers) samples [contacts] random neighbours and becomes infected
    iff any sample was infected in the previous round. An optional
    persistent source never recovers.

    With [recovery = 1.0] and a persistent source, every non-source
    vertex re-samples each round against the previous infected set — the
    process {e is} BIPS. With no persistent source the process can (and,
    when subcritical, does) die out, which is the paper's contrast.

    The round semantics above are pinned by an exact oracle:
    [Cobra.Exact.sis_step_dist] enumerates the one-round transition on
    small graphs and [test/conformance] checks {!step} samples it. *)

type params = {
  contacts : Cobra.Branching.t;  (** contacts sampled per susceptible per round *)
  recovery : float;  (** per-round recovery probability, in [0, 1] *)
}

type t

(** [create g params ~persistent ~start] initialises with the vertices of
    [start] infected; [persistent], if given, is added to the infected set
    and never recovers. *)
val create : Graph.View.t -> params -> persistent:int option -> start:int list -> t

(** [step p rng] plays one synchronous round (infection then recovery). *)
val step : t -> Prng.Rng.t -> unit

(** [round p] is the number of completed rounds. *)
val round : t -> int

(** [infected p v] — is [v] currently infected? *)
val infected : t -> int -> bool

(** [infected_count p] is the current number of infected vertices. *)
val infected_count : t -> int

(** [ever_infected_count p] counts vertices infected at least once. *)
val ever_infected_count : t -> int

(** [is_extinct p] is [infected_count p = 0]. *)
val is_extinct : t -> bool

(** [prevalence_trajectory ?cap g params ~persistent ~start rng] records
    the infected count per round until extinction, full exposure (every
    vertex infected at least once) or [cap] rounds (default
    {!Cobra.Kernel.round_cap}). Runs to those two stopping conditions
    are the [Epidemic.Kernels.sis] kernel. *)
val prevalence_trajectory :
  ?cap:int ->
  Graph.View.t ->
  params ->
  persistent:int option ->
  start:int list ->
  Prng.Rng.t ->
  int array
