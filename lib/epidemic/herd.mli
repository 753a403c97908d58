(** A BVDV-style herd transmission model (Innocent et al. [9], the paper's
    motivating reference for persistent sources).

    Bovine viral diarrhoea virus produces two kinds of infected animals:
    {e transiently} infected ones, which shed virus briefly and then gain
    immunity, and {e persistently} infected (PI) ones — infected in utero —
    which shed virus for life. Reference [9] simulates introducing one PI
    animal into an infection-free herd; the paper abstracts exactly this
    structure into BIPS. This module reproduces the qualitative model:

    - state machine per animal:
      Susceptible → Transient (for [infectious_rounds]) →
      Immune (for [immune_rounds]) → Susceptible; PI animals are
      permanently infectious;
    - contact structure: per round each susceptible animal contacts
      [contacts] random neighbours in the herd graph (pens are modelled by
      the graph itself, e.g. {!Graph.Gen.ring_of_cliques});
    - infection: contacting any currently infectious animal (transient or
      PI).

    The headline measurement, matching [9]: with a PI animal present, how
    long until every animal has been exposed; without one, whether the
    infection from a transient index case dies out. The
    [Epidemic.Kernels.herd] kernel runs the model to either end. *)

type status = Susceptible | Transient | Immune | Persistent

type params = {
  contacts : Cobra.Branching.t;  (** contacts per susceptible per round *)
  infectious_rounds : int;  (** duration of a transient infection, >= 1 *)
  immune_rounds : int;  (** duration of post-infection immunity, >= 0 *)
}

type t

(** [create g params ~pi ~index_cases] — [pi] animals become persistently
    infected; [index_cases] start transiently infected. At least one of
    the two must be non-empty. *)
val create : Graph.View.t -> params -> pi:int list -> index_cases:int list -> t

(** [step h rng] plays one round. *)
val step : t -> Prng.Rng.t -> unit

(** [round h] is the number of completed rounds. *)
val round : t -> int

(** [status h v] is animal [v]'s current state. *)
val status : t -> int -> status

(** [count h s] counts animals currently in state [s]. *)
val count : t -> status -> int

(** [infectious_count h] is [count Transient + count Persistent]. *)
val infectious_count : t -> int

(** [ever_exposed_count h] counts animals that have been infected at least
    once (including PI and index cases). *)
val ever_exposed_count : t -> int

(** [is_extinct h] — no infectious animal remains (impossible with a PI
    animal present). *)
val is_extinct : t -> bool
