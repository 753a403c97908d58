(** A discrete SEIR epidemic with fixed latencies.

    The latency-structured counterpart of {!Sis}, modelled on the
    Gro-Tsen [run-epidemic.pl] / Priesemann contact-pattern designs
    (SNIPPETS.md §2, where infections traverse a fixed latent period
    [T_lat] before a fixed infectious window): each vertex moves
    Susceptible → Exposed (for [latent_rounds]) → Infectious (for
    [infectious_rounds]) → Recovered, and Recovered is absorbing — no
    reinfection, so the process always terminates within
    [n * (latent_rounds + infectious_rounds)] rounds.

    Round structure matches {!Sis.step}/{!Herd.step}: timers advance
    first (Infectious vertices whose window ends recover, Exposed
    vertices whose latency ends turn infectious), then every {e still
    susceptible} vertex draws its [contacts] picks in increasing vertex
    order against the infectious set {e snapshotted at the start of the
    round}, and new exposures apply synchronously after the scan. A
    vertex infected with [latent_rounds = 0] skips Exposed and becomes
    infectious for the {e next} round (it is never in its own round's
    snapshot).

    Headline observables, following the epidemic-script tradition:
    attack rate (fraction ever infected), peak infectious load, and a
    generational reproduction number R — each new infection is
    attributed to generation [g + 1] where [g] is the earliest
    generation among the infectious contacts drawn, and R is the mean
    successive generation-size ratio. The [Epidemic.Kernels.seir]
    kernel runs the process to absorption and reports all three. *)

type status = Susceptible | Exposed | Infectious | Recovered

type params = {
  contacts : Cobra.Branching.t;  (** contact picks per susceptible per round *)
  latent_rounds : int;  (** Exposed duration, >= 0 (0 skips Exposed) *)
  infectious_rounds : int;  (** Infectious duration, >= 1 *)
}

type t

(** [create g params ~index_cases] starts the given vertices Infectious
    with a full timer (generation 0); everyone else is Susceptible.
    [index_cases] must be non-empty. *)
val create : Graph.View.t -> params -> index_cases:int list -> t

(** [step p rng] plays one synchronous round. *)
val step : t -> Prng.Rng.t -> unit

val round : t -> int

val status : t -> int -> status

(** [infectious_count p] — vertices currently Infectious. *)
val infectious_count : t -> int

(** [exposed_count p] — vertices currently Exposed. *)
val exposed_count : t -> int

(** [ever_infected_count p] — vertices ever infected (the attack count),
    index cases included. *)
val ever_infected_count : t -> int

(** [peak_infectious p] — the maximum of [infectious_count] over all
    round boundaries so far. *)
val peak_infectious : t -> int

(** [is_absorbed p] — no Exposed or Infectious vertex remains. Always
    reached: recovered vertices never rejoin the susceptible pool. *)
val is_absorbed : t -> bool

(** [generational_r p] is the mean of |generation g+1| / |generation g|
    over the non-empty generations so far; 0.0 while only generation 0
    exists. *)
val generational_r : t -> float
