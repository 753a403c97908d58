(** The unified stochastic-process interface.

    Every process this repository studies — COBRA, BIPS, the simple
    random walk, the push/pull/push-pull protocols, coalescing walks
    with voting, the unvisited-edge-preferring walk, and (in
    [Epidemic.Kernels]) SIS, the contact process, the herd model and
    the SEIR process — is driveable through one
    signature: [create] builds mutable round-based state, [step] plays
    one round against an explicit stream, [is_complete] tests the
    process's own absorption condition, and [observe] reads named
    numeric observables of the current state. Each kernel is the only
    implementation of its process, and {!run} is the only loop that runs
    a process to completion: the sweep subsystem ([Simkit.Campaign] +
    the [sweep] CLI), the single-shot CLI subcommands, the experiments,
    examples and benchmarks all build on it.

    A kernel's [step] consumes {e exactly} the randomness of one round
    of its process, so a run is a pure function of its input stream.
    Golden rows in [test/sweep] and [test/cobra] pin every kernel's
    stream to the values its historical one-shot driver produced, and
    [test/cli]'s transcripts pin the CLI output byte-for-byte. *)

(** The union of the knobs the processes understand. Each kernel reads
    the fields relevant to it and ignores the rest; {!default_params}
    matches the CLI defaults. *)
type params = {
  branching : Branching.t;  (** COBRA/BIPS branching; SIS/herd contacts *)
  start : int;  (** start vertex / source / index case *)
  walkers : int;  (** random walk: number of independent walkers *)
  rate : float;  (** contact process: per-edge infection rate *)
  horizon : float;  (** contact process: simulated-time horizon *)
  recovery : float;  (** SIS: per-round recovery probability *)
  persistent : bool;
      (** SIS/contact: never-recovering source; herd: PI animal *)
  infectious_rounds : int;  (** herd/seir: infectious-window duration *)
  immune_rounds : int;  (** herd: post-infection immunity duration *)
  latent_rounds : int;  (** seir: Exposed duration before infectiousness *)
  cap : int option;
      (** round cap for {!run}; [None] selects the kernel's default *)
}

val default_params : params

(** Mutable process state behind first-class functions. [step] plays one
    round (one walk move for the random walk; the whole event-driven run
    for the continuous-time contact process, which has no round
    structure). [rounds] counts completed [step]s for the cap. *)
type instance = {
  step : Prng.Rng.t -> unit;
  is_complete : unit -> bool;
  rounds : unit -> int;
  observe : unit -> (string * float) list;
}

(** A process kernel: a named constructor of instances. *)
type t = {
  name : string;  (** CLI / grid identifier, e.g. ["cobra"] *)
  doc : string;  (** one-line description *)
  default_cap : Graph.View.t -> int;
      (** the cap {!run} applies when [params.cap = None] *)
  create : Graph.View.t -> params -> instance;
}

(** The result of driving an instance to completion or the cap. *)
type outcome = {
  completed : bool;  (** [is_complete] held when the loop stopped *)
  rounds : int;  (** rounds played *)
  observations : (string * float) list;  (** final [observe] *)
}

(** [round_cap g] is [10_000 + 100 * n]: the default cap of every
    kernel except the walks ([rwalk], [coalesce] and [explore] use
    [Rwalk.default_cap]) and the event-driven contact process. *)
val round_cap : Graph.View.t -> int

(** [cap t g params] is the round cap {!run} applies: [params.cap], or
    [t.default_cap g] when that is [None]. *)
val cap : t -> Graph.View.t -> params -> int

(** [run t g params rng] creates an instance and steps it until
    [is_complete] or [cap t g params] rounds. Completion is tested
    before each step, so a process complete at the start plays no
    round. *)
val run : t -> Graph.View.t -> params -> Prng.Rng.t -> outcome

(** [completion_time t g params rng] is [Some rounds] when {!run}
    completes and [None] when the cap stops it. *)
val completion_time : t -> Graph.View.t -> params -> Prng.Rng.t -> int option

(** [observation o key] looks a named observable up in [o]. *)
val observation : outcome -> string -> float option

(** {1 Kernel instances}

    Observables: every kernel reports ["rounds"]; coverage-style kernels
    also report ["visited"]; see each kernel's doc string for the rest.
    [Epidemic.Kernels] adds [sis], [contact], [herd] and [seir]. *)

(** COBRA cover: complete when every vertex has been active at least
    once. Observes ["rounds"; "visited"; "frontier"; "transmissions"]. *)
val cobra : t

(** BIPS: complete at saturation [A_t = V]. Observes
    ["rounds"; "infected"]. *)
val bips : t

(** Simple random walk(s) from [start]: [params.walkers >= 1]
    independent walkers move in synchronous rounds, each along one
    uniform neighbour draw, in walker order; complete when their union
    has visited every vertex. One walker is the COBRA [k = 1] baseline;
    several are the "many random walks" model of Alon et al. (the
    paper's reference [1]), which speeds cover up by at most a factor
    ~[walkers]. Default cap [Rwalk.default_cap]. Observes
    ["rounds"; "visited"]. *)
val rwalk : t

(** Push rumour spreading: each round every informed vertex pushes to
    one random neighbour, forever — so, unlike COBRA, late rounds spend
    transmissions on an almost fully informed graph. Complete when
    everyone is informed. Observes
    ["rounds"; "informed"; "transmissions"]. *)
val push : t

(** Pull rumour spreading (Fountoulakis–Panagiotou, see PAPERS.md):
    each round every uninformed vertex calls one random neighbour and
    copies the rumour if the callee knows it. Only uninformed vertices
    draw, in increasing vertex order. Complete when everyone is
    informed. Observes ["rounds"; "informed"; "transmissions"]. *)
val pull : t

(** Push-pull rumour spreading (Fountoulakis–Panagiotou, see
    PAPERS.md): each round every vertex, in increasing order, contacts
    one random neighbour and information crosses the contact both ways.
    Complete when everyone is informed. Observes
    ["rounds"; "informed"; "transmissions"]. *)
val push_pull : t

(** Coalescing random walks with voting ({!Coalesce};
    Cooper–Elsässer–Ono–Radzik, see PAPERS.md): [params.walkers]
    clusters starting at [(start + i) mod n] merge on meeting. Complete
    at consensus (one cluster). Observes
    ["rounds"; "clusters"; "walkers"; "merged"]. *)
val coalesce : t

(** Unvisited-edge-preferring walk ({!Explore};
    Berenbrink–Cooper–Friedetzky, see PAPERS.md): a single walker from
    [start] that prefers unvisited incident edges. Complete at vertex
    cover. Observes ["rounds"; "visited"; "edges"]. *)
val explore : t
