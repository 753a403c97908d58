(** The registry of every sweepable process kernel: the eight from
    [Cobra.Kernel] (cobra, bips, rwalk, push, pull, push-pull, coalesce,
    explore) plus the four from [Epidemic.Kernels] (sis, contact, herd,
    seir). Grids refer to kernels by name through {!find} /
    {!find_res}.

    {!run_trials} is the shared trial driver behind sweep cells: one
    call plays [trials] independent trials of a kernel under either
    execution engine. [`Scalar] runs each trial on its own stream
    exactly as the historical per-trial loop. [`Lanes] runs them 64 per
    batch on the bit-sliced engine ([Cobra.Lanes] / [Epidemic.Lanes]),
    lane [j] of batch [b] drawing from precisely trial [b * 64 + j]'s
    derived stream; kernels or parameters without a sliced stepper
    (rwalk, pull, push-pull, coalesce, explore, contact, herd, seir,
    [Distinct] branching) silently fall back to the scalar loop, so
    sweeps and campaigns can request [`Lanes] uniformly. *)

val all : Cobra.Kernel.t list

(** [find name] looks a kernel up by its [name] field. *)
val find : string -> Cobra.Kernel.t option

(** [names ()] lists the registered kernel names, registry order. *)
val names : unit -> string list

(** [find_res name] is {!find} with an error message listing the valid
    kernel names — the form grid parsing and the CLI report. *)
val find_res : string -> (Cobra.Kernel.t, string) result

(** {1 Execution engines} *)

type engine = [ `Scalar | `Lanes ]

val engine_to_string : engine -> string

(** [engine_of_string s] parses ["scalar"] / ["lanes"]
    (case-insensitive). *)
val engine_of_string : string -> (engine, string) result

(** [sliced kernel] is the kernel's bit-sliced counterpart, when one
    exists (cobra, bips, push, sis). *)
val sliced : Cobra.Kernel.t -> Cobra.Lanes.t option

(** [lanes_capable kernel params] says whether [`Lanes] would actually
    slice these runs ([false] means the fallback scalar loop runs). *)
val lanes_capable : Cobra.Kernel.t -> Cobra.Kernel.params -> bool

(** [run_trials ?engine kernel g params ~trials ~master ~salt0] plays
    trials [0 .. trials - 1] on the streams derived from
    [salt0 + 0 .. salt0 + trials - 1] and returns their outcomes in
    trial order. With [`Scalar] (the default) the result is
    draw-for-draw identical to the historical per-trial loop; with
    [`Lanes] each trial's outcome is drawn from the same per-trial
    stream through the sliced engine (distributionally equal per trial,
    deterministic in [(master, salt0)], but not draw-for-draw equal to
    scalar). [trials = 0] gives [[||]] on both engines; negative
    [trials] raises [Invalid_argument]. *)
val run_trials :
  ?engine:engine ->
  Cobra.Kernel.t ->
  Graph.View.t ->
  Cobra.Kernel.params ->
  trials:int ->
  master:int ->
  salt0:int ->
  Cobra.Kernel.outcome array
