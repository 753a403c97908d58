(** Declarative sweep grids: graph family x process kernel x branching,
    with shared trial counts and kernel parameters.

    A grid expands ({!cells}) into the cartesian product of its three
    axes, in a fixed order (graphs outermost, then kernels, then
    branchings), each point becoming one [Simkit.Campaign] cell whose
    address is the canonical ["g=<spec>;k=<kernel>;b=<branching>"]
    string. Cell payloads are deterministic functions of
    [(master, salt)]: the cell's graph comes from the stream tagged by
    the graph description (so every cell of the same spec sees the same
    graph, built once per {!cells} list and master), then the cell runs
    [trials] kernel trials on the streams [salt + 0 .. salt + trials - 1].

    Grids are written as JSON documents (schema {!schema}) or as inline
    [key=value;...] strings; {!load} accepts either (a path that exists
    on disk is parsed as a file). *)

type t = {
  name : string;  (** campaign name; default ["sweep"] *)
  graphs : Graph.Spec.t list;
  kernels : Cobra.Kernel.t list;
  branchings : Cobra.Branching.t list;
  trials : int;
  base : Cobra.Kernel.params;
      (** shared kernel parameters; [branching] is overridden per cell *)
  engine : Kernels.engine;
      (** trial execution engine ([key engine=scalar|lanes]; default
          scalar). [`Lanes] runs lanes-capable kernels 64 trials per
          word via [Kernels.run_trials], falling back to scalar per
          kernel; it is part of the campaign identity, so checkpoints
          written under one engine refuse to resume under the other. *)
  backend : Graph.View.backend;
      (** topology backend the cells build their graph behind
          ([key backend=heap|bigarray|implicit]; default heap). All
          three produce bit-identical RNG streams for the same
          topology, but the backend is still part of the campaign
          identity — a checkpoint written under one backend refuses to
          resume under another, so a cross-backend divergence can never
          hide inside a mixed checkpoint. Heap grids omit the meta key,
          keeping pre-existing checkpoints valid. *)
}

(** The grid-file schema identifier, ["cobra.sweep-grid/1"]. *)
val schema : string

(** [of_json doc] parses a grid document:
    [{"schema"?, "name"?, "graphs": [...], "kernels": [...],
      "branching"?: [...], "trials"?, "engine"?, "backend"?,
      "params"?: {...}}].
    [params] accepts [start], [walkers], [rate], [horizon], [recovery],
    [persistent], [infectious_rounds], [immune_rounds], [latent_rounds],
    [cap]. *)
val of_json : Simkit.Json.t -> (t, string) result

(** [of_inline s] parses the compact CLI form, e.g.
    ["name=smoke;graphs=cycle:12,complete:8;kernels=cobra,bips;branching=k=2;trials=3;rate=1.5"]
    — the same keys as the JSON form, with [params] flattened. *)
val of_inline : string -> (t, string) result

(** [load s] reads [s] as a file when it exists on disk, otherwise
    parses it as an inline grid. A non-existent [s] that looks like a
    file path (ends in [.json], or contains no ['=']) is reported as a
    missing file instead of being fed to the inline parser. *)
val load : string -> (t, string) result

(** [cells grid] expands the grid into campaign cells (addresses unique,
    indices positional).

    The cells of one returned list share one graph per spec and master:
    the first of them to run with a given [master] builds the view of
    its spec (from the stream tagged ["sweep:graph:<spec>"], behind the
    grid's backend) while holding that spec's lock; a cell of the same
    spec on another domain waits on the lock instead of building it
    again, and later cells reuse the view. A view is immutable and a
    pure function of [(master, spec, backend)], so payloads are the same
    as if each cell built its own, on any number of domains and in any
    order. A spec's graph is dropped once no running cell holds it and
    a cell of another spec or master has asked for its own graph, so no
    more graphs are alive than domains run cells. No lock is held while
    a kernel runs. A failed build is not kept: each cell of the spec
    builds again and raises [Failure "<address>: graph build failed:
    <reason>"] with its own address. Distinct lists share nothing.

    The metas of one list share structure. A cell's meta is
    [[graph; kernel; branching; params]]; the [params] block is built
    once per list, each branching's field with [params] behind it once
    per branching, and each kernel's and each graph's field once, so a
    cell owns only the two cons cells in front of its branching's tail
    (about 30 live words per cell with its address, record and run
    closure, against 139 with a meta of its own). [Json.t] is immutable,
    so the sharing cannot be observed, and the meta bytes, digests and
    cache keys are those of a meta built per cell. *)
val cells : t -> Simkit.Campaign.cell list
