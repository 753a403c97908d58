(** Checkpointed sweep campaigns: run an addressed grid of cells with
    one durable JSON record per completed cell, so a killed campaign
    resumes by replaying only the missing cells.

    A {e cell} is the unit of work and of checkpointing: it has a stable
    [index] (its position in the expanded grid), a canonical [address]
    string, and a [run] function that must be a deterministic function
    of [(master, salt)]. The engine derives each cell's salt from its
    address alone ({!Cellid.salt}, never from execution order), so
    results are independent of scheduling, domain count, and of how many
    times the campaign was interrupted. Consequently the final
    [manifest.json] and every cell record of an interrupted-then-resumed
    campaign are {e byte-identical} to an uninterrupted run — the
    property [test/simkit] and [test/sweep] pin.

    The subsystem is three separable layers, reusable outside the batch
    [run] driver (the campaign daemon in [lib/serve] drives them
    directly):

    - {e identity} — {!Cellid}: canonical address + meta digest;
    - {e storage} — {!Cellstore}: the shared content-addressed result
      cache, plus this module's per-campaign checkpoint records;
    - {e execution} — {!plan} (classify checkpoints, initialise the
      grid), {!execute_cell} (run or cache-fetch one cell and write its
      record), {!finalize} (write the manifest once complete). {!run}
      is the batch composition of the three over the domain pool.

    On-disk layout under [config.dir]:
    - [grid.json] — the campaign identity (schema {!grid_schema}): name,
      master seed and the full cell list, each with its address {e and}
      its [meta] (which for sweep grids carries trial counts and base
      parameters). A resume refuses to run if any of it does not match,
      so changing e.g. [trials] cannot silently reuse stale checkpoints.
    - [cells/cell_NNNNN.json] — one checkpoint record per completed cell
      (schema {!cell_schema}) holding the cell's payload plus a content
      digest. Written atomically (temp file + rename), so a kill leaves
      either a complete record or none. Corrupt records — truncation,
      parse failure, digest mismatch — are detected on resume, reported
      through [config.progress], and re-run; they are never silently
      trusted or skipped.
    - [events.jsonl] — append-only observability stream (via
      {!Eventlog}: one atomic write per line, so concurrent tails never
      see a torn line): one {!event} per line. This is the only file
      containing wall-clock data; it is {e excluded} from the
      byte-identity guarantee.
    - [manifest.json] — written once every cell has a valid record
      (schema {!manifest_schema}): the cells in index order with their
      file names and digests. Deterministic and byte-stable.

    When [config.cache] is set, every executed cell first consults the
    content-addressed store under the key [(master, address, meta
    digest)]; a hit skips [cell.run] entirely (the payload is provably
    byte-identical by the determinism contract above) and a miss
    populates the store after running, with the cell's checkpoint bytes
    as the record. Either way the checkpoint is then a hard link to the
    cache record when the record holds exactly this campaign's
    checkpoint bytes, and a file of its own otherwise (see {!Cellstore}
    for the cases). The cache can be shared between campaigns, users
    and processes. *)

type cell = {
  index : int;  (** position in the expanded grid; must equal the list position *)
  address : string;  (** canonical, unique within the campaign *)
  meta : (string * Json.t) list;
      (** identity-bearing fields (e.g. trial count, base parameters):
          recorded in [grid.json] and in each cell record, digested into
          the cache key, and compared on resume — a checkpoint with
          different meta is rejected *)
  run : master:int -> salt:int -> Json.t;
      (** compute the payload; must be deterministic in [(master, salt)]
          and safe to call from any domain *)
}

(** Typed progress events. The engine emits these both to
    [config.progress] and (as JSON, via {!event_to_json}) to
    [events.jsonl]; string rendering happens only at the edges
    ({!event_to_string} in the CLI), so the daemon forwards structure
    instead of re-parsing lines. *)
type event =
  | Started of {
      name : string;
      total : int;  (** cells in the grid *)
      pending : int;  (** cells queued to execute this invocation *)
      reused : int;  (** valid checkpoints reused *)
      corrupted : int;  (** invalid checkpoints re-queued *)
    }
  | Cell_done of {
      index : int;
      address : string;
      cached : bool;  (** payload came from the content-addressed store *)
      done_ : int;  (** cells finished so far this invocation *)
      of_ : int;  (** cells being executed this invocation *)
      elapsed_s : float;
      cells_per_s : float;
      eta_s : float;
    }
  | Corrupt_rerun of {
      index : int;
      address : string;
      path : string;
      reason : string;
    }
  | Finished of {
      ran : int;
      cached : int;
      reused : int;
      corrupted : int;
      remaining : int;
      manifest : string option;
    }

(** [event_to_json e] is the [events.jsonl] line shape: an object whose
    ["event"] field is ["started"], ["cell"], ["corrupt"] or
    ["finished"]. *)
val event_to_json : event -> Json.t

(** [event_of_json doc] parses {!event_to_json}'s output back (used by
    the daemon client to render streamed events). *)
val event_of_json : Json.t -> (event, string) result

(** [event_to_string e] is the human one-line rendering the CLI
    prints. *)
val event_to_string : event -> string

type config = {
  dir : string;  (** checkpoint/output directory, created if needed *)
  master : int;  (** master seed, recorded in [grid.json] *)
  resume : bool;  (** allow continuing an initialised directory *)
  max_cells : int option;  (** run at most this many cells this invocation *)
  domains : int option;  (** pool size; [None] uses [Pool.default ()] *)
  cache : Cellstore.t option;
      (** shared content-addressed result cache; [None] always runs *)
  progress : event -> unit;  (** typed progress stream (see {!event}) *)
}

type report = {
  total : int;  (** cells in the grid *)
  ran : int;  (** cells actually executed (cache misses) this invocation *)
  cached : int;  (** cells satisfied from the result cache *)
  reused : int;  (** valid checkpoint records reused *)
  corrupted : int;  (** invalid records detected (and re-queued) *)
  remaining : int;  (** cells still missing after this invocation *)
  manifest : string option;  (** manifest path once the campaign completed *)
}

val grid_schema : string

val cell_schema : string
(** ["cobra.campaign-cell/1"], {!Cellstore.checkpoint_schema} *)

val manifest_schema : string

(** [cellid cell] is the cell's content-addressed identity,
    [Cellid.make ~address ~meta]. *)
val cellid : cell -> Cellid.t

(** [salt_of_address a] is the trial-salt base of the cell addressed [a]
    — a pure function of the address, shared with resumed runs
    (equal to [Cellid.salt] of any id with that address). *)
val salt_of_address : string -> int

(** The MD5 of the checkpoint of every cell the campaign has placed or
    reused, one slot per cell index: what {!finalize} writes into the
    manifest and {!remaining} counts, without reading [cells/]. *)
type digests

(** A classified campaign: grid initialised (or identity-checked against
    the existing [grid.json]), every existing checkpoint validated. *)
type plan = {
  p_name : string;
  p_config : config;
  p_cells : cell list;  (** the full grid, index order *)
  p_pending : cell list;  (** cells without a valid record, index order *)
  p_reused : int;
  p_corrupt : (cell * string * string) list;
      (** invalid checkpoints: cell, record path, reason — these cells
          are also in [p_pending] *)
  p_digests : digests;
      (** filled by {!plan} for the reused checkpoints, from the bytes it
          validated, and by {!execute_cell} for the ones it places *)
}

(** [plan config ~name ~cells] validates the cell list, initialises the
    campaign directory and classifies every cell. It lists [cells/]
    once and validates every entry named like a checkpoint, so an entry
    that cannot be read as one is reported corrupt, not taken for a
    missing cell: a directory, a dangling symlink, a FIFO (which is not
    waited on) or anything else that is not a regular file, and any
    file that does not validate. Pure of side effects beyond
    directory/grid creation: nothing is executed and no events are
    emitted. *)
val plan : config -> name:string -> cells:cell list -> (plan, string) result

(** [execute_cell plan cell] produces the cell's record: from the result
    cache when [config.cache] hits ([`Cached] — [cell.run] is not
    invoked), else by running the cell and populating the cache
    ([`Ran]). Writes [cells/cell_NNNNN.json] atomically either way: with
    a cache, by hard-linking the cache record onto that name when its
    bytes are the rendered checkpoint ({!Fsutil.link_atomic}: one
    [link(2)], replacing a corrupt checkpoint there), else as a new
    file. Records the digest of the bytes it placed in [plan.p_digests].
    Safe to call from any domain, on distinct cells; callers own
    scheduling and event emission, and must order every call before
    {!finalize} (a lock or a join does). *)
val execute_cell : plan -> cell -> [ `Ran | `Cached ]

(** [remaining plan] counts the cells this plan has neither reused nor
    placed a checkpoint for. It reads no file: a checkpoint someone else
    deletes or edits after the campaign placed it still counts as
    placed, and is caught by the next resume's validation. *)
val remaining : plan -> int

(** [finalize plan] writes [manifest.json] and returns its path iff
    every cell has a checkpoint the campaign placed or reused; [None]
    otherwise. The manifest's digests come from [plan.p_digests], not
    from re-reading [cells/], so, as for {!remaining}, a change someone
    else makes to a checkpoint after placement is caught on resume, not
    here. *)
val finalize : plan -> string option

(** [run config ~name ~cells] executes the campaign: {!plan}, then the
    pending cells (truncated to [max_cells]) over the domain pool, then
    {!finalize} — emitting {!event}s to [config.progress] and
    [events.jsonl] throughout. Errors (cell list invariants, unreadable
    or mismatching [grid.json], refusing to reuse an initialised
    directory without [resume]) are returned as [Error _] without
    touching existing checkpoints. An exception raised by a cell aborts
    the campaign after the in-flight cells finish; completed records
    remain on disk for a later resume. *)
val run : config -> name:string -> cells:cell list -> (report, string) result
