(** The campaign daemon: serves sweep submissions over a Unix-domain
    socket, multiplexing concurrent campaigns over one set of dispatch
    lanes and one shared content-addressed result cache.

    Architecture (one process):

    - the caller of {!run} becomes the accept loop; each connection is
      handled by its own thread speaking {!Protocol} (one request per
      connection), all in the caller's domain;
    - [domains] {e dispatch lanes}, each a long-lived domain of its own,
      run the cells. A lane takes one cell under the daemon lock, from
      the running job with the fewest cells in flight (ties go to
      submission order; with at least as many lanes as running jobs,
      every running job keeps a cell in flight, so a long campaign
      cannot starve a short one), runs it with {!Simkit.Campaign.execute_cell} with the lock
      released, and records it under the lock. A lane sleeps only when
      no running job has a queued cell, so no cell waits for another
      lane's cell. Every checkpoint record and the final manifest are
      byte-identical to what the batch [cobra sweep] path writes, and
      cells of a submission land incrementally (which is what makes
      kill-and-resume work at any point);
    - no lane computes in the accept loop's domain: a computing lane
      there would hold that domain's runtime lock, and every RPC would
      wait for the lock's tick before it is answered;
    - all bookkeeping lives behind one mutex. A job whose cells have
      drained is closed out (the manifest, from the digests its plan
      kept, and the Finished event) by exactly one thread with the lock
      released; it is not reported terminal, nor with a manifest, until
      that is done. A terminal job drops its plan and keeps only the
      counts [status] and [stats] report. Progress goes to each job's [events.jsonl] through
      [Simkit.Eventlog] (atomic line appends), which the [events] op
      tails; lanes record cells in completion order, so only that
      wall-clock file depends on scheduling.

    Admission control and quotas (typed refusals, see
    {!Protocol.error_kind}):

    - at most [max_jobs] campaigns run concurrently; up to
      [queue_depth] more wait in FIFO order; beyond that submissions
      are refused with [Busy];
    - a submission expanding to more than [max_cells_per_submit]
      pending cells is refused with [Quota_exceeded];
    - a client whose unfinished cells (across its queued and running
      jobs) would exceed [max_inflight_per_client] is refused with
      [Quota_exceeded];
    - two active jobs can never share an output directory — paths are
      canonicalized ([Unix.realpath]) before comparison, so two
      spellings of one directory count as the same ([Busy]).

    Because results are keyed content-addressed in the shared
    {!Simkit.Cellstore}, a resubmission of identical work (same master,
    addresses and meta) is served entirely from cache: zero cells
    recomputed, which the [stats] op exposes. *)

type config = {
  socket : string;  (** Unix-domain socket path; created on start *)
  cache : string option;  (** shared result-cache directory *)
  max_jobs : int;  (** campaigns running concurrently *)
  queue_depth : int;  (** additional campaigns allowed to wait *)
  max_cells_per_submit : int;  (** per-submission cell quota *)
  max_inflight_per_client : int;  (** per-client unfinished-cell quota *)
  domains : int option;
      (** dispatch lanes, one domain each; [None] uses
          [Simkit.Pool.default_domains] *)
}

(** [default_config ~socket] — no cache, 2 concurrent jobs, queue of 8,
    10_000 cells per submission, 50_000 in flight per client, default
    domain count. *)
val default_config : socket:string -> config

(** [run ?ready config] starts the daemon and blocks until a [shutdown]
    request arrives (in-flight cells finish and are checkpointed, every
    lane domain is joined, and unfinished jobs end [cancelled]; queued
    cells stay pending for a resubmission with [resume]). Returns
    [Error _] without serving if [domains] or [max_jobs] is below 1,
    [queue_depth] is negative, or the socket path is already live or
    cannot be bound. [ready] (default: nothing) is called once, when
    the socket is listening and before any request is served; a refused
    start never calls it. *)
val run : ?ready:(unit -> unit) -> config -> (unit, string) result
