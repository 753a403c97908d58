(** Trial runners: repeat a stochastic measurement over independent
    streams and summarise. Capped runs ([None] results) are counted as
    censored rather than silently dropped into the statistics.

    {!collect} is the only loop over trials; the other runners fold its
    array. Trial [i] always draws from the stream
    [Seeds.trial_rng ~master ~salt:(salt0 + i)] and lands in slot [i], so
    the result is {e bit-for-bit identical} however many domains run the
    batch and however the pool schedules its chunks.

    [?domains] sets the lane count for one call: [1] is the plain
    sequential loop, [d > 1] a transient pool of [d] domains. When
    omitted the shared {!Pool.default} pool (sized by [COBRA_DOMAINS])
    runs the batch, so [COBRA_DOMAINS=1] is the exact sequential path.
    [f] runs concurrently on several domains: it must not touch shared
    mutable state (the standard trial closures — build nothing, simulate
    on a shared {e immutable} graph, return a value — are safe as-is).
    The shared pool takes one batch at a time: code that already runs on
    a pool lane, or beside another batch, passes [~domains:1]. *)

type 'a censored = { values : 'a array; censored : int }

(** [collect ~trials ~master ~salt0 f] evaluates
    [f (trial_rng ~master ~salt:(salt0 + i))] for [i = 0 .. trials - 1]
    and returns the results in trial order. Raises [Invalid_argument]
    unless [trials >= 1]. *)
val collect :
  ?domains:int -> trials:int -> master:int -> salt0:int -> (Prng.Rng.t -> 'a) -> 'a array

(** [collect_censored ~trials ~master ~salt0 f] keeps the [Some] results,
    in trial order, and counts the [None]s. *)
val collect_censored :
  ?domains:int ->
  trials:int ->
  master:int ->
  salt0:int ->
  (Prng.Rng.t -> 'a option) ->
  'a censored

(** [summarize_int ~trials ~master ~salt0 f] summarises an integer-valued
    censored measurement (e.g. a cover time) into a {!Stats.Summary.t}
    and the censored count; raises [Failure] if {e every} trial was
    censored. *)
val summarize_int :
  ?domains:int ->
  trials:int ->
  master:int ->
  salt0:int ->
  (Prng.Rng.t -> int option) ->
  Stats.Summary.t * int
