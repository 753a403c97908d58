(** Empirical-vs-exact distribution checks for the conformance suite.

    [test/conformance] validates every stochastic kernel by sampling it
    many times under the repository's seed discipline and comparing the
    empirical distribution against an exact oracle (usually
    [Cobra.Exact]) with a {!Stats.Gof} test. This module is the sampling
    half: it fans the draws over the domain pool with {!Trial.collect}
    (so results are bit-identical at any [COBRA_DOMAINS]), tabulates them
    against the oracle's support, and {e fails hard} on any draw outside
    that support — a sample landing in a zero-probability cell is a
    kernel bug that no chi-square p-value should be allowed to average
    away.

    Seed policy: each check derives its stream family from a unique
    string tag via {!Seeds.salt_of_tag}, so adding a check never shifts
    the draws of another and every verdict is reproducible from the
    master seed alone. *)

(** [samples ?domains ~master ~tag ~trials sample] draws
    [sample (Seeds.trial_rng ~master ~salt:(salt_of_tag tag + i))] for
    [i = 0 .. trials - 1] over the domain pool. Deterministic in
    [(master, tag, trials)]. *)
val samples :
  ?domains:int ->
  master:int ->
  tag:string ->
  trials:int ->
  (Prng.Rng.t -> 'a) ->
  'a array

(** [counts ?domains ~master ~tag ~trials ~dist ~equal ~describe ~sample ()]
    tabulates [trials] draws against the support of [dist] (an exact
    distribution as [(outcome, probability)] pairs, every probability
    positive and summing to 1 within 1e-9). Returns observed counts
    aligned with [dist]'s order.

    Raises [Failure] — naming the tag and the offending outcome via
    [describe] — if any draw is outside the support: the oracle assigns
    it probability zero, so one such draw already refutes the kernel. *)
val counts :
  ?domains:int ->
  master:int ->
  tag:string ->
  trials:int ->
  dist:('a * float) list ->
  equal:('a -> 'a -> bool) ->
  describe:('a -> string) ->
  sample:(Prng.Rng.t -> 'a) ->
  unit ->
  int array

(** [check ?domains ?min_expected ~alpha ~master ~tag ~trials ~dist
    ~equal ~describe ~sample ()] is the full pipeline: draw, tabulate
    ({!counts}), pool sparse cells ({!Stats.Gof.pool_low_expected} at
    [min_expected], default 5.0), and run Pearson's chi-square at
    [alpha]. *)
val check :
  ?domains:int ->
  ?min_expected:float ->
  alpha:float ->
  master:int ->
  tag:string ->
  trials:int ->
  dist:('a * float) list ->
  equal:('a -> 'a -> bool) ->
  describe:('a -> string) ->
  sample:(Prng.Rng.t -> 'a) ->
  unit ->
  Stats.Gof.result
