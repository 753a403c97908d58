(** Flooding, the deterministic broadcast baseline for the
    transmission-budget comparison (experiment E11): every informed
    vertex sends to all neighbours each round — fastest possible rounds,
    maximal transmissions. The randomized protocols it is compared with
    are the {!Kernel.push}, {!Kernel.pull} and {!Kernel.push_pull}
    kernels. *)

type outcome = {
  rounds : int;  (** rounds until all vertices informed *)
  transmissions : int;  (** total messages sent over all rounds *)
}

(** [flood g ~start] — deterministic flooding; rounds equal the start
    vertex's eccentricity. *)
val flood : Graph.View.t -> start:int -> outcome
