(** Spectral gap and the paper's theory-bound arithmetic, shared by the
    experiment harness and the CLI. *)

type t = {
  lambda : float;  (** λ = max(|θ₂|, |θ_min|), the estimate of max(|λ₂|, |λ_n|) *)
  gap : float;  (** 1 - λ *)
  bound : float;
      (** the larger of the two {!Lanczos.extremes} bounds. Eigenvalues
          μ₂ and μ_min lie within their bounds of θ₂ and θ_min, so
          [lambda] is within [bound] of max(|μ₂|, |μ_min|) *)
}

(** [of_extremes e] is the gap of a {!Lanczos.extremes} result. *)
val of_extremes : Lanczos.extremes -> t

(** [estimate rng g] is [of_extremes (Lanczos.extremes rng g)]: one
    Lanczos run, to its tolerance stop, on the connected regular graph
    [g]. *)
val estimate : Prng.Rng.t -> Graph.View.t -> t

(** [theorem1_bound ~n t] is [log n / gap³] — the paper's T for Theorems 1
    and 2 (up to the hidden constant). *)
val theorem1_bound : n:int -> t -> float

(** [satisfies_gap_condition ~n t] checks the paper's premise
    [1 - λ >> sqrt (log n / n)]; returns the ratio
    [gap / sqrt (log n / n)] (values well above 1 satisfy it). *)
val satisfies_gap_condition : n:int -> t -> float

(** [pp] prints [lambda=… ± bound gap=…]: λ with six decimals, the gap
    with three significant digits ([%.3g]), so a gap of 5.49e-6 prints
    as [5.49e-06], not as [0.000005]. *)
val pp : Format.formatter -> t -> unit
