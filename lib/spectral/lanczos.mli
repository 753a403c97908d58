(** The extreme nontrivial eigenvalues of a regular graph's walk matrix
    by the plain three-term Lanczos recurrence, with Paige's residual
    bound on each.

    No basis is stored: the recurrence keeps three n-vectors and the
    m × m tridiagonal T_m, and removes the constant eigenvector by
    subtracting each iterate's mean. The extreme Ritz values θ₂ (largest)
    and θ_min (smallest) come from bisection on T_m. For a Ritz value θ
    with unit tridiagonal eigenvector s, [b = |β_m · s_m|] (plus the
    inverse iteration's residual ‖(T_m − θ)s‖, normally about 1e-16)
    bounds the distance from θ to the spectrum: {b some} eigenvalue of
    the walk matrix, other than the trivial 1, lies in [θ ± b] (Paige).
    That holds in exact arithmetic; rounding in the recurrence has added
    up to 1.5e-15 on the families tested, which test/spectral allows
    for with 1e-12.

    That eigenvalue need not be the extreme one. After a fixed, small
    number of steps a Ritz value can sit close to an interior
    eigenvalue: the 12 steps of [make bench-scale] on the implicit d = 24
    hypercube give θ_min = −0.931 ± 0.13, nearest the eigenvalue −0.917,
    while λ_n = −1. When the run stops on the tolerance, θ₂ and θ_min
    have matched the extreme closed forms within their bounds on every
    family tested (test/spectral). *)

type extremes = {
  lambda_2 : float;  (** θ₂, the largest Ritz value *)
  bound_2 : float;  (** some eigenvalue lies in [lambda_2 ± bound_2] *)
  lambda_min : float;  (** θ_min, the smallest Ritz value *)
  bound_min : float;  (** some eigenvalue lies in [lambda_min ± bound_min] *)
  steps : int;  (** Lanczos steps (matrix-vector products) used *)
}

(** [tol] = [1e-10], the bound at which both extremes count as
    converged. *)
val tol : float

(** [extremes ?steps rng g] runs Lanczos on the walk matrix of the
    connected regular graph [g] from a random start drawn from [rng]
    ([n] floats). It stops at the first of: both bounds at most {!tol}
    (checked every [max 4 (m/8)] steps, so a run may pass the step
    where they first fell below it); [steps] steps (default [4n], at
    least 64); an invariant subspace (the next β is at most {!tol}).
    Raises [Invalid_argument] if [g] is not regular. *)
val extremes : ?steps:int -> Prng.Rng.t -> Graph.View.t -> extremes
