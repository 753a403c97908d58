(** Known walk-matrix spectra for structured families — the oracles the
    numerical eigensolvers are tested against, and cheap λ sources for the
    experiment harness.

    All functions return λ = max(|λ₂|, |λ_n|), the quantity the paper's
    bounds use, unless stated otherwise. *)

(** [complete n] — K_n has walk eigenvalues {1, -1/(n-1)}, so
    λ = 1/(n-1); [n >= 2]. *)
val complete : int -> float

(** [cycle n] — C_n has eigenvalues cos(2πj/n); λ = 1 for even [n]
    (bipartite), else [cos(π/n)]... precisely [max_j>=1 |cos(2πj/n)|]. *)
val cycle : int -> float

(** [hypercube d] — Q_d has eigenvalues 1 - 2i/d; λ = 1 (bipartite) for
    [d >= 1]. [signed_hypercube] returns (λ₂, λ_n) = (1 - 2/d, -1). *)
val hypercube : int -> float

val signed_hypercube : int -> float * float

(** [folded_hypercube d] — FQ_d has walk eigenvalues
    [((d - 2k) + (-1)^k)/(d+1)] for k = 0..d; λ = (d-1)/(d+1); [d >= 2]. *)
val folded_hypercube : int -> float

(** [complete_bipartite] — K_{a,b} has eigenvalues {1, 0, -1}; λ = 1. *)
val complete_bipartite : int -> int -> float

(** [circulant n offsets] — eigenvalues are
    [(Σ_o w_o(j)) / r] for j = 0 .. n-1 where [w_o(j) = 2cos(2π o j / n)]
    (halved when 2o = n); computed by direct evaluation. *)
val circulant : int -> int list -> float

(** [signed_circulant n offsets] is (λ₂, λ_n) for the circulant. *)
val signed_circulant : int -> int list -> float * float

(** [circulant_spectrum n offsets] is every eigenvalue, entry [j] the
    one above (entry 0 the trivial 1). *)
val circulant_spectrum : int -> int list -> float array

(** [torus dims] — the product of cycles has eigenvalues equal to averages
    of the factor eigenvalues (the walk matrix of a Cartesian product of
    regular graphs is the weighted average of the factors' walk matrices);
    computed by direct enumeration over the eigenvalue grid. Sides must be
    [>= 3] (so the torus is 2-regular in each dimension). Enumeration is
    O(Π dims), fine for experiment-sized tori. *)
val torus : int array -> float

(** [torus_spectrum dims] is every eigenvalue of that grid, entry 0 the
    trivial 1. *)
val torus_spectrum : int array -> float array

(** [star n] — λ of the star's walk matrix is 1 (bipartite); exposed for
    completeness of the oracle set. *)
val star : int -> float
