(** Symmetric tridiagonal matrices: eigenvalues by Sturm-sequence
    bisection, eigenvectors by inverse iteration. Sizes here are Lanczos
    step counts (tens to a few thousand); one eigenvalue costs about 55
    bisection steps of O(m) each, and the method is unconditionally
    robust. *)

(** [eigenvalue ~diag ~off k] is the [k]-th smallest eigenvalue
    ([0 <= k < m], 0 the smallest) of the symmetric tridiagonal matrix
    with diagonal [diag] (length m) and off-diagonal [off] (length
    m - 1), bisected to [epsilon_float] times the largest Gershgorin
    bound in magnitude. *)
val eigenvalue : diag:float array -> off:float array -> int -> float

(** [eigenvalues ~diag ~off] returns all eigenvalues in increasing
    order. *)
val eigenvalues : diag:float array -> off:float array -> float array

(** [count_below ~diag ~off x] is the number of eigenvalues strictly below
    [x] (Sturm count). *)
val count_below : diag:float array -> off:float array -> float -> int

(** [eigenvector ~diag ~off theta] is [(s, r)]: a unit vector [s] from
    three steps of inverse iteration at the shift [theta] (normally an
    eigenvalue from {!eigenvalue}), and its residual
    [r = ‖(T − θI) s‖₂]. Pivots of [T − θI] are kept at least
    [epsilon_float · |T|] in size, so [s] and [r] are finite even when
    [theta] is an eigenvalue to the last digit or sits in a cluster;
    [r] then says how good [s] is. *)
val eigenvector : diag:float array -> off:float array -> float -> float array * float
