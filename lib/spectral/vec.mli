(** Dense float-vector kernels backing the eigensolvers. All operations are
    over [float array]; size mismatches raise [Invalid_argument]. *)

(** [dot x y] is the inner product. *)
val dot : float array -> float array -> float

(** [norm2 x] is the Euclidean norm. *)
val norm2 : float array -> float

(** [scale x a] multiplies [x] by [a] in place. *)
val scale : float array -> float -> unit

(** [axpy ~a ~x ~y] performs [y <- a*x + y] in place. *)
val axpy : a:float -> x:float array -> y:float array -> unit

(** [normalize x] rescales [x] to unit norm in place; raises on the zero
    vector. *)
val normalize : float array -> unit

(** [center x] subtracts [x]'s mean from every entry, in place: the
    projection orthogonal to the constant vector. *)
val center : float array -> unit

(** [random rng n] is a uniform random vector on [-1, 1)^n. *)
val random : Prng.Rng.t -> int -> float array
