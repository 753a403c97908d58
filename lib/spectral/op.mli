(** Matrix-free linear operators on graph vertex space.

    The eigensolvers only need [y <- M x]; operators are closures over the
    CSR arrays, so no matrix is ever materialised. *)

type t = { n : int; apply : x:float array -> y:float array -> unit }

(** [walk_matrix g] is the simple-random-walk transition matrix
    [P = D^{-1} A]. Symmetric exactly when [g] is regular (the setting of
    the paper); the symmetric eigensolvers check this. *)
val walk_matrix : Graph.View.t -> t

(** [apply op x] allocates and returns [M x]. *)
val apply : t -> float array -> float array
