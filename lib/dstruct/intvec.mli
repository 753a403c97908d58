(** Growable arrays of unboxed integers.

    Amortised O(1) [push]; O(1) random access. Used as frontier buffers and
    edge accumulators throughout the simulation engines. *)

type t

(** [create ()] is an empty vector. [capacity] pre-allocates storage. *)
val create : ?capacity:int -> unit -> t

(** [length v] is the number of stored elements. *)
val length : t -> int

(** [is_empty v] is [length v = 0]. *)
val is_empty : t -> bool

(** [get v i] is the [i]-th element; raises [Invalid_argument] out of range. *)
val get : t -> int -> int

(** [push v x] appends [x]. *)
val push : t -> int -> unit

(** [pop v] removes and returns the last element; raises
    [Invalid_argument] if empty. *)
val pop : t -> int

(** [clear v] resets the length to 0 without shrinking storage. *)
val clear : t -> unit

(** [iter f v] applies [f] to elements in index order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f init v] folds left over the elements. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [to_array v] is a fresh array of the elements. *)
val to_array : t -> int array

(** [of_array a] is a vector containing the elements of [a]. *)
val of_array : int array -> t

(** [to_list v] lists the elements in index order. *)
val to_list : t -> int list

(** [sort v] sorts in place in increasing order. *)
val sort : t -> unit

(** [swap v i j] exchanges two elements. *)
val swap : t -> int -> int -> unit

(** [unsafe_get v i] skips the bounds check (callers must guarantee
    [0 <= i < length v]). It and {!length} are inlined into their
    callers. *)
val unsafe_get : t -> int -> int
