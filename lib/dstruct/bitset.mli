(** Fixed-capacity sets of small integers, backed by a packed bit array.

    A [Bitset.t] represents a subset of [{0, ..., capacity - 1}]. All
    single-element operations are O(1); whole-set operations are
    O(capacity / word_size). Indices outside [0 .. capacity - 1] raise
    [Invalid_argument].

    Member [i] is bit [i mod word_size] of [words.(i / word_size)], and
    bits at or above [n] in the last word stay zero (see {!iter_words}).
    The record is [private] so a hot loop can scan [words] in place
    (with {!ctz} and {!member_at}); only this module writes them. *)

type t = private { words : int array; n : int }

(** [create n] is the empty subset of [{0, ..., n - 1}]. [n] must be
    non-negative. *)
val create : int -> t

(** [capacity s] is the universe size [n] given at creation. *)
val capacity : t -> int

(** [mem s i] tests membership of [i]. *)
val mem : t -> int -> bool

(** [add s i] inserts [i]. *)
val add : t -> int -> unit

(** [remove s i] deletes [i]. *)
val remove : t -> int -> unit

(** [unsafe_mem], [unsafe_add], [unsafe_remove]: check-free variants of
    {!mem}/{!add}/{!remove} for simulation inner loops. Identical results
    for [0 <= i < capacity]; out-of-range indices are undefined
    behaviour. They and the other word helpers below are inlined into
    their callers. *)
val unsafe_mem : t -> int -> bool

val unsafe_add : t -> int -> unit

val unsafe_remove : t -> int -> unit

(** [unsafe_add_new s i] adds [i] and is [true] iff [i] was not a
    member. Unchecked, as {!unsafe_add}. *)
val unsafe_add_new : t -> int -> bool

(** [member_at w b] is the member that bit [b] of [words.(w)] stands
    for. *)
val member_at : int -> int -> int

(** [popcount c] is the number of set bits of a 32-bit cell, and [ctz c]
    the number of trailing zero bits of a nonzero one: the one copy for
    [words], {!Lanemat} cells and [Graph.Implicit]'s hypercube labels. *)
val popcount : int -> int

val ctz : int -> int

(** [clear s] removes every element. *)
val clear : t -> unit

(** [fill s] inserts every element of the universe. *)
val fill : t -> unit

(** [cardinal s] is the number of elements, computed by popcount in
    O(capacity / word_size). *)
val cardinal : t -> int

(** [is_empty s] is [cardinal s = 0], without computing the cardinal. *)
val is_empty : t -> bool

(** [is_full s] tests whether [s] contains its whole universe. *)
val is_full : t -> bool

(** [copy s] is a fresh set with the same elements. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the contents of [src]. The two
    sets must have equal capacity. *)
val blit : src:t -> dst:t -> unit

(** [union_into ~src ~dst] adds every element of [src] to [dst]. Equal
    capacities required. *)
val union_into : src:t -> dst:t -> unit

(** [inter_into ~src ~dst] removes from [dst] the elements not in [src].
    Equal capacities required. *)
val inter_into : src:t -> dst:t -> unit

(** [diff_into ~src ~dst] removes from [dst] every element of [src]. *)
val diff_into : src:t -> dst:t -> unit

(** [equal a b] tests extensional equality (capacities must match, else
    [false]). *)
val equal : t -> t -> bool

(** [subset a b] tests whether every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [iter f s] applies [f] to each element in increasing order.
    Implemented as a word scan with trailing-zero extraction: zero words
    cost O(1), so a sparse set over a large universe iterates in
    O(capacity / word_size + cardinal) rather than O(capacity). *)
val iter : (int -> unit) -> t -> unit

(** [word_size] is the number of universe indices packed per word
    ([32]). Word [w] covers indices [w * word_size .. w * word_size +
    word_size - 1]; see {!iter_words}. *)
val word_size : int

(** [iter_words f s] applies [f w cell] to every packed word in index
    order (including zero words). Bit [b] of [cell] (for
    [0 <= b < word_size]) is set iff [w * word_size + b] is a member.
    This is the raw traversal primitive under {!iter}/{!fold}; callers
    can use it for word-parallel set algebra without going through
    per-element callbacks. *)
val iter_words : (int -> int -> unit) -> t -> unit

(** [next_member s i] is the smallest member [>= i], or [None] if no
    member of [s] is [>= i] (always [None] for [i >= capacity]).
    [i] must be non-negative. O(capacity / word_size) worst case, O(1)
    when a member is nearby. *)
val next_member : t -> int -> int option

(** [fold f s init] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list s] lists the elements in increasing order. *)
val to_list : t -> int list

(** [of_list n xs] is the subset of [{0, ..., n-1}] containing [xs]. *)
val of_list : int -> int list -> t

(** [choose s] is the smallest element, or [None] if empty. *)
val choose : t -> int option
