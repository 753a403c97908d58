(** The pluggable topology layer: one read-only value every process
    engine, kernel, lane stepper and spectral operator consumes, backed
    by any of three representations:

    - the heap {!Csr} (wrapped — the historical default),
    - the off-heap int32 {!Bigcsr} (GC-invisible edge arrays),
    - an {!Implicit} closed-form family (no stored adjacency at all).

    Two contracts hold on every backend. {b Order}: each vertex's
    neighbours enumerate in ascending order, matching the sorted CSR
    slice. {b Draws}: {!unsafe_random_neighbour} consumes exactly one
    [Prng.Rng.int rng degree] draw. Together these make simulation RNG
    streams bit-identical across backends — the property the golden
    tests and campaign checkpoints rely on.

    Views are immutable and safe to share across domains; accessors
    perform no allocation and no mutation. Degree statistics
    ({!max_degree}, {!min_degree}, {!regularity}) are computed once at
    construction. *)

type t

(** The underlying representation, exposed so performance-critical
    consumers (the spectral matvec) can specialise their inner loop per
    backend after a single dispatch. *)
type repr = Heap of Csr.t | Big of Bigcsr.t | Implicit of Implicit.t

(** Backend selector for construction sites (CLI flags, sweep grids). *)
type backend = [ `Heap | `Bigarray | `Implicit ]

val backend_of_string : string -> (backend, string) result
val backend_to_string : backend -> string

val of_csr : Csr.t -> t
val of_bigcsr : Bigcsr.t -> t
val of_implicit : Implicit.t -> t

val repr : t -> repr

(** [backend t] names the representation actually backing [t]. *)
val backend : t -> backend

(** [to_csr t] materialises the graph on the OCaml heap: free for the
    heap backend, a copy for the others. The dense exact paths
    ([Cobra.Exact], graph I/O) use it. *)
val to_csr : t -> Csr.t

val n_vertices : t -> int
val n_edges : t -> int
val degree : t -> int -> int
val nth_neighbour : t -> int -> int -> int
val random_neighbour : t -> Prng.Rng.t -> int -> int
val iter_neighbours : t -> int -> f:(int -> unit) -> unit
val fold_neighbours : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val neighbours : t -> int -> int array
val mem_edge : t -> int -> int -> bool

(** [iter_edges t ~f] applies [f u v] to each undirected edge once, with
    [u < v], in lexicographic order. *)
val iter_edges : t -> f:(int -> int -> unit) -> unit

val regularity : t -> int option
val max_degree : t -> int
val min_degree : t -> int

(** [bfs t src] is the array of BFS distances from [src]; unreachable
    vertices get [-1]. [Algo.bfs] over a view. *)
val bfs : t -> int -> int array

(** {1 Unchecked accessors}

    Identical results to the checked accessors above for in-range
    arguments, undefined behaviour otherwise. These are the simulation
    inner loops, and the
    per-backend code a kernel step needs lives here, not in the
    kernels: one dispatch on the representation per call, then on the
    heap and bigarray backends a read of the CSR arrays in place. *)

val unsafe_degree : t -> int -> int

val unsafe_nth_neighbour : t -> int -> int -> int
val unsafe_random_neighbour : t -> Prng.Rng.t -> int -> int
val unsafe_iter_neighbours : t -> int -> f:(int -> unit) -> unit

(** [unsafe_neighbours_into t v buf] copies [v]'s neighbours, in the
    ascending order of {!unsafe_nth_neighbour}, to [buf.(0 .. d - 1)]
    and returns [d], [v]'s degree. It dispatches on the representation
    once per call and then runs one copy loop for that backend, so on
    the heap and bigarray backends a consumer that reads a whole
    neighbourhood pays one call for it instead of one per neighbour
    (the implicit loop still calls [Implicit.nth] per neighbour). [v] is unchecked; a [buf] shorter
    than [d] raises [Invalid_argument] (size it with {!max_degree}).
    Never use it to make one random pick: {!unsafe_random_neighbour}
    reads one entry where this reads [d] (a [K_n] vertex has [n - 1]). *)
val unsafe_neighbours_into : t -> int -> int array -> int

(** [pp] prints the same [graph(n=..., m=..., ...)] summary as
    [Csr.pp], independent of backend. *)
val pp : Format.formatter -> t -> unit
