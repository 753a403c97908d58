(** Immutable undirected graphs in compressed sparse row form.

    Vertices are [0 .. n_vertices - 1]. Each undirected edge {u, v} is
    stored twice (once per endpoint); adjacency lists are sorted. The
    representation is two int arrays, so a million-edge graph costs a few
    megabytes and neighbour access is one index. Every generator produces
    it; processes read it, like the other two backends, through {!View}.

    The record is [private] so that {!View}, the one module with
    per-backend code, can read the two arrays in its hot accessors; it
    cannot be built or mutated outside this module. *)

type t = private {
  n : int;
  offsets : int array;
      (** length [n + 1]; [v]'s neighbours sit at
          [adjacency.(offsets.(v)) .. adjacency.(offsets.(v + 1) - 1)] *)
  adjacency : int array;  (** sorted within each vertex's slice *)
}

(** [of_edges ~n edges] builds the graph on [n] vertices with the given
    undirected edges. Raises [Invalid_argument] on out-of-range endpoints,
    self-loops, or duplicate edges (the processes in this repository are
    defined on simple graphs). *)
val of_edges : n:int -> (int * int) list -> t

(** [of_edge_arrays ~n ~us ~vs] is [of_edges] over the edges
    [(us.(i), vs.(i))], avoiding intermediate lists for large graphs. The
    arrays must have equal length. *)
val of_edge_arrays : n:int -> us:int array -> vs:int array -> t

(** [of_edge_iter ~n iter] is the streaming constructor underlying
    {!of_edges} and {!of_edge_arrays}: [iter f] must call [f u v] exactly
    once per undirected edge, and must enumerate the same edges in the
    same order each time it is invoked (it is run twice — once to count
    degrees, once to place arcs). No intermediate edge array is
    materialised, so builders can stream edges straight out of their
    accumulators. Validation is as for {!of_edges}; in addition, an
    iterator that does not replay the pass-1 census exactly (extra,
    missing or moved edges on the second run) raises [Invalid_argument]
    instead of silently producing a corrupt graph. *)
val of_edge_iter : n:int -> ((int -> int -> unit) -> unit) -> t

(** [n_vertices g] is the number of vertices. *)
val n_vertices : t -> int

(** [n_edges g] is the number of undirected edges. *)
val n_edges : t -> int

(** [degree g v] is the number of neighbours of [v]. *)
val degree : t -> int -> int

(** [mem_edge g u v] tests adjacency by binary search: O(log degree). *)
val mem_edge : t -> int -> int -> bool

(** [iter_neighbours g v ~f] applies [f] to each neighbour of [v] in sorted
    order. *)
val iter_neighbours : t -> int -> f:(int -> unit) -> unit

(** [fold_neighbours g v ~init ~f] folds over the neighbours of [v]. *)
val fold_neighbours : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [neighbours g v] is a fresh array of [v]'s neighbours. *)
val neighbours : t -> int -> int array

(** [edges g] lists each undirected edge once, as [(u, v)] with [u < v],
    in lexicographic order. *)
val edges : t -> (int * int) list

(** [iter_edges g ~f] applies [f u v] to each undirected edge once,
    with [u < v]. *)
val iter_edges : t -> f:(int -> int -> unit) -> unit

(** [regularity g] is [Some r] if every vertex has degree [r], else
    [None]. A graph with no vertices is [Some 0]. *)
val regularity : t -> int option

(** [max_degree g] and [min_degree g]; both 0 on the empty graph. *)
val max_degree : t -> int

val min_degree : t -> int

(** [degree_counts g] maps degree [d] to the number of vertices of degree
    [d], as a sorted association list. *)
val degree_counts : t -> (int * int) list

(** [equal a b] is structural equality (same vertex count, same edge
    set). *)
val equal : t -> t -> bool

(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. Used by tests for invariance properties. *)
val relabel : t -> int array -> t

(** [unsafe_offsets g] and [unsafe_adjacency g] expose the underlying CSR
    arrays for read-only use by performance-critical callers (spectral
    matvec). Mutating them is undefined behaviour. *)
val unsafe_offsets : t -> int array

val unsafe_adjacency : t -> int array

(** [pp] prints a short [n=..., m=..., r=...] summary. *)
val pp : Format.formatter -> t -> unit

(** [sort_range a lo hi] sorts [a.(lo) .. a.(hi - 1)] in place. Exposed
    for the sibling CSR builder ({!Bigcsr}); not part of the graph API. *)
val sort_range : int array -> int -> int -> unit
