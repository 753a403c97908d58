(** Off-heap CSR on int32 Bigarrays.

    Same representation contract as {!Csr} — vertices [0 .. n-1], each
    undirected edge stored as two arcs, adjacency sorted within each
    vertex's slice — but the row-offset and arc arrays live outside the
    OCaml heap, so the GC neither scans nor moves them. At 4 bytes per
    arc a 10^7-vertex 4-regular instance costs ~160 MB of untracked
    memory and zero mark time, which is what makes the large-n scale
    tier affordable. Neighbour order is identical to {!Csr}, so RNG draw
    sequences match arc for arc across the two representations. *)

(** The storage element type, exposed for consumers that walk the raw
    arrays (the spectral matvec specialises its inner loop on it). *)
type arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [private], as {!Csr.t}, so {!View} reads the arrays directly. *)
type t = private {
  n : int;
  offsets : arr;  (** length [n + 1] *)
  adjacency : arr;  (** sorted within each vertex's slice *)
}

(** [of_csr g] copies a heap CSR into off-heap storage. Raises
    [Invalid_argument] if a vertex id or the arc count exceeds the int32
    range. *)
val of_csr : Csr.t -> t

(** [to_csr g] materialises the graph back on the OCaml heap (used by
    consumers that need the dense exact paths). *)
val to_csr : t -> Csr.t

(** [of_edge_iter ~n iter] is the streaming double-pass constructor,
    mirroring {!Csr.of_edge_iter}: [iter f] must call [f u v] exactly
    once per undirected edge and replay the same sequence on both
    passes; a non-replay-stable iterator raises [Invalid_argument].
    Validation (range, self-loops, duplicates) is as for {!Csr}. *)
val of_edge_iter : n:int -> ((int -> int -> unit) -> unit) -> t

(** [of_edges ~n edges] is {!of_edge_iter} over a list. *)
val of_edges : n:int -> (int * int) list -> t

(** [of_sorted_arcs ~n ~degree ~iter] fills the arrays directly from a
    per-vertex enumeration that is already sorted and simple — the
    closed-form families — skipping the census, sort and duplicate
    passes. [degree v] must equal the number of calls [iter v] makes. *)
val of_sorted_arcs :
  n:int -> degree:(int -> int) -> iter:(int -> (int -> unit) -> unit) -> t

val n_vertices : t -> int
val n_edges : t -> int

(** The row-offset array (length [n+1]) and arc array, raw. Read-only by
    convention. Neighbour queries go through {!View}, which reads these
    arrays itself. *)
val unsafe_offsets : t -> arr

val unsafe_adjacency : t -> arr
