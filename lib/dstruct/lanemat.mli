(** [n] x 64 lane-occupancy matrices for the bit-sliced Monte-Carlo
    engine.

    A [Lanemat.t] stores, for each vertex [0 .. n - 1], its membership
    in 64 independent replica {e lanes}: lane [j] of every row taken
    together is the occupancy set of replica [j]. Because OCaml ints
    carry 63 bits, a row is two 32-bit cells in one flat int array —
    cell [2v] holds lanes 0..31 (the "lo" block), cell [2v + 1] lanes
    32..63 (the "hi" block) — the same 32-bits-per-word packing as
    {!Bitset}. Whenever an operation passes or returns a pair of cells,
    the order is [(lo, hi)].

    Row-cell reads and writes are O(1); whole-matrix reductions
    (completion masks, per-lane counts) are single passes over [2n]
    words. *)

(** [private], so the layout above can be read back; every cell is
    written by this module and stays within 32 bits. The sliced steppers
    go through the row-cell helpers below. *)
type t = private { cells : int array; n : int }

(** [lanes] is the number of replica lanes per row ([64]). *)
val lanes : int

(** [create n] is the all-empty matrix on vertices [0 .. n - 1]. *)
val create : int -> t

(** [capacity m] is the vertex count [n]. *)
val capacity : t -> int

(** [mem m v ~lane] tests vertex [v]'s membership in [lane]. Checked:
    out-of-range [v] or [lane] raises [Invalid_argument]. *)
val mem : t -> int -> lane:int -> bool

(** [add m v ~lane] / [remove m v ~lane] set or clear one bit. *)
val add : t -> int -> lane:int -> unit

val remove : t -> int -> lane:int -> unit

(** [clear m] empties every lane. *)
val clear : t -> unit

(** [blit ~src ~dst] overwrites [dst] with [src]; equal capacities
    required. *)
val blit : src:t -> dst:t -> unit

(** {1 Check-free row-cell access}

    The sliced steppers' inner loops read and write whole 32-lane cells
    through these, which are inlined into their callers.
    [0 <= v < capacity] is the caller's obligation; writes keep only the
    low 32 bits of the given word. *)

val unsafe_lo : t -> int -> int

val unsafe_hi : t -> int -> int

val unsafe_set_lo : t -> int -> int -> unit

val unsafe_set_hi : t -> int -> int -> unit

(** {1 Reductions} *)

(** [fold_and m] is the per-lane AND over every row, as [(lo, hi)]:
    bit [j] is set iff every vertex is occupied in lane [j] (the
    saturation / cover completion mask). The empty universe is
    vacuously full. *)
val fold_and : t -> int * int

(** [fold_or m] is the per-lane OR over every row: bit [j] is set iff
    lane [j] occupies at least one vertex (its complement is the
    extinction mask). *)
val fold_or : t -> int * int

(** [count_lane m ~lane] is the number of vertices occupied in [lane]. *)
val count_lane : t -> lane:int -> int

(** [counts m] is all 64 per-lane occupancy counts in one pass,
    [counts.(j) = count_lane m ~lane:j]. *)
val counts : t -> int array

(** [lane_mask k] is the [(lo, hi)] cell pair with exactly the lowest
    [k] lane bits set, [0 <= k <= 64]: the live-lane mask of a batch
    running [k] trials, used to keep phantom lanes out of every
    reduction. *)
val lane_mask : int -> int * int

(** [of_rows rows] packs a [bool array array] of shape [n] x 64
    (row [v], lane [j]); {!to_rows} unpacks. The model interface for
    property tests. *)
val of_rows : bool array array -> t

val to_rows : t -> bool array array
