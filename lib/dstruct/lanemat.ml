(* n x 64 lane-occupancy matrix for the bit-sliced Monte-Carlo engine:
   row [v] holds the membership of vertex [v] in 64 independent replica
   lanes. OCaml ints carry 63 bits, so a row is TWO 32-bit cells (the
   same 32-bits-per-int packing as Bitset): cell [2v] holds lanes
   0..31 ("lo"), cell [2v + 1] lanes 32..63 ("hi"). All whole-matrix
   reductions (completion masks, per-lane popcounts) are word scans. *)

type t = { cells : int array; n : int }

let lanes = 64
let block = 32
let cell_mask = 0xFFFFFFFF

let create n =
  if n < 0 then invalid_arg "Lanemat.create: negative capacity";
  { cells = Array.make (2 * n) 0; n }

let capacity m = m.n

let check m v =
  if v < 0 || v >= m.n then invalid_arg "Lanemat: vertex out of range"

let check_lane lane =
  if lane < 0 || lane >= lanes then invalid_arg "Lanemat: lane out of range"

(* Check-free row-cell accessors for the sliced steppers' inner loops;
   [0 <= v < capacity] is the caller's obligation. [@inline], so the
   steppers compile to the cell arithmetic itself. *)
let[@inline] unsafe_lo m v = Array.unsafe_get m.cells (2 * v)
let[@inline] unsafe_hi m v = Array.unsafe_get m.cells ((2 * v) + 1)
let[@inline] unsafe_set_lo m v w = Array.unsafe_set m.cells (2 * v) (w land cell_mask)
let[@inline] unsafe_set_hi m v w = Array.unsafe_set m.cells ((2 * v) + 1) (w land cell_mask)

let mem m v ~lane =
  check m v;
  check_lane lane;
  if lane < block then unsafe_lo m v land (1 lsl lane) <> 0
  else unsafe_hi m v land (1 lsl (lane - block)) <> 0

let add m v ~lane =
  check m v;
  check_lane lane;
  if lane < block then unsafe_set_lo m v (unsafe_lo m v lor (1 lsl lane))
  else unsafe_set_hi m v (unsafe_hi m v lor (1 lsl (lane - block)))

let remove m v ~lane =
  check m v;
  check_lane lane;
  if lane < block then unsafe_set_lo m v (unsafe_lo m v land lnot (1 lsl lane))
  else unsafe_set_hi m v (unsafe_hi m v land lnot (1 lsl (lane - block)))

let clear m = Array.fill m.cells 0 (Array.length m.cells) 0

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Lanemat.blit: capacity mismatch";
  Array.blit src.cells 0 dst.cells 0 (Array.length src.cells)

(* Completion masks: the per-lane AND (resp. OR) over every row. An
   empty universe is vacuously full (AND of nothing), matching
   [Bitset.is_full] on capacity 0. *)
let fold_and m =
  let lo = ref cell_mask and hi = ref cell_mask in
  for v = 0 to m.n - 1 do
    lo := !lo land unsafe_lo m v;
    hi := !hi land unsafe_hi m v
  done;
  (!lo, !hi)

let fold_or m =
  let lo = ref 0 and hi = ref 0 in
  for v = 0 to m.n - 1 do
    lo := !lo lor unsafe_lo m v;
    hi := !hi lor unsafe_hi m v
  done;
  (!lo, !hi)

let count_lane m ~lane =
  check_lane lane;
  let sel v = if lane < block then unsafe_lo m v else unsafe_hi m v in
  let bit = 1 lsl (lane land (block - 1)) in
  let c = ref 0 in
  for v = 0 to m.n - 1 do
    if sel v land bit <> 0 then incr c
  done;
  !c

(* All 64 per-lane popcounts in one pass: zero cells cost one compare,
   nonzero cells one trailing-zero scan per set lane bit. *)
let counts m =
  let out = Array.make lanes 0 in
  for v = 0 to m.n - 1 do
    let cell = ref (unsafe_lo m v) in
    while !cell <> 0 do
      let lane = Bitset.ctz !cell in
      out.(lane) <- out.(lane) + 1;
      cell := !cell land (!cell - 1)
    done;
    let cell = ref (unsafe_hi m v) in
    while !cell <> 0 do
      let lane = block + Bitset.ctz !cell in
      out.(lane) <- out.(lane) + 1;
      cell := !cell land (!cell - 1)
    done
  done;
  out

(* Mask with the lowest [k] lanes set, as (lo, hi) cells: the live-lane
   mask for a batch of [k] trials (phantom lanes stay out of every
   reduction). *)
let lane_mask k =
  if k < 0 || k > lanes then invalid_arg "Lanemat.lane_mask: k outside [0, 64]";
  if k >= lanes then (cell_mask, cell_mask)
  else if k >= block then (cell_mask, (1 lsl (k - block)) - 1)
  else ((1 lsl k) - 1, 0)

let of_rows rows =
  let n = Array.length rows in
  let m = create n in
  Array.iteri
    (fun v row ->
      if Array.length row <> lanes then
        invalid_arg "Lanemat.of_rows: row must have 64 lanes";
      Array.iteri (fun lane b -> if b then add m v ~lane) row)
    rows;
  m

let to_rows m =
  Array.init m.n (fun v -> Array.init lanes (fun lane -> mem m v ~lane))
