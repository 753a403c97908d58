(* Closed-form graph families where the i-th neighbour of a vertex is
   arithmetic: no adjacency is ever stored, so a d=24 hypercube (1.6e7
   vertices, 2e8 edges) costs a few words of memory. The one contract
   that matters is neighbour ORDER: [nth t v i] enumerates exactly the
   sorted adjacency slice the materialised {!Csr} would hold, so a
   simulation's [Prng.Rng.int rng degree] draw selects the same vertex
   on either backend and RNG streams stay bit-identical. The
   cross-backend equivalence suite in test/graph pins this for every
   family. *)

type t =
  | Complete of int
  | Cycle of int
  | Path of int
  | Hypercube of int
  | Folded_hypercube of int
  | Lattice of { dims : int array; stride : int array; wrap : bool; n : int }
  | Circulant of { n : int; offsets : int array }

(* Validation mirrors [Gen]'s so a family rejects the same inputs under
   every backend — except the hypercubes, whose materialised cap (d <=
   20) exists only to bound heap size and is lifted to d <= 30 here. *)

let complete n =
  if n < 1 then invalid_arg "Gen.complete: n >= 1 required";
  Complete n

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n >= 3 required";
  Cycle n

let path n =
  if n < 1 then invalid_arg "Gen.path: n >= 1 required";
  Path n

let hypercube d =
  if d < 0 || d > 30 then invalid_arg "Implicit.hypercube: 0 <= d <= 30";
  Hypercube d

let folded_hypercube d =
  if d < 2 || d > 30 then invalid_arg "Implicit.folded_hypercube: 2 <= d <= 30";
  Folded_hypercube d

let lattice ~wrap dims =
  Array.iter
    (fun d -> if d < 1 then invalid_arg "Gen.lattice: sides must be >= 1")
    dims;
  let n = Array.fold_left ( * ) 1 dims in
  let k = Array.length dims in
  let stride = Array.make k 1 in
  for i = k - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * dims.(i + 1)
  done;
  Lattice { dims = Array.copy dims; stride; wrap; n }

let torus dims = lattice ~wrap:true dims
let grid dims = lattice ~wrap:false dims

let circulant n offsets =
  if n < 3 then invalid_arg "Gen.circulant: n >= 3 required";
  let sorted = List.sort_uniq compare offsets in
  if List.length sorted <> List.length offsets then
    invalid_arg "Gen.circulant: duplicate offsets";
  List.iter
    (fun o ->
      if o < 1 || o > n / 2 then
        invalid_arg "Gen.circulant: offsets must lie in 1 .. n/2")
    sorted;
  Circulant { n; offsets = Array.of_list sorted }

let n_vertices = function
  | Complete n | Cycle n | Path n -> n
  | Hypercube d -> 1 lsl d
  | Folded_hypercube d -> 1 lsl d
  | Lattice { n; _ } -> n
  | Circulant { n; _ } -> n

let n_edges = function
  | Complete n -> n * (n - 1) / 2
  | Cycle n -> n
  | Path n -> n - 1
  | Hypercube d -> (1 lsl d) * d / 2
  | Folded_hypercube d -> (1 lsl d) * (d + 1) / 2
  | Lattice { dims; wrap; n; _ } ->
    Array.fold_left
      (fun acc side ->
        if side = 1 then acc
        else begin
          let lines = n / side in
          let per_line = side - 1 + if wrap && side > 2 then 1 else 0 in
          acc + (lines * per_line)
        end)
      0 dims
  | Circulant { n; offsets } ->
    Array.fold_left (fun acc o -> acc + if 2 * o = n then n / 2 else n) 0 offsets

(* Per-axis degree contribution of a lattice coordinate. *)
let axis_degree ~wrap ~side c =
  if side = 1 then 0
  else if side = 2 then 1
  else if wrap then 2
  else (if c > 0 then 1 else 0) + if c + 1 < side then 1 else 0

let degree t v =
  match t with
  | Complete n -> n - 1
  | Cycle _ -> 2
  | Path n -> if n = 1 then 0 else if v = 0 || v = n - 1 then 1 else 2
  | Hypercube d -> d
  | Folded_hypercube d -> d + 1
  | Lattice { dims; stride; wrap; _ } ->
    let acc = ref 0 in
    for i = 0 to Array.length dims - 1 do
      let side = dims.(i) in
      let c = v / stride.(i) mod side in
      acc := !acc + axis_degree ~wrap ~side c
    done;
    !acc
  | Circulant { n; offsets } ->
    let acc = ref 0 in
    for j = 0 to Array.length offsets - 1 do
      acc := !acc + if 2 * offsets.(j) = n then 1 else 2
    done;
    !acc

let min_degree t =
  match t with
  | Complete n -> n - 1
  | Cycle _ -> 2
  | Path n -> if n = 1 then 0 else 1
  | Hypercube d -> d
  | Folded_hypercube d -> d + 1
  | Lattice { dims; wrap; _ } ->
    (* Vertex 0 sits at the low corner of every axis simultaneously. *)
    Array.fold_left (fun acc side -> acc + axis_degree ~wrap ~side 0) 0 dims
  | Circulant _ as c -> degree c 0

let max_degree t =
  match t with
  | Complete n -> n - 1
  | Cycle _ -> 2
  | Path n -> if n = 1 then 0 else if n = 2 then 1 else 2
  | Hypercube d -> d
  | Folded_hypercube d -> d + 1
  | Lattice { dims; wrap; _ } ->
    (* An interior coordinate (c = 1 on a side >= 3) maximises every
       axis; sides < 3 contribute the same on every coordinate. *)
    Array.fold_left
      (fun acc side -> acc + axis_degree ~wrap ~side (if side >= 3 then 1 else 0))
      0 dims
  | Circulant _ as c -> degree c 0

let regularity t =
  let lo = min_degree t and hi = max_degree t in
  if lo = hi then Some lo else None

(* ------------------------------------------------------------------ *)
(* Sorted neighbour enumeration                                        *)

(* Hypercube neighbours of [v] in ascending order: clearing a set bit
   yields a smaller value (the higher the bit, the smaller the result),
   setting a clear bit a larger one (the lower the bit, the smaller the
   result). So: set bits from high to low, then clear bits from low to
   high. [extra], a vertex that is no hypercube neighbour of [v] (the
   folded hypercube's complement edge; [max_int] for none), goes in at
   its place in that order. Neither [f] nor [extra] needs a closure or a
   cell of its own, so a walk over every vertex allocates nothing. *)
let iter_hypercube d v ~extra f =
  let extra = ref extra in
  for b = d - 1 downto 0 do
    if (v lsr b) land 1 = 1 then begin
      let w = v lxor (1 lsl b) in
      if !extra < w then begin
        f !extra;
        extra := max_int
      end;
      f w
    end
  done;
  for b = 0 to d - 1 do
    if (v lsr b) land 1 = 0 then begin
      let w = v lor (1 lsl b) in
      if !extra < w then begin
        f !extra;
        extra := max_int
      end;
      f w
    end
  done;
  if !extra < max_int then f !extra

(* Bit position of the (k+1)-th set bit of [v] scanning down from
   [b]; total number of set bits below [b]+1 must exceed [k]. *)
let rec kth_set_below v b k =
  if (v lsr b) land 1 = 1 then
    if k = 0 then b else kth_set_below v (b - 1) (k - 1)
  else kth_set_below v (b - 1) k

(* Bit position of the (k+1)-th clear bit of [v] scanning up from [b]. *)
let rec kth_clear_above v b k =
  if (v lsr b) land 1 = 0 then
    if k = 0 then b else kth_clear_above v (b + 1) (k - 1)
  else kth_clear_above v (b + 1) k

let nth_hypercube d v i =
  let s = Dstruct.Bitset.popcount v in
  if i < s then v lxor (1 lsl kth_set_below v (d - 1) i)
  else v lor (1 lsl kth_clear_above v 0 (i - s))

(* Rank of the complement neighbour among the folded hypercube's sorted
   slice: how many dimension-flip neighbours precede it. *)
let folded_rank d v =
  let y = v lxor ((1 lsl d) - 1) in
  let r = ref 0 in
  for b = 0 to d - 1 do
    if v lxor (1 lsl b) < y then incr r
  done;
  !r

(* The families whose neighbours are not monotone in any single scan
   select them: [least_above t v prev] is the least neighbour of [v]
   above [prev] ([max_int] when none is), found by comparing every
   candidate. The candidates are distinct, so taking the least one above
   the previous one, over and over, walks the sorted slice. Degrees are
   O(dims), so the quadratic selection is a handful of operations, and
   it runs in loops over ints: no closure, no cell. *)
let least_of prev best w = if w > prev && w < best then w else best

let least_above t v prev =
  let best = ref max_int in
  (match t with
  | Lattice { dims; stride; wrap; _ } ->
    for i = 0 to Array.length dims - 1 do
      let side = dims.(i) and st = stride.(i) in
      let c = v / st mod side in
      if side = 2 then best := least_of prev !best (if c = 0 then v + st else v - st)
      else if side > 2 then begin
        if c > 0 then best := least_of prev !best (v - st)
        else if wrap then best := least_of prev !best (v + ((side - 1) * st));
        if c + 1 < side then best := least_of prev !best (v + st)
        else if wrap then best := least_of prev !best (v - ((side - 1) * st))
      end
    done
  | Circulant { n; offsets } ->
    for j = 0 to Array.length offsets - 1 do
      let o = offsets.(j) in
      best := least_of prev !best ((v + o) mod n);
      if 2 * o <> n then best := least_of prev !best ((v - o + n) mod n)
    done
  | Complete _ | Cycle _ | Path _ | Hypercube _ | Folded_hypercube _ ->
    invalid_arg "Implicit.least_above: family has a direct enumeration");
  !best

let select_nth t v i =
  let w = ref (-1) in
  for _ = 0 to i do
    w := least_above t v !w
  done;
  !w

let nth t v i =
  match t with
  | Complete _ -> if i < v then i else i + 1
  | Cycle n ->
    if v = 0 then if i = 0 then 1 else n - 1
    else if v = n - 1 then if i = 0 then 0 else n - 2
    else if i = 0 then v - 1
    else v + 1
  | Path n ->
    if v = 0 then 1
    else if v = n - 1 then n - 2
    else if i = 0 then v - 1
    else v + 1
  | Hypercube d -> nth_hypercube d v i
  | Folded_hypercube d ->
    let r = folded_rank d v in
    if i < r then nth_hypercube d v i
    else if i = r then v lxor ((1 lsl d) - 1)
    else nth_hypercube d v (i - 1)
  | Lattice _ | Circulant _ -> select_nth t v i

let iter t v ~f =
  match t with
  | Complete n ->
    for w = 0 to v - 1 do
      f w
    done;
    for w = v + 1 to n - 1 do
      f w
    done
  | Cycle n ->
    if v = 0 then begin
      f 1;
      f (n - 1)
    end
    else if v = n - 1 then begin
      f 0;
      f (n - 2)
    end
    else begin
      f (v - 1);
      f (v + 1)
    end
  | Path n ->
    if n = 1 then ()
    else if v = 0 then f 1
    else if v = n - 1 then f (n - 2)
    else begin
      f (v - 1);
      f (v + 1)
    end
  | Hypercube d -> iter_hypercube d v ~extra:max_int f
  | Folded_hypercube d -> iter_hypercube d v ~extra:(v lxor ((1 lsl d) - 1)) f
  | Lattice _ | Circulant _ ->
    let w = ref (-1) in
    for _ = 1 to degree t v do
      w := least_above t v !w;
      f !w
    done
