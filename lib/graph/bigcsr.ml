(* Off-heap CSR: the same two-array representation as {!Csr}, stored in
   int32 Bigarrays outside the OCaml heap. The GC never scans the edge
   arrays, so a 10^7-vertex instance costs neither major-heap residency
   nor mark-time — the enabler for the large-n scale tier. Arc order is
   identical to {!Csr} (sorted within each vertex's slice), so every
   consumer that enumerates or samples neighbours sees the same sequence
   and draws the same RNG stream on either representation. *)

type arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  offsets : arr; (* length n + 1 *)
  adjacency : arr; (* sorted within each vertex's slice *)
}

let max_arcs = Int32.to_int Int32.max_int

let make_arr len : arr = Bigarray.Array1.create Int32 Bigarray.c_layout len

let n_vertices g = g.n

let n_edges g = Bigarray.Array1.dim g.adjacency / 2

(* All vertex ids and arc counts are validated to fit int32 at
   construction, so the unsafe conversions below cannot truncate. *)
let get (a : arr) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let set (a : arr) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let unsafe_iter_neighbours g v ~f =
  for i = get g.offsets v to get g.offsets (v + 1) - 1 do
    f (get g.adjacency i)
  done

(* The raw arrays, for consumers that specialise their inner loop per
   representation (the spectral matvec). *)
let unsafe_offsets g = g.offsets
let unsafe_adjacency g = g.adjacency

let check_capacity ~n ~arcs =
  if n > max_arcs || arcs > max_arcs then
    invalid_arg "Bigcsr: graph exceeds the int32 index range"

let of_csr c =
  let n = Csr.n_vertices c in
  let offs = Csr.unsafe_offsets c in
  let adj = Csr.unsafe_adjacency c in
  let arcs = Array.length adj in
  check_capacity ~n ~arcs;
  let offsets = make_arr (n + 1) in
  let adjacency = make_arr arcs in
  for v = 0 to n do
    set offsets v (Array.unsafe_get offs v)
  done;
  for i = 0 to arcs - 1 do
    set adjacency i (Array.unsafe_get adj i)
  done;
  { n; offsets; adjacency }

let to_csr g =
  let arcs = Bigarray.Array1.dim g.adjacency in
  let us = Array.make (arcs / 2) 0 and vs = Array.make (arcs / 2) 0 in
  let k = ref 0 in
  for u = 0 to g.n - 1 do
    unsafe_iter_neighbours g u ~f:(fun v ->
        if u < v then begin
          us.(!k) <- u;
          vs.(!k) <- v;
          incr k
        end)
  done;
  Csr.of_edge_arrays ~n:g.n ~us ~vs

(* Streaming double-pass construction, mirroring [Csr.of_edge_iter]:
   census, placement (with the same replay-stability checks), per-slice
   sort, simplicity validation. The only heap allocations are the O(n)
   cursor array and a max-degree scratch buffer for sorting. *)
let of_edge_iter ~n iter_given_edges =
  if n < 0 then invalid_arg "Bigcsr: negative vertex count";
  let deg = Array.make n 0 in
  iter_given_edges (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Bigcsr: edge endpoint out of range";
      if u = v then invalid_arg "Bigcsr: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1);
  let offsets = make_arr (n + 1) in
  set offsets 0 0;
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    if deg.(v) > !max_deg then max_deg := deg.(v);
    set offsets (v + 1) (get offsets v + deg.(v))
  done;
  let arcs = get offsets n in
  check_capacity ~n ~arcs;
  let adjacency = make_arr arcs in
  let cursor = deg in
  for v = 0 to n - 1 do
    cursor.(v) <- get offsets v
  done;
  let unstable () =
    invalid_arg
      "Bigcsr.of_edge_iter: iterator is not replay-stable (pass 2 \
       disagrees with the pass-1 degree census)"
  in
  let g = { n; offsets; adjacency } in
  let place u v =
    if u < 0 || u >= n || v < 0 || v >= n then unstable ();
    if cursor.(u) >= get offsets (u + 1) then unstable ();
    set adjacency cursor.(u) v;
    cursor.(u) <- cursor.(u) + 1
  in
  iter_given_edges (fun u v ->
      place u v;
      place v u);
  for v = 0 to n - 1 do
    if cursor.(v) <> get offsets (v + 1) then unstable ()
  done;
  let scratch = Array.make (max 1 !max_deg) 0 in
  for v = 0 to n - 1 do
    let lo = get offsets v and hi = get offsets (v + 1) in
    let d = hi - lo in
    for i = 0 to d - 1 do
      scratch.(i) <- get adjacency (lo + i)
    done;
    Csr.sort_range scratch 0 d;
    for i = 0 to d - 2 do
      if scratch.(i) = scratch.(i + 1) then invalid_arg "Bigcsr: duplicate edge"
    done;
    for i = 0 to d - 1 do
      set adjacency (lo + i) scratch.(i)
    done
  done;
  g

let of_edges ~n edges =
  of_edge_iter ~n (fun f -> List.iter (fun (u, v) -> f u v) edges)

(* Direct fill from a per-vertex enumeration that is already sorted and
   simple (the implicit closed-form families): no census pass over edges,
   no sort, no duplicate check. [degree v] and [iter v f] must agree. *)
let of_sorted_arcs ~n ~degree ~iter =
  if n < 0 then invalid_arg "Bigcsr: negative vertex count";
  let offsets = make_arr (n + 1) in
  set offsets 0 0;
  for v = 0 to n - 1 do
    set offsets (v + 1) (get offsets v + degree v)
  done;
  let arcs = get offsets n in
  check_capacity ~n ~arcs;
  let adjacency = make_arr arcs in
  let k = ref 0 in
  for v = 0 to n - 1 do
    iter v (fun w ->
        set adjacency !k w;
        incr k)
  done;
  if !k <> arcs then invalid_arg "Bigcsr.of_sorted_arcs: degree/iter mismatch";
  { n; offsets; adjacency }
