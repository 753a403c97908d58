type t = {
  n : int;
  offsets : int array; (* length n + 1; adjacency of v at [offsets.(v), offsets.(v+1)) *)
  adjacency : int array; (* sorted within each vertex's slice *)
}

let n_vertices g = g.n
let n_edges g = Array.length g.adjacency / 2

let check_vertex g v =
  if v < 0 || v >= g.n then invalid_arg "Csr: vertex out of range"

let degree g v =
  check_vertex g v;
  g.offsets.(v + 1) - g.offsets.(v)

let mem_edge g u v =
  check_vertex g u;
  check_vertex g v;
  let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.adjacency.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_neighbours g v ~f =
  check_vertex g v;
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f g.adjacency.(i)
  done

let fold_neighbours g v ~init ~f =
  let acc = ref init in
  iter_neighbours g v ~f:(fun w -> acc := f !acc w);
  !acc

let neighbours g v =
  check_vertex g v;
  Array.sub g.adjacency g.offsets.(v) (g.offsets.(v + 1) - g.offsets.(v))

let iter_edges g ~f =
  for u = 0 to g.n - 1 do
    iter_neighbours g u ~f:(fun v -> if u < v then f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges g ~f:(fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let regularity g =
  if g.n = 0 then Some 0
  else begin
    let r = degree g 0 in
    let rec go v = v >= g.n || (degree g v = r && go (v + 1)) in
    if go 1 then Some r else None
  end

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref (degree g 0) in
    for v = 1 to g.n - 1 do
      if degree g v < !best then best := degree g v
    done;
    !best
  end

let degree_counts g =
  let tbl = Hashtbl.create 16 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

(* Monomorphic comparison loops: polymorphic [=] on the int arrays walks
   the runtime representation word by word through [caml_compare]; on a
   million-edge graph that is the difference between microseconds and
   milliseconds. *)
let int_arrays_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let len = Array.length a in
  let rec go i =
    i >= len || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0

let equal a b =
  a.n = b.n && int_arrays_equal a.offsets b.offsets
  && int_arrays_equal a.adjacency b.adjacency

let unsafe_offsets g = g.offsets
let unsafe_adjacency g = g.adjacency

(* In-place sort of [a.(lo) .. a.(hi - 1)]: median-of-three quicksort
   down to short runs, then one insertion-sort finishing pass. Replaces
   the per-vertex [Array.sub]/[Array.sort]/[Array.blit] round trip, whose
   slice copies dominated allocation when building million-vertex
   graphs. *)
let sort_range (a : int array) lo hi =
  let swap i j =
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  in
  let rec qsort lo hi =
    (* Sorts the half-open range [lo, hi). *)
    if hi - lo > 16 then begin
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
      if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while Array.unsafe_get a !i < pivot do incr i done;
        while Array.unsafe_get a !j > pivot do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo (!j + 1);
      qsort !i hi
    end
  in
  qsort lo hi;
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Shared constructor: counting sort of undirected edges into CSR slices
   (each edge contributing two arcs), then per-vertex sort and simplicity
   validation. [iter_given_edges f] must enumerate each undirected edge
   exactly once. *)
let of_edge_iter ~n iter_given_edges =
  if n < 0 then invalid_arg "Csr: negative vertex count";
  let deg = Array.make n 0 in
  let m = ref 0 in
  iter_given_edges (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Csr: edge endpoint out of range";
      if u = v then invalid_arg "Csr: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr m);
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let adjacency = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  (* Pass 2 must replay pass 1's census exactly: an iterator that drifts
     between invocations (extra, missing or moved edges) would silently
     scatter arcs into the wrong slices. Every placement is checked
     against the slice the census allotted, and the final sweep catches
     under-filled slices. *)
  let unstable () =
    invalid_arg
      "Csr.of_edge_iter: iterator is not replay-stable (pass 2 disagrees \
       with the pass-1 degree census)"
  in
  let place u v =
    if u < 0 || u >= n || v < 0 || v >= n then unstable ();
    if cursor.(u) >= offsets.(u + 1) then unstable ();
    adjacency.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1
  in
  iter_given_edges (fun u v ->
      place u v;
      place v u);
  for v = 0 to n - 1 do
    if cursor.(v) <> offsets.(v + 1) then unstable ()
  done;
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    sort_range adjacency lo hi;
    for i = lo to hi - 2 do
      if adjacency.(i) = adjacency.(i + 1) then
        invalid_arg "Csr: duplicate edge"
    done
  done;
  { n; offsets; adjacency }

let of_edges ~n edges =
  of_edge_iter ~n (fun f -> List.iter (fun (u, v) -> f u v) edges)

let of_edge_arrays ~n ~us ~vs =
  if Array.length us <> Array.length vs then
    invalid_arg "Csr.of_edge_arrays: length mismatch";
  of_edge_iter ~n (fun f -> Array.iteri (fun i u -> f u vs.(i)) us)

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Csr.relabel: size mismatch";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then
        invalid_arg "Csr.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  (* Direct CSR-to-CSR relabel: new vertex [perm.(v)] inherits [v]'s
     degree, its arcs are [perm] applied to [v]'s adjacency, and each
     slice is re-sorted. No intermediate edge list, no simplicity
     re-validation (a permutation of a simple graph is simple). *)
  let offsets = Array.make (g.n + 1) 0 in
  for v = 0 to g.n - 1 do
    offsets.(perm.(v) + 1) <- g.offsets.(v + 1) - g.offsets.(v)
  done;
  for p = 0 to g.n - 1 do
    offsets.(p + 1) <- offsets.(p) + offsets.(p + 1)
  done;
  let adjacency = Array.make (Array.length g.adjacency) 0 in
  for v = 0 to g.n - 1 do
    let dst = ref offsets.(perm.(v)) in
    for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
      adjacency.(!dst) <- perm.(g.adjacency.(i));
      incr dst
    done
  done;
  for p = 0 to g.n - 1 do
    sort_range adjacency offsets.(p) offsets.(p + 1)
  done;
  { n = g.n; offsets; adjacency }

let pp ppf g =
  match regularity g with
  | Some r -> Format.fprintf ppf "graph(n=%d, m=%d, %d-regular)" g.n (n_edges g) r
  | None ->
    Format.fprintf ppf "graph(n=%d, m=%d, deg %d..%d)" g.n (n_edges g)
      (min_degree g) (max_degree g)
