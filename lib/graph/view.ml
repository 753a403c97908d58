(* The topology abstraction every process engine consumes: one value
   that answers degree / nth-neighbour / iteration queries over any of
   three representations. Accessors dispatch on the representation with
   a single match — no closure indirection — and the CSR arms read the
   arrays in place, so the heap-CSR path compiles to the same loads the
   engines performed when they took [Csr.t] directly, and golden
   streams are preserved bit for bit. This is the one module that holds
   per-backend code; kernels never match on the representation.

   The neighbour-order contract is global: every backend enumerates each
   vertex's neighbours in ascending order, so [unsafe_random_neighbour]
   (one [Prng.Rng.int rng degree] draw, then an order-[i] lookup)
   selects the same vertex on every backend and RNG streams are
   backend-independent. Degree statistics are computed once at view
   construction (closed-form for implicit families, one O(n) sweep for
   the CSRs) so hot paths never rescan. *)

type repr = Heap of Csr.t | Big of Bigcsr.t | Implicit of Implicit.t

type t = {
  repr : repr;
  n : int;
  m : int;
  min_deg : int;
  max_deg : int;
}

type backend = [ `Heap | `Bigarray | `Implicit ]

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" -> Ok `Heap
  | "bigarray" -> Ok `Bigarray
  | "implicit" -> Ok `Implicit
  | s ->
    Error
      (Printf.sprintf "unknown backend %S (available: heap, bigarray, implicit)" s)

let backend_to_string = function
  | `Heap -> "heap"
  | `Bigarray -> "bigarray"
  | `Implicit -> "implicit"

let repr t = t.repr

let backend t : backend =
  match t.repr with Heap _ -> `Heap | Big _ -> `Bigarray | Implicit _ -> `Implicit

let of_csr g =
  let n = Csr.n_vertices g in
  { repr = Heap g; n; m = Csr.n_edges g;
    min_deg = Csr.min_degree g; max_deg = Csr.max_degree g }

let[@inline] big (a : Bigcsr.arr) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let of_bigcsr g =
  let n = Bigcsr.n_vertices g in
  let min_deg = ref (if n = 0 then 0 else max_int) and max_deg = ref 0 in
  for v = 0 to n - 1 do
    let d = big g.offsets (v + 1) - big g.offsets v in
    if d < !min_deg then min_deg := d;
    if d > !max_deg then max_deg := d
  done;
  { repr = Big g; n; m = Bigcsr.n_edges g; min_deg = !min_deg; max_deg = !max_deg }

let of_implicit g =
  {
    repr = Implicit g;
    n = Implicit.n_vertices g;
    m = Implicit.n_edges g;
    min_deg = Implicit.min_degree g;
    max_deg = Implicit.max_degree g;
  }

let n_vertices t = t.n
let n_edges t = t.m
let max_degree t = t.max_deg
let min_degree t = t.min_deg

let regularity t =
  if t.n = 0 then Some 0
  else if t.min_deg = t.max_deg then Some t.min_deg
  else None

(* ---------- unchecked accessors (simulation inner loops) ---------- *)

(* The heap and bigarray arms read the CSR arrays themselves ([Csr.t]
   and [Bigcsr.t] are private records), so all the per-backend code of
   a kernel step is here. *)

let[@inline] unsafe_degree t v =
  match t.repr with
  | Heap g -> Array.unsafe_get g.offsets (v + 1) - Array.unsafe_get g.offsets v
  | Big g -> big g.offsets (v + 1) - big g.offsets v
  | Implicit g -> Implicit.degree g v

let[@inline] unsafe_nth_neighbour t v i =
  match t.repr with
  | Heap g -> Array.unsafe_get g.adjacency (Array.unsafe_get g.offsets v + i)
  | Big g -> big g.adjacency (big g.offsets v + i)
  | Implicit g -> Implicit.nth g v i

let[@inline] unsafe_random_neighbour t rng v =
  match t.repr with
  | Heap g ->
    let off = Array.unsafe_get g.offsets v in
    let d = Array.unsafe_get g.offsets (v + 1) - off in
    Array.unsafe_get g.adjacency (off + Prng.Rng.int rng d)
  | Big g ->
    let off = big g.offsets v in
    let d = big g.offsets (v + 1) - off in
    big g.adjacency (off + Prng.Rng.int rng d)
  | Implicit g ->
    (* Same single draw as the CSR paths; ascending order makes the
       selected vertex identical. *)
    Implicit.nth g v (Prng.Rng.int rng (Implicit.degree g v))

let unsafe_iter_neighbours t v ~f =
  match t.repr with
  | Heap g ->
    for i = Array.unsafe_get g.offsets v to Array.unsafe_get g.offsets (v + 1) - 1 do
      f (Array.unsafe_get g.adjacency i)
    done
  | Big g ->
    for i = big g.offsets v to big g.offsets (v + 1) - 1 do
      f (big g.adjacency i)
    done
  | Implicit g -> Implicit.iter g v ~f

(* One dispatch, then one copy loop per backend: for consumers that read
   the whole neighbourhood anyway (the lane engine's gathers). *)
let unsafe_neighbours_into t v buf =
  match t.repr with
  | Heap g ->
    let off = Array.unsafe_get g.offsets v in
    let d = Array.unsafe_get g.offsets (v + 1) - off in
    if d > Array.length buf then invalid_arg "View.unsafe_neighbours_into: buffer too small";
    for i = 0 to d - 1 do
      Array.unsafe_set buf i (Array.unsafe_get g.adjacency (off + i))
    done;
    d
  | Big g ->
    let off = big g.offsets v in
    let d = big g.offsets (v + 1) - off in
    if d > Array.length buf then invalid_arg "View.unsafe_neighbours_into: buffer too small";
    for i = 0 to d - 1 do
      Array.unsafe_set buf i (big g.adjacency (off + i))
    done;
    d
  | Implicit g ->
    let d = Implicit.degree g v in
    if d > Array.length buf then invalid_arg "View.unsafe_neighbours_into: buffer too small";
    for i = 0 to d - 1 do
      Array.unsafe_set buf i (Implicit.nth g v i)
    done;
    d

(* ---------- checked accessors ---------- *)

let check_vertex t v =
  if v < 0 || v >= t.n then invalid_arg "View: vertex out of range"

let degree t v =
  check_vertex t v;
  unsafe_degree t v

let nth_neighbour t v i =
  check_vertex t v;
  if i < 0 || i >= unsafe_degree t v then
    invalid_arg "View.nth_neighbour: index out of range";
  unsafe_nth_neighbour t v i

let random_neighbour t rng v =
  check_vertex t v;
  if unsafe_degree t v = 0 then invalid_arg "View.random_neighbour: isolated vertex";
  unsafe_random_neighbour t rng v

let iter_neighbours t v ~f =
  check_vertex t v;
  unsafe_iter_neighbours t v ~f

let fold_neighbours t v ~init ~f =
  let acc = ref init in
  iter_neighbours t v ~f:(fun w -> acc := f !acc w);
  !acc

let neighbours t v =
  check_vertex t v;
  let buf = Array.make (unsafe_degree t v) 0 in
  ignore (unsafe_neighbours_into t v buf);
  buf

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  (* Binary search over the sorted slice; O(log degree) on every
     backend ([nth] is O(degree) worst case for implicit families, but
     their degrees are small or their nth is O(1)). *)
  let lo = ref 0 and hi = ref (unsafe_degree t u - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = unsafe_nth_neighbour t u mid in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t ~f =
  for u = 0 to t.n - 1 do
    unsafe_iter_neighbours t u ~f:(fun v -> if u < v then f u v)
  done

(* ---------- conversion ---------- *)

let to_csr t =
  match t.repr with
  | Heap g -> g
  | Big g -> Bigcsr.to_csr g
  | Implicit g ->
    let n = Implicit.n_vertices g in
    Csr.of_edge_iter ~n (fun f ->
        for u = 0 to n - 1 do
          Implicit.iter g u ~f:(fun v -> if u < v then f u v)
        done)

(* ---------- traversal ---------- *)

(* BFS distances, as [Algo.bfs] but over a view (the flood baseline and
   connectivity checks need it on every backend). *)
let bfs t src =
  check_vertex t src;
  let dist = Array.make t.n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    unsafe_iter_neighbours t u ~f:(fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

(* ---------- printing ---------- *)

(* Same rendering as [Csr.pp] on every backend, so transcripts do not
   depend on the representation. *)
let pp ppf t =
  match regularity t with
  | Some r -> Format.fprintf ppf "graph(n=%d, m=%d, %d-regular)" t.n t.m r
  | None ->
    Format.fprintf ppf "graph(n=%d, m=%d, deg %d..%d)" t.n t.m t.min_deg t.max_deg
