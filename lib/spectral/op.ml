type t = { n : int; apply : x:float array -> y:float array -> unit }

(* One inner loop per topology backend, selected once at operator
   construction: the heap path keeps its direct int-array loads, the
   off-heap path reads the int32 Bigarrays, and the implicit path
   enumerates neighbours arithmetically. The matvec is the entire cost of
   the eigensolvers, so the per-element dispatch a generic accessor would
   pay is hoisted out here. *)

let heap_apply g n ~x ~y =
  let offsets = Graph.Csr.unsafe_offsets g in
  let adjacency = Graph.Csr.unsafe_adjacency g in
  for v = 0 to n - 1 do
    let lo = offsets.(v) and hi = offsets.(v + 1) in
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. Array.unsafe_get x (Array.unsafe_get adjacency i)
    done;
    y.(v) <- (if hi > lo then !acc /. Float.of_int (hi - lo) else 0.0)
  done

let big_apply g n ~x ~y =
  let offsets = Graph.Bigcsr.unsafe_offsets g in
  let adjacency = Graph.Bigcsr.unsafe_adjacency g in
  let get (a : Graph.Bigcsr.arr) i = Int32.to_int (Bigarray.Array1.unsafe_get a i) in
  for v = 0 to n - 1 do
    let lo = get offsets v and hi = get offsets (v + 1) in
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. Array.unsafe_get x (get adjacency i)
    done;
    y.(v) <- (if hi > lo then !acc /. Float.of_int (hi - lo) else 0.0)
  done

(* One accumulator cell and one closure per matvec, not per vertex: a
   float ref captured by a per-vertex closure would box every partial
   sum. The sum still runs from 0.0 over the neighbours in ascending
   order, as on the other backends. *)
let implicit_apply g n ~x ~y =
  let acc = [| 0.0 |] in
  let add w = Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. Array.unsafe_get x w) in
  for v = 0 to n - 1 do
    let d = Graph.Implicit.degree g v in
    acc.(0) <- 0.0;
    Graph.Implicit.iter g v ~f:add;
    y.(v) <- (if d > 0 then acc.(0) /. Float.of_int d else 0.0)
  done

let walk_matrix view =
  let n = Graph.View.n_vertices view in
  let inner =
    match Graph.View.repr view with
    | Graph.View.Heap g -> heap_apply g n
    | Graph.View.Big g -> big_apply g n
    | Graph.View.Implicit g -> implicit_apply g n
  in
  let apply ~x ~y =
    if Array.length x <> n || Array.length y <> n then
      invalid_arg "Op.walk_matrix: size mismatch";
    inner ~x ~y
  in
  { n; apply }

let apply op x =
  let y = Array.make op.n 0.0 in
  op.apply ~x ~y;
  y
