let pi = 4.0 *. atan 1.0

let complete n =
  if n < 2 then invalid_arg "Closed_form.complete: n >= 2";
  1.0 /. Float.of_int (n - 1)

let cycle n =
  if n < 3 then invalid_arg "Closed_form.cycle: n >= 3";
  let best = ref 0.0 in
  for j = 1 to n - 1 do
    let v = Float.abs (cos (2.0 *. pi *. Float.of_int j /. Float.of_int n)) in
    if v > !best then best := v
  done;
  !best

let signed_hypercube d =
  if d < 1 then invalid_arg "Closed_form.hypercube: d >= 1";
  (1.0 -. (2.0 /. Float.of_int d), -1.0)

let hypercube d =
  let l2, ln = signed_hypercube d in
  Float.max (Float.abs l2) (Float.abs ln)

let folded_hypercube d =
  if d < 2 then invalid_arg "Closed_form.folded_hypercube: d >= 2";
  let best = ref 0.0 in
  for k = 1 to d do
    let v =
      Float.abs
        (Float.of_int (d - (2 * k)) +. (if k mod 2 = 0 then 1.0 else -1.0))
      /. Float.of_int (d + 1)
    in
    if v > !best then best := v
  done;
  !best

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Closed_form.complete_bipartite: parts >= 1";
  1.0

(* Eigenvalue j of the circulant adjacency: Σ_o 2cos(2π o j / n), except
   the antipodal offset (2o = n) contributes cos(π j) = (-1)^j once. *)
let circulant_eigen n offsets j =
  let r = ref 0 and acc = ref 0.0 in
  List.iter
    (fun o ->
      let angle = 2.0 *. pi *. Float.of_int (o * j) /. Float.of_int n in
      if 2 * o = n then begin
        acc := !acc +. cos angle;
        incr r
      end
      else begin
        acc := !acc +. (2.0 *. cos angle);
        r := !r + 2
      end)
    offsets;
  !acc /. Float.of_int !r

let circulant_spectrum n offsets =
  if offsets = [] then invalid_arg "Closed_form.circulant: empty offsets";
  Array.init n (circulant_eigen n offsets)

(* (max, min) over the nontrivial eigenvalues, entries 1 .. of [spec]. *)
let signed_extremes spec =
  let l2 = ref neg_infinity and ln = ref infinity in
  for j = 1 to Array.length spec - 1 do
    if spec.(j) > !l2 then l2 := spec.(j);
    if spec.(j) < !ln then ln := spec.(j)
  done;
  (!l2, !ln)

let signed_circulant n offsets = signed_extremes (circulant_spectrum n offsets)

let circulant n offsets =
  let l2, ln = signed_circulant n offsets in
  Float.max (Float.abs l2) (Float.abs ln)

let torus_spectrum dims =
  Array.iter
    (fun d -> if d < 3 then invalid_arg "Closed_form.torus: sides >= 3")
    dims;
  let k = Array.length dims in
  if k = 0 then invalid_arg "Closed_form.torus: empty dims";
  (* Factor eigenvalues: cycle C_d has cos(2π j / d). The torus walk
     matrix is the unweighted average of the factors' walk matrices (all
     factors are 2-regular), so its eigenvalues are averages over one
     index choice per factor; code 0 (every index 0) is the trivial 1. *)
  let n = Array.fold_left ( * ) 1 dims in
  Array.init n (fun code ->
      let rest = ref code and acc = ref 0.0 in
      Array.iter
        (fun d ->
          acc := !acc +. cos (2.0 *. pi *. Float.of_int (!rest mod d) /. Float.of_int d);
          rest := !rest / d)
        dims;
      !acc /. Float.of_int k)

let torus dims =
  let l2, ln = signed_extremes (torus_spectrum dims) in
  Float.max (Float.abs l2) (Float.abs ln)

let star n =
  if n < 2 then invalid_arg "Closed_form.star: n >= 2";
  1.0
