(* Sturm count: the number of negative values of the sequence
   d_1 = a_1 - x,  d_i = a_i - x - b_{i-1}^2 / d_{i-1}
   equals the number of eigenvalues below x. Zero pivots are nudged by a
   tiny epsilon, the standard safeguard. *)
let count_below ~diag ~off x =
  let m = Array.length diag in
  if Array.length off <> max 0 (m - 1) then
    invalid_arg "Tridiag: off-diagonal length must be m - 1";
  let tiny = 1e-300 in
  let count = ref 0 in
  let d = ref 1.0 in
  for i = 0 to m - 1 do
    let b2 = if i = 0 then 0.0 else off.(i - 1) *. off.(i - 1) in
    d := diag.(i) -. x -. (b2 /. !d);
    if Float.abs !d < tiny then d := -.tiny;
    if !d < 0.0 then incr count
  done;
  !count

(* Gershgorin interval containing the whole spectrum. *)
let gershgorin ~diag ~off =
  let m = Array.length diag in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to m - 1 do
    let radius =
      (if i > 0 then Float.abs off.(i - 1) else 0.0)
      +. if i < m - 1 then Float.abs off.(i) else 0.0
    in
    lo := Float.min !lo (diag.(i) -. radius);
    hi := Float.max !hi (diag.(i) +. radius)
  done;
  (!lo, !hi)

(* Smallest x with count_below x >= k + 1, by bisection down to
   epsilon_float times the spectrum's scale (about 55 halvings). *)
let eigenvalue ~diag ~off k =
  let m = Array.length diag in
  if k < 0 || k >= m then invalid_arg "Tridiag.eigenvalue: index out of range";
  let lo, hi = gershgorin ~diag ~off in
  let width = epsilon_float *. Float.max (Float.abs lo) (Float.abs hi) in
  let a = ref lo and b = ref (hi +. 1e-12) in
  let mid = ref (0.5 *. (!a +. !b)) in
  while !b -. !a > width && !a < !mid && !mid < !b do
    if count_below ~diag ~off !mid > k then b := !mid else a := !mid;
    mid := 0.5 *. (!a +. !b)
  done;
  !mid

let eigenvalues ~diag ~off = Array.init (Array.length diag) (eigenvalue ~diag ~off)

(* Inverse iteration: LU of T - theta I with partial pivoting (the
   factor U has two superdiagonals), pivots below eps |T| raised to it
   so every solve stays finite, three solves from a fixed irregular
   start. *)
let eigenvector ~diag ~off theta =
  let m = Array.length diag in
  if m = 0 || Array.length off <> m - 1 then
    invalid_arg "Tridiag.eigenvector: need m >= 1 and m - 1 off-diagonals";
  let lo, hi = gershgorin ~diag ~off in
  let tiny = epsilon_float *. Float.max 1.0 (Float.max (Float.abs lo) (Float.abs hi)) in
  let d = Array.map (fun a -> a -. theta) diag in
  let du = Array.copy off and du2 = Array.make m 0.0 in
  let l = Array.make m 0.0 and swapped = Array.make m false in
  for i = 0 to m - 2 do
    let sub = off.(i) in
    if Float.abs d.(i) >= Float.abs sub then begin
      let f = if d.(i) = 0.0 then 0.0 else sub /. d.(i) in
      l.(i) <- f;
      d.(i + 1) <- d.(i + 1) -. (f *. du.(i))
    end
    else begin
      let f = d.(i) /. sub in
      swapped.(i) <- true;
      l.(i) <- f;
      d.(i) <- sub;
      let t = du.(i) in
      du.(i) <- d.(i + 1);
      d.(i + 1) <- t -. (f *. d.(i + 1));
      if i < m - 2 then begin
        du2.(i) <- du.(i + 1);
        du.(i + 1) <- -.f *. du.(i + 1)
      end
    end
  done;
  Array.iteri (fun i p -> if Float.abs p < tiny then d.(i) <- Float.copy_sign tiny p) d;
  let x = Array.init m (fun i -> Float.of_int (1 + (7 * i mod 11))) in
  for _ = 1 to 3 do
    for i = 0 to m - 2 do
      if swapped.(i) then begin
        let t = x.(i) in
        x.(i) <- x.(i + 1);
        x.(i + 1) <- t -. (l.(i) *. x.(i))
      end
      else x.(i + 1) <- x.(i + 1) -. (l.(i) *. x.(i))
    done;
    for i = m - 1 downto 0 do
      let r1 = if i < m - 1 then du.(i) *. x.(i + 1) else 0.0 in
      let r2 = if i < m - 2 then du2.(i) *. x.(i + 2) else 0.0 in
      x.(i) <- (x.(i) -. r1 -. r2) /. d.(i)
    done;
    let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x in
    Array.iteri (fun i v -> x.(i) <- v /. scale) x
  done;
  let norm = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x) in
  let s = Array.map (fun v -> v /. norm) x in
  let residual = ref 0.0 in
  for i = 0 to m - 1 do
    let r =
      ((diag.(i) -. theta) *. s.(i))
      +. (if i > 0 then off.(i - 1) *. s.(i - 1) else 0.0)
      +. if i < m - 1 then off.(i) *. s.(i + 1) else 0.0
    in
    residual := !residual +. (r *. r)
  done;
  (s, sqrt !residual)
