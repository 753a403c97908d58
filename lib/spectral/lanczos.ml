type extremes = {
  lambda_2 : float;
  bound_2 : float;
  lambda_min : float;
  bound_min : float;
  steps : int;
}

let tol = 1e-10

(* The extreme Ritz values of the m x m tridiagonal and Paige's bound for
   each: |beta s_m| for the Ritz vector s, plus the inverse iteration's
   own residual. *)
let ritz_extremes ~diag ~off ~beta ~steps =
  let m = Array.length diag in
  let bound k =
    let theta = Tridiag.eigenvalue ~diag ~off k in
    let s, residual = Tridiag.eigenvector ~diag ~off theta in
    (theta, (beta *. Float.abs s.(m - 1)) +. residual)
  in
  let lambda_2, bound_2 = bound (m - 1) in
  let lambda_min, bound_min = bound 0 in
  { lambda_2; bound_2; lambda_min; bound_min; steps }

let extremes ?steps rng g =
  (match Graph.View.regularity g with
  | Some r when r > 0 -> ()
  | _ -> invalid_arg "Lanczos.extremes: requires a regular graph");
  let n = Graph.View.n_vertices g in
  let max_steps = match steps with Some s -> max 1 s | None -> max 64 (4 * n) in
  let op = Op.walk_matrix g in
  let alpha = ref (Array.make 64 0.0) and beta = ref (Array.make 64 0.0) in
  (* [q] is the current unit Lanczos vector, [q_prev] the one before it,
     [w] scratch for the next. The bisection costs O(m) per extreme, so
     the bounds are checked every m/8 steps, not every step. *)
  let rec go m next_check q q_prev w =
    if m > Array.length !alpha then begin
      alpha := Array.append !alpha !alpha;
      beta := Array.append !beta !beta
    end;
    op.Op.apply ~x:q ~y:w;
    let a = Vec.dot q w in
    Vec.axpy ~a:(-.a) ~x:q ~y:w;
    if m > 1 then Vec.axpy ~a:(-. !beta.(m - 2)) ~x:q_prev ~y:w;
    Vec.center w;
    let b = Vec.norm2 w in
    !alpha.(m - 1) <- a;
    !beta.(m - 1) <- b;
    let stop = m >= max_steps || b <= tol in
    let check = stop || m >= next_check in
    let e =
      if check then
        Some
          (ritz_extremes ~diag:(Array.sub !alpha 0 m) ~off:(Array.sub !beta 0 (m - 1))
             ~beta:b ~steps:m)
      else None
    in
    match e with
    | Some e when stop || (e.bound_2 <= tol && e.bound_min <= tol) -> e
    | _ ->
      Vec.scale w (1.0 /. b);
      go (m + 1) (if check then m + max 4 (m / 8) else next_check) w q q_prev
  in
  (* Centring every iterate keeps it orthogonal to the constant vector,
     the trivial eigenvector of a regular graph's walk matrix. *)
  let q = Vec.random rng n in
  Vec.center q;
  Vec.normalize q;
  go 1 4 q (Array.make n 0.0) (Array.make n 0.0)
