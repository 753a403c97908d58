(* Tests for the spectral library: vector kernels, operators, tridiagonal
   eigenpairs, Lanczos and its residual bound against closed forms, and
   the gap/bound helpers. *)

module Vec = Spectral.Vec
module Op = Spectral.Op
module Tridiag = Spectral.Tridiag
module Lanczos = Spectral.Lanczos
module Closed_form = Spectral.Closed_form
module Gap = Spectral.Gap
(* Op/Lanczos/Gap consume Graph.View; Mixing and the Cheeger helpers
   stay on heap CSR, so this shim builds views and [csr] peels them back
   (free for heap views). *)
module GenC = Graph.Gen

module Gen = struct
  let v = Graph.View.of_csr
  let complete n = v (GenC.complete n)
  let cycle n = v (GenC.cycle n)
  let star n = v (GenC.star n)
  let petersen () = v (GenC.petersen ())
  let hypercube d = v (GenC.hypercube d)
  let folded_hypercube d = v (GenC.folded_hypercube d)
  let complete_bipartite a b = v (GenC.complete_bipartite a b)
  let circulant n offs = v (GenC.circulant n offs)
  let torus dims = v (GenC.torus dims)
  let random_regular rng ~n ~r = v (GenC.random_regular rng ~n ~r)
end

let csr = Graph.View.to_csr
module Rng = Prng.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(eps = 1e-6) msg a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %.8f vs %.8f" msg a b

(* ---------- Vec ---------- *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; -1.0; 0.5 |] in
  close "dot" 3.5 (Vec.dot x y);
  close "norm" (sqrt 14.0) (Vec.norm2 x);
  let z = Array.copy y in
  Vec.axpy ~a:2.0 ~x ~y:z;
  check Alcotest.(array (float 1e-9)) "axpy" [| 6.0; 3.0; 6.5 |] z;
  let w = Array.copy x in
  Vec.normalize w;
  close "normalized" 1.0 (Vec.norm2 w);
  let v = [| 1.0; 1.0; 1.0; 5.0 |] in
  Vec.center v;
  close ~eps:1e-12 "centring removes the constant component" 0.0
    (Vec.dot (Array.make 4 1.0) v);
  check Alcotest.(array (float 1e-12)) "centred" [| -1.0; -1.0; -1.0; 3.0 |] v

let test_vec_errors () =
  Alcotest.check_raises "size mismatch" (Invalid_argument "Vec: size mismatch")
    (fun () -> ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "zero normalize" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> Vec.normalize [| 0.0; 0.0 |])

(* ---------- Op ---------- *)

let test_walk_matrix_stochastic () =
  (* P applied to the all-ones vector gives all-ones (row-stochastic). *)
  let g = Gen.petersen () in
  let op = Op.walk_matrix g in
  let ones = Array.make 10 1.0 in
  let y = Op.apply op ones in
  Array.iter (fun v -> close "P * 1 = 1" 1.0 v) y

(* Minor words one matvec allocates on the implicit backend, counted
   over 4 matvecs less the counter's own words. The accumulator and the
   neighbour callback are made once per matvec, so the count is a small
   constant that does not grow with the vertex count (it was 35 words
   per vertex on Q_14 and 45 on a 128 x 128 torus). *)
let matvec_words view =
  let op = Op.walk_matrix view in
  let x = Array.init op.Op.n (fun i -> Float.of_int (i mod 7)) in
  let y = Array.make op.Op.n 0.0 in
  let count k =
    let before = Gc.minor_words () in
    for _ = 1 to k do
      op.Op.apply ~x ~y
    done;
    Gc.minor_words () -. before
  in
  (count 4 -. count 0) /. 4.0

let test_implicit_matvec_allocation () =
  let imp = Graph.View.of_implicit in
  List.iter
    (fun (name, small, large) ->
      let a = matvec_words small and b = matvec_words large in
      if a <> b || b > 16.0 then
        Alcotest.failf "%s: %.1f and %.1f minor words per matvec at the two sizes" name a b)
    [
      ("hypercube d = 12, 14", imp (Graph.Implicit.hypercube 12), imp (Graph.Implicit.hypercube 14));
      ( "folded hypercube d = 10, 12",
        imp (Graph.Implicit.folded_hypercube 10),
        imp (Graph.Implicit.folded_hypercube 12) );
      ("torus 64x64, 128x128", imp (Graph.Implicit.torus [| 64; 64 |]), imp (Graph.Implicit.torus [| 128; 128 |]));
      ("grid 20x30x4, 40x30x8", imp (Graph.Implicit.grid [| 20; 30; 4 |]), imp (Graph.Implicit.grid [| 40; 30; 8 |]));
      ( "circulant 1025, 4097",
        imp (Graph.Implicit.circulant 1025 [ 1; 2; 3 ]),
        imp (Graph.Implicit.circulant 4097 [ 1; 2; 3 ]) );
    ]

(* ---------- Tridiag ---------- *)

let test_tridiag_diagonal () =
  let eigs = Tridiag.eigenvalues ~diag:[| 3.0; 1.0; 2.0 |] ~off:[| 0.0; 0.0 |] in
  check Alcotest.(array (float 1e-9)) "diagonal eigenvalues" [| 1.0; 2.0; 3.0 |] eigs

let test_tridiag_known_2x2 () =
  (* [[a b][b c]]: eigenvalues ( (a+c) ± sqrt((a-c)^2+4b^2) ) / 2 *)
  let eigs = Tridiag.eigenvalues ~diag:[| 2.0; 0.0 |] ~off:[| 1.0 |] in
  close ~eps:1e-9 "small" (1.0 -. sqrt 2.0) eigs.(0);
  close ~eps:1e-9 "large" (1.0 +. sqrt 2.0) eigs.(1)

let test_tridiag_laplacian_path () =
  (* The path-graph adjacency (0 diag, 1 off) of size m has eigenvalues
     2 cos(pi k / (m+1)). *)
  let m = 7 in
  let eigs = Tridiag.eigenvalues ~diag:(Array.make m 0.0) ~off:(Array.make (m - 1) 1.0) in
  for k = 1 to m do
    let expected = 2.0 *. cos (Float.pi *. Float.of_int (m + 1 - k) /. Float.of_int (m + 1)) in
    close ~eps:1e-9 (Printf.sprintf "path eig %d" k) expected eigs.(k - 1)
  done

let test_sturm_count () =
  let diag = [| 0.0; 0.0; 0.0 |] and off = [| 1.0; 1.0 |] in
  (* eigenvalues -sqrt2, 0, sqrt2 *)
  check Alcotest.int "below -2" 0 (Tridiag.count_below ~diag ~off (-2.0));
  check Alcotest.int "below -1" 1 (Tridiag.count_below ~diag ~off (-1.0));
  check Alcotest.int "below 0.5" 2 (Tridiag.count_below ~diag ~off 0.5);
  check Alcotest.int "below 2" 3 (Tridiag.count_below ~diag ~off 2.0)

let test_tridiag_eigenvector () =
  (* Path adjacency of size m: eigenvector k is sin(pi j k / (m+1)),
     j = 1..m, so its last component is known in closed form. *)
  let m = 9 in
  let diag = Array.make m 0.0 and off = Array.make (m - 1) 1.0 in
  for k = 0 to m - 1 do
    let theta = Tridiag.eigenvalue ~diag ~off k in
    let s, residual = Tridiag.eigenvector ~diag ~off theta in
    let j = m - k in
    let norm = sqrt (Float.of_int (m + 1) /. 2.0) in
    let last = sin (Float.pi *. Float.of_int (m * j) /. Float.of_int (m + 1)) /. norm in
    close ~eps:1e-9 (Printf.sprintf "|s_m| of eigenvector %d" k) (Float.abs last)
      (Float.abs s.(m - 1));
    check Alcotest.bool "residual tiny" true (residual < 1e-12)
  done;
  (* A shift exactly at an eigenvalue of a reducible matrix, and a 1 x 1
     matrix, still give finite unit vectors. *)
  List.iter
    (fun (diag, off, theta) ->
      let s, residual = Tridiag.eigenvector ~diag ~off theta in
      check Alcotest.bool "finite" true
        (Float.is_finite residual && Array.for_all Float.is_finite s);
      close ~eps:1e-12 "unit" 1.0 (Vec.norm2 s))
    [
      ([| 1.0; 1.0; 2.0 |], [| 0.0; 0.0 |], 1.0);
      ([| 0.5 |], [||], 0.5);
      ([| 0.0; 0.0 |], [| 0.0 |], 0.0);
    ]

(* ---------- Lanczos vs closed forms ---------- *)

(* Paige's bound holds in exact arithmetic; the closed forms and the
   recurrence round at about 1e-16, so every comparison allows this. *)
let rounding = 1e-12

let hypercube_spectrum d =
  Array.init (d + 1) (fun k -> 1.0 -. (2.0 *. Float.of_int k /. Float.of_int d))

(* Every nontrivial walk eigenvalue of the family (duplicates kept). *)
let spectrum_cases =
  let circ n offs = ("circ", Gen.circulant n offs, Closed_form.circulant_spectrum n offs) in
  let torus dims = ("torus", Gen.torus dims, Closed_form.torus_spectrum dims) in
  let cube d =
    ( Printf.sprintf "implicit Q_%d" d,
      Graph.View.of_implicit (Graph.Implicit.hypercube d),
      hypercube_spectrum d )
  in
  [
    circ 129 [ 1; 2 ];
    circ 257 [ 1; 3; 7 ];
    circ 100 [ 1; 50 ];
    ("C_101", Gen.cycle 101, Closed_form.circulant_spectrum 101 [ 1 ]);
    ("C_64", Gen.cycle 64, Closed_form.circulant_spectrum 64 [ 1 ]);
    torus [| 5; 7 |];
    torus [| 16; 16 |];
    torus [| 3; 3; 3 |];
    cube 8;
    cube 14;
  ]

(* Drops entry 0, the trivial eigenvalue 1 that Lanczos deflates. *)
let nontrivial spec = Array.sub spec 1 (Array.length spec - 1)

let nearest spec theta =
  Array.fold_left (fun acc mu -> Float.min acc (Float.abs (theta -. mu))) infinity spec

let bound_ok spec theta b =
  Float.is_finite b && b >= 0.0 && nearest spec theta <= b +. rounding

let test_bound_holds () =
  List.iter
    (fun (name, g, spec) ->
      let spec = nontrivial spec in
      List.iter
        (fun steps ->
          for seed = 1 to 8 do
            let e = Lanczos.extremes ?steps (Rng.create seed) g in
            let label which =
              Printf.sprintf "%s, %s steps, seed %d: %s" name
                (match steps with Some s -> string_of_int s | None -> "tol")
                seed which
            in
            if not (bound_ok spec e.Lanczos.lambda_2 e.Lanczos.bound_2) then
              Alcotest.failf "%s = %.12f ± %.3g, nearest eigenvalue %.3g away" (label "theta_2")
                e.Lanczos.lambda_2 e.Lanczos.bound_2 (nearest spec e.Lanczos.lambda_2);
            if not (bound_ok spec e.Lanczos.lambda_min e.Lanczos.bound_min) then
              Alcotest.failf "%s = %.12f ± %.3g, nearest eigenvalue %.3g away"
                (label "theta_min") e.Lanczos.lambda_min e.Lanczos.bound_min
                (nearest spec e.Lanczos.lambda_min)
          done)
        [ Some 12; Some 40; None ])
    spectrum_cases

(* (lambda_2, lambda_n) of each oracle family. *)
let signed_of spec =
  let s = nontrivial spec in
  (Array.fold_left Float.max neg_infinity s, Array.fold_left Float.min infinity s)

let oracle_cases =
  let fq d =
    signed_of
      (Array.init (d + 1) (fun k ->
           (Float.of_int (d - (2 * k)) +. if k mod 2 = 0 then 1.0 else -1.0)
           /. Float.of_int (d + 1)))
  in
  [
    ("K_5", Gen.complete 5, (-0.25, -0.25));
    ("K_30", Gen.complete 30, (-1.0 /. 29.0, -1.0 /. 29.0));
    ("C_9", Gen.cycle 9, Closed_form.signed_circulant 9 [ 1 ]);
    ("C_12", Gen.cycle 12, Closed_form.signed_circulant 12 [ 1 ]);
    ("Q_3", Gen.hypercube 3, Closed_form.signed_hypercube 3);
    ("Q_5", Gen.hypercube 5, Closed_form.signed_hypercube 5);
    ("FQ_4", Gen.folded_hypercube 4, fq 4);
    ("FQ_6", Gen.folded_hypercube 6, fq 6);
    ("K_4,4", Gen.complete_bipartite 4 4, (0.0, -1.0));
    ("circ(20,{1,3})", Gen.circulant 20 [ 1; 3 ], Closed_form.signed_circulant 20 [ 1; 3 ]);
    ("circ(15,{1,2,4})", Gen.circulant 15 [ 1; 2; 4 ], Closed_form.signed_circulant 15 [ 1; 2; 4 ]);
    ("torus 5x7", Gen.torus [| 5; 7 |], signed_of (Closed_form.torus_spectrum [| 5; 7 |]));
    ("torus 3x3x3", Gen.torus [| 3; 3; 3 |], signed_of (Closed_form.torus_spectrum [| 3; 3; 3 |]));
    ("petersen", Gen.petersen (), (1.0 /. 3.0, -2.0 /. 3.0));
    ( "circ(4097,{1,2,3})",
      Gen.circulant 4097 [ 1; 2; 3 ],
      Closed_form.signed_circulant 4097 [ 1; 2; 3 ] );
    ( "bigarray torus 16x17",
      Result.get_ok
        (Graph.Spec.build_view (Result.get_ok (Graph.Spec.parse "torus:16x17")) ~backend:`Bigarray
           (Rng.create 0)),
      signed_of (Closed_form.torus_spectrum [| 16; 17 |]) );
    ( "implicit Q_12",
      Graph.View.of_implicit (Graph.Implicit.hypercube 12),
      Closed_form.signed_hypercube 12 );
  ]

(* Stopped on the tolerance, the extreme Ritz values are the extreme
   eigenvalues, to within their bounds. *)
let test_lanczos_vs_closed_forms () =
  let rng = Rng.create 72 in
  List.iter
    (fun (name, g, (l2, ln)) ->
      let e = Lanczos.extremes (Rng.split rng) g in
      if e.Lanczos.bound_2 > Lanczos.tol || e.Lanczos.bound_min > Lanczos.tol then
        Alcotest.failf "%s: stopped after %d steps with bounds %.3g, %.3g" name e.Lanczos.steps
          e.Lanczos.bound_2 e.Lanczos.bound_min;
      close ~eps:(e.Lanczos.bound_2 +. rounding) (name ^ " theta_2") l2 e.Lanczos.lambda_2;
      close ~eps:(e.Lanczos.bound_min +. rounding) (name ^ " theta_min") ln e.Lanczos.lambda_min;
      let gap = Gap.of_extremes e in
      close ~eps:(gap.Gap.bound +. rounding) (name ^ " lambda")
        (Float.max (Float.abs l2) (Float.abs ln))
        gap.Gap.lambda)
    oracle_cases

let test_signed_eigenvalues () =
  let rng = Rng.create 73 in
  let extremes g = Lanczos.extremes (Rng.split rng) g in
  (* Petersen: lambda_2 = 1/3, lambda_n = -2/3. *)
  let p = extremes (Gen.petersen ()) in
  close ~eps:1e-9 "petersen l2" (1.0 /. 3.0) p.Lanczos.lambda_2;
  close ~eps:1e-9 "petersen ln" (-2.0 /. 3.0) p.Lanczos.lambda_min;
  (* Complete: lambda_2 = lambda_n = -1/(n-1), found in one step. *)
  let k6 = extremes (Gen.complete 6) in
  close ~eps:1e-9 "K6 ln" (-0.2) k6.Lanczos.lambda_min;
  check Alcotest.int "K6 invariant after one step" 1 k6.Lanczos.steps;
  (* Bipartite: lambda_n = -1. *)
  close ~eps:1e-9 "Q3 ln" (-1.0) (extremes (Gen.hypercube 3)).Lanczos.lambda_min;
  let l2, ln = Closed_form.signed_hypercube 3 in
  close "Q3 closed l2" (1.0 /. 3.0) l2;
  close "Q3 closed ln" (-1.0) ln

let test_non_regular_rejected () =
  let rng = Rng.create 74 in
  let star = Gen.star 5 in
  Alcotest.check_raises "lanczos requires regular"
    (Invalid_argument "Lanczos.extremes: requires a regular graph") (fun () ->
      ignore (Lanczos.extremes rng star));
  Alcotest.check_raises "gap requires regular"
    (Invalid_argument "Lanczos.extremes: requires a regular graph") (fun () ->
      ignore (Gap.estimate rng star))

let relabel_invariance_prop =
  QCheck.Test.make ~name:"lambda_max invariant under relabelling" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:24 ~r:4 in
      let perm = Array.init 24 Fun.id in
      Prng.Sample.shuffle rng perm;
      let g' = Graph.View.of_csr (Graph.Csr.relabel (csr g) perm) in
      let l = Gap.estimate (Rng.split rng) g in
      let l' = Gap.estimate (Rng.split rng) g' in
      Float.abs (l.Gap.lambda -. l'.Gap.lambda) <= l.Gap.bound +. l'.Gap.bound +. rounding)

(* ---------- closed forms ---------- *)

let test_closed_form_values () =
  close "K_11" 0.1 (Closed_form.complete 11);
  close "even cycle = 1" 1.0 (Closed_form.cycle 10);
  close ~eps:1e-9 "C_5" (cos (2.0 *. Float.pi /. 5.0) /. 1.0 |> Float.abs |> Float.max (Float.abs (cos (4.0 *. Float.pi /. 5.0))))
    (Closed_form.cycle 5);
  close "K_ab" 1.0 (Closed_form.complete_bipartite 3 7);
  close "star" 1.0 (Closed_form.star 5);
  close "Q_1 = K_2" 1.0 (Closed_form.hypercube 1)

(* ---------- gap helpers ---------- *)

let test_gap_estimate_and_bounds () =
  let rng = Rng.create 75 in
  let g = Gen.petersen () in
  let gap = Gap.estimate rng g in
  close ~eps:1e-9 "estimate lambda" (2.0 /. 3.0) gap.Gap.lambda;
  close ~eps:1e-9 "gap" (1.0 /. 3.0) gap.Gap.gap;
  check Alcotest.bool "bound certified" true (gap.Gap.bound <= Lanczos.tol);
  let bound = Gap.theorem1_bound ~n:10 gap in
  close ~eps:0.01 "theorem1 bound" (log 10.0 /. ((1.0 /. 3.0) ** 3.0)) bound;
  check Alcotest.bool "bound infinite at lambda=1" true
    (Gap.theorem1_bound ~n:100 { Gap.lambda = 1.0; gap = 0.0; bound = 0.0 } = infinity)

let test_gap_condition () =
  (* For K_n the premise ratio grows like sqrt(n / log n). *)
  let lambda = Closed_form.complete 100 in
  let ratio =
    Gap.satisfies_gap_condition ~n:100 { Gap.lambda; gap = 1.0 -. lambda; bound = 0.0 }
  in
  check Alcotest.bool "complete graph satisfies premise" true (ratio > 4.0)

(* ---------- Mixing ---------- *)

module Mixing = Spectral.Mixing

let test_walk_distribution_stochastic () =
  let g = Gen.petersen () in
  let d = Mixing.walk_distribution (csr g) ~steps:7 ~start:0 in
  let total = Array.fold_left ( +. ) 0.0 d in
  close ~eps:1e-12 "sums to 1" 1.0 total;
  Array.iter (fun p -> if p < 0.0 then Alcotest.fail "negative probability") d

let test_walk_distribution_one_step () =
  (* One step from the centre of a star: uniform on the leaves. *)
  let g = Gen.star 5 in
  let d = Mixing.walk_distribution (csr g) ~steps:1 ~start:0 in
  close "centre mass" 0.0 d.(0);
  for v = 1 to 4 do
    close "leaf mass" 0.25 d.(v)
  done

let test_tv_decay_matches_lambda () =
  (* TV decay rate on a non-bipartite regular graph recovers lambda. *)
  List.iter
    (fun (name, g, lambda) ->
      let rate = Mixing.empirical_decay_rate (csr g) ~steps:40 ~start:0 in
      close ~eps:0.02 (name ^ " decay vs lambda") lambda rate)
    [
      ("K_8", Gen.complete 8, Closed_form.complete 8);
      ("petersen", Gen.petersen (), 2.0 /. 3.0);
      ("C_9", Gen.cycle 9, Closed_form.cycle 9);
    ]

let test_tv_trajectory_monotone () =
  let g = Gen.petersen () in
  let tv = Mixing.tv_trajectory (csr g) ~steps:20 ~start:3 in
  close ~eps:1e-12 "starts at 1 - 1/n" 0.9 tv.(0);
  Array.iteri
    (fun i v -> if i > 0 && v > tv.(i - 1) +. 1e-12 then Alcotest.fail "TV increased")
    tv

let test_bipartite_never_mixes () =
  (* On a bipartite graph the parity oscillation keeps TV away from 0. *)
  let g = Gen.cycle 8 in
  let tv = Mixing.tv_trajectory (csr g) ~steps:60 ~start:0 in
  check Alcotest.bool "stuck at 1/2" true (tv.(60) > 0.49)

(* ---------- Cheeger ---------- *)

module Cheeger = Spectral.Cheeger

let test_conductance_known () =
  (* K_4: every cut of k vertices has conductance (k(4-k))/(3k) minimised
     at k=2: 4/6 = 2/3. *)
  close ~eps:1e-12 "K_4" (2.0 /. 3.0) (Cheeger.conductance_exact (csr (Gen.complete 4)));
  (* C_6: best cut is a half-arc: 2 crossing edges, volume 6 -> 1/3. *)
  close ~eps:1e-12 "C_6" (1.0 /. 3.0) (Cheeger.conductance_exact (csr (Gen.cycle 6)));
  (* Barbell: the bridge is the bottleneck: 1 / vol(one K_4 side).
     vol side = 4*3 + 1 (port gains bridge) = 13. *)
  close ~eps:1e-12 "barbell" (1.0 /. 13.0)
    (Cheeger.conductance_exact (GenC.barbell ~clique_size:4 ~path_len:0))

let test_cut_conductance () =
  let g = csr (Gen.cycle 8) in
  let s = Dstruct.Bitset.of_list 8 [ 0; 1; 2; 3 ] in
  close ~eps:1e-12 "half arc of C_8" 0.25 (Cheeger.cut_conductance g s);
  Alcotest.check_raises "empty side"
    (Invalid_argument "Cheeger.cut_conductance: zero-volume side") (fun () ->
      ignore (Cheeger.cut_conductance g (Dstruct.Bitset.create 8)))

(* Both Cheeger bounds on the random [r]-regular graph on 12 vertices
   drawn from [seed]. lambda_2 comes from Lanczos stopped on its
   tolerance, so it is within 1e-10 of the true value: the bounds can be
   tight (phi = 0.25 at lambda_2 = 0.5), and the 1e-9 slack must cover
   the estimator's error. *)
let cheeger_holds (seed, r) =
  let rng = Rng.create seed in
  let n = 12 in
  let g = Gen.random_regular rng ~n ~r in
  let phi = Cheeger.conductance_exact (csr g) in
  let l2 = (Lanczos.extremes (Rng.split rng) g).Lanczos.lambda_2 in
  Cheeger.cheeger_lower ~lambda_2:l2 <= phi +. 1e-9
  && phi <= Cheeger.cheeger_upper ~lambda_2:l2 +. 1e-9

let cheeger_inequality_prop =
  QCheck.Test.make ~name:"Cheeger inequality on random regular graphs" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 3 5))
    cheeger_holds

(* Cases where the lower bound is tight; a power-iteration lambda_2,
   stopped on a 1e-9 change per step, broke it by 2.5e-9 and 5.5e-9. *)
let test_cheeger_tight_cases () =
  List.iter
    (fun ((seed, r) as case) ->
      check Alcotest.bool
        (Printf.sprintf "seed %d, r = %d" seed r)
        true (cheeger_holds case))
    [ (6845, 4); (8565, 4) ]

let () =
  Alcotest.run "spectral"
    [
      ( "vec",
        [
          Alcotest.test_case "operations" `Quick test_vec_ops;
          Alcotest.test_case "errors" `Quick test_vec_errors;
        ] );
      ( "op",
        [
          Alcotest.test_case "walk matrix stochastic" `Quick test_walk_matrix_stochastic;
          Alcotest.test_case "implicit matvec: no words per vertex" `Quick
            test_implicit_matvec_allocation;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "diagonal" `Quick test_tridiag_diagonal;
          Alcotest.test_case "2x2" `Quick test_tridiag_known_2x2;
          Alcotest.test_case "path eigenvalues" `Quick test_tridiag_laplacian_path;
          Alcotest.test_case "sturm counts" `Quick test_sturm_count;
          Alcotest.test_case "inverse iteration" `Quick test_tridiag_eigenvector;
        ] );
      ( "eigensolvers",
        [
          Alcotest.test_case "lanczos vs closed forms" `Quick test_lanczos_vs_closed_forms;
          Alcotest.test_case "bound holds on every run" `Quick test_bound_holds;
          Alcotest.test_case "signed extremes" `Quick test_signed_eigenvalues;
          Alcotest.test_case "non-regular rejected" `Quick test_non_regular_rejected;
          qtest relabel_invariance_prop;
        ] );
      ( "closed_form",
        [ Alcotest.test_case "special values" `Quick test_closed_form_values ] );
      ( "mixing",
        [
          Alcotest.test_case "distribution stochastic" `Quick test_walk_distribution_stochastic;
          Alcotest.test_case "one step from star centre" `Quick test_walk_distribution_one_step;
          Alcotest.test_case "TV decay recovers lambda" `Quick test_tv_decay_matches_lambda;
          Alcotest.test_case "TV monotone" `Quick test_tv_trajectory_monotone;
          Alcotest.test_case "bipartite never mixes" `Quick test_bipartite_never_mixes;
        ] );
      ( "cheeger",
        [
          Alcotest.test_case "known conductances" `Quick test_conductance_known;
          Alcotest.test_case "cut conductance" `Quick test_cut_conductance;
          qtest cheeger_inequality_prop;
          Alcotest.test_case "tight cases" `Quick test_cheeger_tight_cases;
        ] );
      ( "gap",
        [
          Alcotest.test_case "estimate and bounds" `Quick test_gap_estimate_and_bounds;
          Alcotest.test_case "premise ratio" `Quick test_gap_condition;
        ] );
    ]
