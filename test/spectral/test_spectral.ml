(* Tests for the spectral library: vector kernels, operators, tridiagonal
   eigenvalues, power iteration and Lanczos against closed forms, and the
   gap/bound helpers. *)

module Vec = Spectral.Vec
module Op = Spectral.Op
module Tridiag = Spectral.Tridiag
module Power = Spectral.Power
module Lanczos = Spectral.Lanczos
module Closed_form = Spectral.Closed_form
module Gap = Spectral.Gap
(* Op/Power/Lanczos/Gap consume Graph.View; Mixing and the Cheeger
   helpers stay on heap CSR, so this shim builds views and [csr] peels
   them back (free for heap views). *)
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
  let u = Vec.uniform_unit 4 in
  close "uniform unit norm" 1.0 (Vec.norm2 u);
  let v = [| 1.0; 1.0; 1.0; 5.0 |] in
  Vec.project_out ~dir:u v;
  close ~eps:1e-9 "projection removes component" 0.0 (Vec.dot u v)

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

let test_shift_scale () =
  let g = Gen.complete 4 in
  let op = Op.shift_scale (Op.walk_matrix g) ~alpha:2.0 ~beta:1.0 in
  let ones = Array.make 4 1.0 in
  let y = Op.apply op ones in
  (* 2*P*1 + 1*1 = 3 *)
  Array.iter (fun v -> close "affine spectrum map" 3.0 v) y

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

(* ---------- eigensolvers vs closed forms ---------- *)

let oracle_cases =
  [
    ("K_5", Gen.complete 5, Closed_form.complete 5);
    ("K_30", Gen.complete 30, Closed_form.complete 30);
    ("C_9", Gen.cycle 9, Closed_form.cycle 9);
    ("C_12", Gen.cycle 12, Closed_form.cycle 12);
    ("Q_3", Gen.hypercube 3, Closed_form.hypercube 3);
    ("Q_5", Gen.hypercube 5, Closed_form.hypercube 5);
    ("FQ_4", Gen.folded_hypercube 4, Closed_form.folded_hypercube 4);
    ("FQ_6", Gen.folded_hypercube 6, Closed_form.folded_hypercube 6);
    ("K_4,4", Gen.complete_bipartite 4 4, Closed_form.complete_bipartite 4 4);
    ("circ(20,{1,3})", Gen.circulant 20 [ 1; 3 ], Closed_form.circulant 20 [ 1; 3 ]);
    ("circ(15,{1,2,4})", Gen.circulant 15 [ 1; 2; 4 ], Closed_form.circulant 15 [ 1; 2; 4 ]);
    ("torus 5x7", Gen.torus [| 5; 7 |], Closed_form.torus [| 5; 7 |]);
    ("torus 3x3x3", Gen.torus [| 3; 3; 3 |], Closed_form.torus [| 3; 3; 3 |]);
    ("petersen", Gen.petersen (), 2.0 /. 3.0);
  ]

let test_power_vs_closed_forms () =
  let rng = Rng.create 71 in
  List.iter
    (fun (name, g, expected) ->
      let got = Power.lambda_max (Rng.split rng) g in
      close ~eps:1e-4 ("power " ^ name) expected got)
    oracle_cases

let test_lanczos_vs_closed_forms () =
  let rng = Rng.create 72 in
  List.iter
    (fun (name, g, expected) ->
      let got = Lanczos.lambda_max (Rng.split rng) g in
      close ~eps:1e-4 ("lanczos " ^ name) expected got)
    oracle_cases

let test_signed_eigenvalues () =
  let rng = Rng.create 73 in
  (* Petersen: lambda_2 = 1/3, lambda_n = -2/3. *)
  let g = Gen.petersen () in
  close ~eps:1e-6 "petersen l2" (1.0 /. 3.0) (Power.lambda_2 (Rng.split rng) g).Power.value;
  close ~eps:1e-6 "petersen ln" (-2.0 /. 3.0)
    (Power.lambda_min (Rng.split rng) g).Power.value;
  (* Complete: lambda_2 = lambda_n = -1/(n-1). *)
  let k6 = Gen.complete 6 in
  close ~eps:1e-6 "K6 ln" (-0.2) (Power.lambda_min (Rng.split rng) k6).Power.value;
  (* Bipartite: lambda_n = -1. *)
  let q3 = Gen.hypercube 3 in
  close ~eps:1e-6 "Q3 ln" (-1.0) (Power.lambda_min (Rng.split rng) q3).Power.value;
  let l2, ln = Closed_form.signed_hypercube 3 in
  close "Q3 closed l2" (1.0 /. 3.0) l2;
  close "Q3 closed ln" (-1.0) ln

let test_non_regular_rejected () =
  let rng = Rng.create 74 in
  let star = Gen.star 5 in
  Alcotest.check_raises "power requires regular"
    (Invalid_argument "Power.lambda_2: requires a regular graph with positive degree")
    (fun () -> ignore (Power.lambda_2 rng star));
  Alcotest.check_raises "lanczos requires regular"
    (Invalid_argument "Lanczos.extremes: requires a regular graph") (fun () ->
      ignore (Lanczos.extremes rng star))

let relabel_invariance_prop =
  QCheck.Test.make ~name:"lambda_max invariant under relabelling" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:24 ~r:4 in
      let perm = Array.init 24 Fun.id in
      Prng.Sample.shuffle rng perm;
      let g' = Graph.View.of_csr (Graph.Csr.relabel (csr g) perm) in
      let l = Power.lambda_max (Rng.split rng) g in
      let l' = Power.lambda_max (Rng.split rng) g' in
      Float.abs (l -. l') < 1e-5)

let power_lanczos_agree_prop =
  QCheck.Test.make ~name:"power and lanczos agree on random regular graphs" ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 3 6))
    (fun (seed, r) ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:40 ~r in
      let p = Power.lambda_max (Rng.split rng) g in
      let l = Lanczos.lambda_max (Rng.split rng) g in
      Float.abs (p -. l) < 5e-4)

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
  close ~eps:1e-4 "estimate lambda" (2.0 /. 3.0) gap.Gap.lambda;
  close ~eps:1e-4 "gap" (1.0 /. 3.0) gap.Gap.gap;
  let bound = Gap.theorem1_bound ~n:10 gap in
  close ~eps:0.01 "theorem1 bound" (log 10.0 /. ((1.0 /. 3.0) ** 3.0)) bound;
  let growth = Gap.growth_factor ~n:10 gap ~a:5 in
  close ~eps:1e-4 "growth factor" (1.0 +. ((1.0 -. (4.0 /. 9.0)) *. 0.5)) growth

let test_gap_of_lambda () =
  let gap = Gap.of_lambda 0.9 in
  close "gap" 0.1 gap.Gap.gap;
  check Alcotest.bool "bound finite" true (Float.is_finite (Gap.theorem1_bound ~n:100 gap));
  let degenerate = Gap.of_lambda 1.0 in
  check Alcotest.bool "bound infinite at lambda=1" true
    (Gap.theorem1_bound ~n:100 degenerate = infinity)

let test_mixing_time () =
  let gap = Gap.of_lambda 0.5 in
  close ~eps:1e-9 "mixing bound" (log (100.0 /. 0.01) /. 0.5)
    (Gap.mixing_time_upper ~n:100 gap);
  check Alcotest.bool "infinite at lambda 1" true
    (Gap.mixing_time_upper ~n:100 (Gap.of_lambda 1.0) = infinity);
  Alcotest.check_raises "eps range" (Invalid_argument "Gap.mixing_time_upper: eps in (0,1)")
    (fun () -> ignore (Gap.mixing_time_upper ~n:100 ~eps:2.0 gap))

let test_gap_condition () =
  (* For K_n the premise ratio grows like sqrt(n / log n). *)
  let g100 = Gap.of_lambda (Closed_form.complete 100) in
  let ratio = Gap.satisfies_gap_condition ~n:100 g100 in
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
   drawn from [seed]. lambda_2 comes from Lanczos, whose 11 steps span
   the whole deflated space at n = 12, so it is exact to rounding: the
   bounds can be tight (phi = 0.25 at lambda_2 = 0.5), and power
   iteration's stopping rule leaves an error above the 1e-9 slack. *)
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

(* Cases where the lower bound is tight; power iteration's lambda_2
   broke it by 2.5e-9 and 5.5e-9. *)
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
          Alcotest.test_case "shift/scale" `Quick test_shift_scale;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "diagonal" `Quick test_tridiag_diagonal;
          Alcotest.test_case "2x2" `Quick test_tridiag_known_2x2;
          Alcotest.test_case "path eigenvalues" `Quick test_tridiag_laplacian_path;
          Alcotest.test_case "sturm counts" `Quick test_sturm_count;
        ] );
      ( "eigensolvers",
        [
          Alcotest.test_case "power vs closed forms" `Quick test_power_vs_closed_forms;
          Alcotest.test_case "lanczos vs closed forms" `Quick test_lanczos_vs_closed_forms;
          Alcotest.test_case "signed extremes" `Quick test_signed_eigenvalues;
          Alcotest.test_case "non-regular rejected" `Quick test_non_regular_rejected;
          qtest relabel_invariance_prop;
          qtest power_lanczos_agree_prop;
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
          Alcotest.test_case "of_lambda" `Quick test_gap_of_lambda;
          Alcotest.test_case "mixing time" `Quick test_mixing_time;
          Alcotest.test_case "premise ratio" `Quick test_gap_condition;
        ] );
    ]
