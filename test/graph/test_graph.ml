(* Tests for the graph library: CSR representation, builders, generators,
   algorithms, I/O and the textual spec parser. *)

module Csr = Graph.Csr
module Build = Graph.Build
module Gen = Graph.Gen
module Algo = Graph.Algo
module Io = Graph.Io
module Spec = Graph.Spec
module Rng = Prng.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Csr ---------- *)

let triangle () = Csr.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let test_csr_basics () =
  let g = triangle () in
  check Alcotest.int "n" 3 (Csr.n_vertices g);
  check Alcotest.int "m" 3 (Csr.n_edges g);
  check Alcotest.int "deg" 2 (Csr.degree g 0);
  check Alcotest.(option int) "regular" (Some 2) (Csr.regularity g);
  check Alcotest.bool "edge 0-1" true (Csr.mem_edge g 0 1);
  check Alcotest.bool "edge symmetric" true (Csr.mem_edge g 1 0);
  check Alcotest.(list (pair int int)) "edges" [ (0, 1); (0, 2); (1, 2) ] (Csr.edges g);
  check Alcotest.(array int) "neighbours sorted" [| 1; 2 |] (Csr.neighbours g 0)

let test_csr_rejects_bad_edges () =
  Alcotest.check_raises "self loop" (Invalid_argument "Csr: self-loop") (fun () ->
      ignore (Csr.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Csr: duplicate edge") (fun () ->
      ignore (Csr.of_edges ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Csr: edge endpoint out of range")
    (fun () -> ignore (Csr.of_edges ~n:3 [ (0, 3) ]))

(* Neighbour reads of a heap CSR graph go through its Graph.View. *)
let test_csr_nth_and_random_neighbour () =
  let g = Gen.star 5 in
  check Alcotest.int "centre degree" 4 (Csr.degree g 0);
  let v = Graph.View.of_csr g in
  check Alcotest.int "nth 2" 3 (Graph.View.nth_neighbour v 0 2);
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let w = Graph.View.random_neighbour v rng 0 in
    if w < 1 || w > 4 then Alcotest.fail "random neighbour out of star leaves";
    check Alcotest.int "leaf neighbour is centre" 0 (Graph.View.random_neighbour v rng w)
  done

let test_csr_degree_counts () =
  let g = Gen.star 5 in
  check Alcotest.(list (pair int int)) "degree histogram" [ (1, 4); (4, 1) ]
    (Csr.degree_counts g);
  check Alcotest.int "max degree" 4 (Csr.max_degree g);
  check Alcotest.int "min degree" 1 (Csr.min_degree g)

let test_csr_equal_monomorphic () =
  let g = Gen.petersen () in
  let id = Array.init 10 Fun.id in
  check Alcotest.bool "equal to identity relabel" true (Csr.equal g (Csr.relabel g id));
  check Alcotest.bool "not equal to different graph" false
    (Csr.equal g (Gen.cycle 10));
  check Alcotest.bool "different n" false (Csr.equal g (Gen.cycle 9));
  check Alcotest.bool "empty graphs equal" true
    (Csr.equal (Csr.of_edges ~n:0 []) (Csr.of_edges ~n:0 []))

(* The direct CSR relabel must match the definitional one (map every edge
   through the permutation and rebuild). *)
let relabel_matches_edge_map_prop =
  QCheck.Test.make ~name:"relabel = edge-list relabel" ~count:60
    QCheck.(pair (int_range 2 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng ~n ~p:0.2 in
      (* Fisher-Yates permutation from the same stream. *)
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let direct = Csr.relabel g perm in
      let via_edges =
        Csr.of_edges ~n
          (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Csr.edges g))
      in
      Csr.equal direct via_edges)

let test_csr_relabel_identity () =
  let g = Gen.petersen () in
  let id = Array.init 10 Fun.id in
  check Alcotest.bool "identity relabel" true (Csr.equal g (Csr.relabel g id))

let test_csr_relabel_validation () =
  let g = triangle () in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Csr.relabel: not a permutation") (fun () ->
      ignore (Csr.relabel g [| 0; 0; 1 |]))

let csr_roundtrip_prop =
  QCheck.Test.make ~name:"of_edges . edges = id (canonical)" ~count:200
    QCheck.(small_list (pair (int_bound 19) (int_bound 19)))
    (fun raw ->
      (* Canonicalise the random edge list first. *)
      let edges =
        raw
        |> List.filter_map (fun (a, b) ->
               if a = b then None else Some (min a b, max a b))
        |> List.sort_uniq compare
      in
      let g = Csr.of_edges ~n:20 edges in
      Csr.edges g = edges && Csr.n_edges g = List.length edges)

(* ---------- Build ---------- *)

let test_build () =
  let b = Build.create ~n:4 in
  Build.add_edge b 0 1;
  Build.add_edge b 2 3;
  check Alcotest.bool "mem_edge" true (Build.mem_edge b 1 0);
  check Alcotest.bool "not mem_edge" false (Build.mem_edge b 0 2);
  check Alcotest.int "n_edges" 2 (Build.n_edges b);
  let g = Build.finish b in
  check Alcotest.int "edges" 2 (Csr.n_edges g);
  Alcotest.check_raises "builder reuse" (Invalid_argument "Build: already finished")
    (fun () -> Build.add_edge b 0 2)

(* ---------- generators: structural facts ---------- *)

let test_complete () =
  let g = Gen.complete 7 in
  check Alcotest.int "m" 21 (Csr.n_edges g);
  check Alcotest.(option int) "regular" (Some 6) (Csr.regularity g);
  check Alcotest.int "diameter" 1 (Algo.diameter g)

let test_cycle () =
  let g = Gen.cycle 9 in
  check Alcotest.int "m" 9 (Csr.n_edges g);
  check Alcotest.(option int) "2-regular" (Some 2) (Csr.regularity g);
  check Alcotest.int "diameter" 4 (Algo.diameter g);
  check Alcotest.bool "odd cycle not bipartite" false (Algo.is_bipartite g);
  check Alcotest.bool "even cycle bipartite" true (Algo.is_bipartite (Gen.cycle 10))

let test_path_star_wheel () =
  let p = Gen.path 6 in
  check Alcotest.int "path edges" 5 (Csr.n_edges p);
  check Alcotest.int "path diameter" 5 (Algo.diameter p);
  let s = Gen.star 6 in
  check Alcotest.int "star edges" 5 (Csr.n_edges s);
  check Alcotest.int "star diameter" 2 (Algo.diameter s);
  let w = Gen.wheel 7 in
  check Alcotest.int "wheel edges" 12 (Csr.n_edges w);
  check Alcotest.int "wheel hub degree" 6 (Csr.degree w 0);
  check Alcotest.int "wheel diameter" 2 (Algo.diameter w)

let test_hypercube () =
  let g = Gen.hypercube 4 in
  check Alcotest.int "n" 16 (Csr.n_vertices g);
  check Alcotest.(option int) "4-regular" (Some 4) (Csr.regularity g);
  check Alcotest.int "diameter = d" 4 (Algo.diameter g);
  check Alcotest.bool "bipartite" true (Algo.is_bipartite g);
  check Alcotest.bool "edge differs in one bit" true (Csr.mem_edge g 0b0101 0b0111)

let test_folded_hypercube () =
  let g = Gen.folded_hypercube 4 in
  check Alcotest.int "n" 16 (Csr.n_vertices g);
  check Alcotest.(option int) "(d+1)-regular" (Some 5) (Csr.regularity g);
  check Alcotest.bool "even d non-bipartite" false (Algo.is_bipartite g);
  check Alcotest.int "diameter d/2" 2 (Algo.diameter g);
  check Alcotest.bool "complement edge" true (Csr.mem_edge g 0b0000 0b1111);
  (* odd d keeps bipartiteness *)
  check Alcotest.bool "odd d bipartite" true (Algo.is_bipartite (Gen.folded_hypercube 5))

let test_torus_grid () =
  let t = Gen.torus [| 4; 5 |] in
  check Alcotest.int "torus n" 20 (Csr.n_vertices t);
  check Alcotest.(option int) "torus 4-regular" (Some 4) (Csr.regularity t);
  check Alcotest.bool "connected" true (Algo.is_connected t);
  let g = Gen.grid [| 4; 5 |] in
  check Alcotest.int "grid n" 20 (Csr.n_vertices g);
  check Alcotest.int "grid edges" 31 (Csr.n_edges g);
  check Alcotest.int "grid diameter" 7 (Algo.diameter g);
  (* Side of length 2 must produce a single edge, not a doubled one. *)
  let thin = Gen.torus [| 2; 3 |] in
  check Alcotest.int "2x3 torus edges" 9 (Csr.n_edges thin);
  (* 3-d case: side lengths multiply, degree 6 when all sides >= 3 *)
  let t3 = Gen.torus [| 3; 3; 3 |] in
  check Alcotest.(option int) "3d torus 6-regular" (Some 6) (Csr.regularity t3)

let test_lattice_edge_cases () =
  (* trivial sides contribute nothing *)
  let g = Gen.torus [| 1; 5 |] in
  check Alcotest.int "1x5 torus is C_5" 5 (Csr.n_edges g);
  let line = Gen.grid [| 1; 4 |] in
  check Alcotest.int "1x4 grid is P_4" 3 (Csr.n_edges line);
  (* single-dimension torus is a cycle; single-dimension grid a path *)
  check Alcotest.bool "torus [6] = C_6" true (Csr.equal (Gen.torus [| 6 |]) (Gen.cycle 6));
  check Alcotest.bool "grid [6] = P_6" true (Csr.equal (Gen.grid [| 6 |]) (Gen.path 6));
  Alcotest.check_raises "zero side" (Invalid_argument "Gen.lattice: sides must be >= 1")
    (fun () -> ignore (Gen.torus [| 0; 3 |]))

let test_generator_validation () =
  Alcotest.check_raises "complete 0" (Invalid_argument "Gen.complete: n >= 1 required")
    (fun () -> ignore (Gen.complete 0));
  Alcotest.check_raises "cycle 2" (Invalid_argument "Gen.cycle: n >= 3 required")
    (fun () -> ignore (Gen.cycle 2));
  Alcotest.check_raises "wheel 3" (Invalid_argument "Gen.wheel: n >= 4 required")
    (fun () -> ignore (Gen.wheel 3));
  Alcotest.check_raises "ring of 2 cliques"
    (Invalid_argument "Gen.ring_of_cliques: cliques >= 3") (fun () ->
      ignore (Gen.ring_of_cliques ~cliques:2 ~clique_size:4));
  Alcotest.check_raises "folded hypercube 1"
    (Invalid_argument "Gen.folded_hypercube: 2 <= d <= 20") (fun () ->
      ignore (Gen.folded_hypercube 1))

let test_binary_tree () =
  let g = Gen.binary_tree 3 in
  check Alcotest.int "n" 15 (Csr.n_vertices g);
  check Alcotest.int "m" 14 (Csr.n_edges g);
  check Alcotest.bool "connected" true (Algo.is_connected g);
  check Alcotest.int "root degree" 2 (Csr.degree g 0);
  check Alcotest.int "leaf degree" 1 (Csr.degree g 14)

let test_circulant () =
  let g = Gen.circulant 10 [ 1; 2 ] in
  check Alcotest.(option int) "4-regular" (Some 4) (Csr.regularity g);
  check Alcotest.bool "0-1" true (Csr.mem_edge g 0 1);
  check Alcotest.bool "0-2" true (Csr.mem_edge g 0 2);
  check Alcotest.bool "0-8 (=-2)" true (Csr.mem_edge g 0 8);
  (* antipodal offset: degree 2*1 + 1 = 3 *)
  let a = Gen.circulant 8 [ 1; 4 ] in
  check Alcotest.(option int) "antipodal 3-regular" (Some 3) (Csr.regularity a);
  Alcotest.check_raises "offset too large"
    (Invalid_argument "Gen.circulant: offsets must lie in 1 .. n/2") (fun () ->
      ignore (Gen.circulant 10 [ 6 ]))

let test_petersen () =
  let g = Gen.petersen () in
  check Alcotest.int "n" 10 (Csr.n_vertices g);
  check Alcotest.int "m" 15 (Csr.n_edges g);
  check Alcotest.(option int) "3-regular" (Some 3) (Csr.regularity g);
  check Alcotest.int "diameter 2" 2 (Algo.diameter g);
  check Alcotest.bool "not bipartite" false (Algo.is_bipartite g)

let test_ring_of_cliques () =
  let g = Gen.ring_of_cliques ~cliques:4 ~clique_size:5 in
  check Alcotest.int "n" 20 (Csr.n_vertices g);
  check Alcotest.bool "connected" true (Algo.is_connected g);
  (* each clique contributes C(5,2) edges plus one bridge per clique *)
  check Alcotest.int "m" ((4 * 10) + 4) (Csr.n_edges g)

let test_barbell_lollipop () =
  let b = Gen.barbell ~clique_size:4 ~path_len:3 in
  check Alcotest.int "barbell n" 11 (Csr.n_vertices b);
  check Alcotest.bool "barbell connected" true (Algo.is_connected b);
  check Alcotest.int "barbell m" (6 + 6 + 4) (Csr.n_edges b);
  let l = Gen.lollipop ~clique_size:4 ~path_len:3 in
  check Alcotest.int "lollipop n" 7 (Csr.n_vertices l);
  check Alcotest.int "lollipop m" (6 + 3) (Csr.n_edges l);
  check Alcotest.int "lollipop end degree" 1 (Csr.degree l 6)

let test_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  check Alcotest.int "m" 12 (Csr.n_edges g);
  check Alcotest.bool "bipartite" true (Algo.is_bipartite g);
  check Alcotest.int "left degree" 4 (Csr.degree g 0);
  check Alcotest.int "right degree" 3 (Csr.degree g 5)

let test_random_regular () =
  let rng = Rng.create 17 in
  List.iter
    (fun (n, r) ->
      let g = Gen.random_regular rng ~n ~r in
      check Alcotest.(option int) (Printf.sprintf "%d-regular n=%d" r n) (Some r)
        (Csr.regularity g);
      check Alcotest.bool "connected" true (Algo.is_connected g))
    [ (10, 3); (50, 3); (100, 4); (64, 8); (40, 2); (30, 16); (20, 19) ];
  Alcotest.check_raises "odd n*r" (Invalid_argument "Gen.random_regular: n * r must be even")
    (fun () -> ignore (Gen.random_regular rng ~n:5 ~r:3))

let test_erdos_renyi () =
  let rng = Rng.create 18 in
  let g = Gen.erdos_renyi rng ~n:200 ~p:0.05 in
  let m = Csr.n_edges g in
  (* E[m] = C(200,2)*0.05 = 995, sd ~ 31 — allow 6 sd *)
  if m < 800 || m > 1200 then Alcotest.failf "G(n,p) edge count out of range: %d" m;
  check Alcotest.int "p=0 no edges" 0 (Csr.n_edges (Gen.erdos_renyi rng ~n:50 ~p:0.0));
  check Alcotest.int "p=1 complete" (50 * 49 / 2)
    (Csr.n_edges (Gen.erdos_renyi rng ~n:50 ~p:1.0))

let test_gnm () =
  let rng = Rng.create 19 in
  let g = Gen.gnm rng ~n:30 ~m:100 in
  check Alcotest.int "exact edge count" 100 (Csr.n_edges g);
  check Alcotest.int "m=0" 0 (Csr.n_edges (Gen.gnm rng ~n:10 ~m:0));
  check Alcotest.int "m=max" 45 (Csr.n_edges (Gen.gnm rng ~n:10 ~m:45))

let test_rewire_preserves_degrees () =
  let rng = Rng.create 20 in
  let g = Gen.circulant 30 [ 1; 2 ] in
  let g' = Gen.rewire rng g ~swaps:500 in
  check Alcotest.(option int) "still 4-regular" (Some 4) (Csr.regularity g');
  check Alcotest.int "same edge count" (Csr.n_edges g) (Csr.n_edges g');
  check Alcotest.bool "actually changed" false (Csr.equal g g');
  (* zero swaps is the identity *)
  check Alcotest.bool "0 swaps" true (Csr.equal g (Gen.rewire rng g ~swaps:0))

let rewire_degree_sequence_prop =
  QCheck.Test.make ~name:"rewire preserves the degree sequence" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 300))
    (fun (seed, swaps) ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~n:20 ~m:40 in
      let g' = Gen.rewire rng g ~swaps in
      Csr.degree_counts g = Csr.degree_counts g')

let test_barabasi_albert () =
  let rng = Rng.create 21 in
  let g = Gen.barabasi_albert rng ~n:200 ~m:2 ~prob_unbiased:0.0 in
  check Alcotest.int "n" 200 (Csr.n_vertices g);
  (* seed K3 (3 edges) plus m = 2 per later vertex *)
  check Alcotest.int "edge count" (3 + (197 * 2)) (Csr.n_edges g);
  check Alcotest.bool "connected" true (Algo.is_connected g);
  check Alcotest.bool "min degree >= m" true (Csr.min_degree g >= 2);
  (* Pure preferential attachment grows hubs far beyond the uniform
     regime's expected max degree (~ m + log n ~ 7 at n = 200). *)
  check Alcotest.bool "grows a hub" true (Csr.max_degree g > 10);
  (* The prob_unbiased endpoints: 1.0 is pure uniform attachment, 0.0
     pure preferential — both must stay simple/connected with the same
     edge budget. *)
  List.iter
    (fun p ->
      let g = Gen.barabasi_albert (Rng.create 22) ~n:100 ~m:3 ~prob_unbiased:p in
      check Alcotest.int (Printf.sprintf "p=%g edges" p) (6 + (96 * 3)) (Csr.n_edges g);
      check Alcotest.bool (Printf.sprintf "p=%g connected" p) true (Algo.is_connected g);
      check Alcotest.bool (Printf.sprintf "p=%g min degree" p) true (Csr.min_degree g >= 3))
    [ 0.0; 1.0 ];
  Alcotest.check_raises "m >= 1" (Invalid_argument "Gen.barabasi_albert: m >= 1 required")
    (fun () -> ignore (Gen.barabasi_albert rng ~n:5 ~m:0 ~prob_unbiased:0.0));
  Alcotest.check_raises "n >= m + 1"
    (Invalid_argument "Gen.barabasi_albert: n >= m + 1 required") (fun () ->
      ignore (Gen.barabasi_albert rng ~n:3 ~m:3 ~prob_unbiased:0.0));
  Alcotest.check_raises "p in [0, 1]"
    (Invalid_argument "Gen.barabasi_albert: prob_unbiased outside [0, 1]") (fun () ->
      ignore (Gen.barabasi_albert rng ~n:5 ~m:1 ~prob_unbiased:1.5))

let barabasi_albert_prop =
  (* CSR construction rejects self-loops and duplicate edges, so a
     successful build is itself the simplicity check. *)
  QCheck.Test.make
    ~name:"barabasi_albert: simple, connected, min degree >= m, deterministic"
    ~count:40
    QCheck.(triple (int_range 0 10_000) (int_range 1 5) (int_range 0 2))
    (fun (seed, m, pk) ->
      let n = m + 2 + (seed mod 60) in
      let p = [| 0.0; 0.5; 1.0 |].(pk) in
      let gen s = Gen.barabasi_albert (Rng.create s) ~n ~m ~prob_unbiased:p in
      let g = gen seed in
      let expected_edges = (m * (m + 1) / 2) + ((n - m - 1) * m) in
      let degree_sum =
        List.fold_left (fun a (d, c) -> a + (d * c)) 0 (Csr.degree_counts g)
      in
      Csr.n_vertices g = n
      && Csr.n_edges g = expected_edges
      && degree_sum = 2 * expected_edges
      && Csr.min_degree g >= m
      && Algo.is_connected g
      && Csr.equal g (gen seed))

let random_regular_prop =
  QCheck.Test.make ~name:"random_regular always simple connected r-regular" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 3 8))
    (fun (seed, r) ->
      let n = 2 * (10 + (seed mod 20)) in
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n ~r in
      Csr.regularity g = Some r && Algo.is_connected g)

(* ---------- algorithms ---------- *)

let test_bfs_distances () =
  let g = Gen.cycle 8 in
  let d = Algo.bfs g 0 in
  check Alcotest.(array int) "cycle distances" [| 0; 1; 2; 3; 4; 3; 2; 1 |] d

let test_bfs_unreachable () =
  let g = Csr.of_edges ~n:4 [ (0, 1) ] in
  let d = Algo.bfs g 0 in
  check Alcotest.int "unreachable" (-1) d.(2);
  check Alcotest.bool "not connected" false (Algo.is_connected g);
  let comp, count = Algo.components g in
  check Alcotest.int "three components" 3 count;
  check Alcotest.int "same comp" comp.(0) comp.(1)

let test_diameter_pseudo () =
  let g = Gen.grid [| 3; 7 |] in
  let exact = Algo.diameter g in
  check Alcotest.int "grid diameter" 8 exact;
  let pseudo = Algo.pseudo_diameter g in
  check Alcotest.bool "pseudo <= exact" true (pseudo <= exact);
  check Alcotest.bool "pseudo >= exact/2" true (2 * pseudo >= exact)

let test_eccentricity_disconnected () =
  let g = Csr.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "disconnected" (Invalid_argument "Algo: graph is disconnected")
    (fun () -> ignore (Algo.eccentricity g 0))

let test_average_distance () =
  let g = Gen.complete 5 in
  check (Alcotest.float 1e-9) "avg distance K5" 0.8 (Algo.average_distance g 0)

let bfs_triangle_inequality_prop =
  QCheck.Test.make ~name:"BFS distances satisfy |d(u)-d(v)| <= 1 across edges" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:40 ~r:3 in
      let d = Algo.bfs g 0 in
      let ok = ref true in
      Csr.iter_edges g ~f:(fun u v -> if abs (d.(u) - d.(v)) > 1 then ok := false);
      !ok)

(* ---------- io ---------- *)

let test_io_roundtrip () =
  let g = Gen.petersen () in
  let s = Io.to_edge_list g in
  let g' = Io.of_edge_list s in
  check Alcotest.bool "roundtrip" true (Csr.equal g g')

let test_io_comments_and_blanks () =
  let g = Io.of_edge_list "# comment\n3 2\n\n0 1\n# another\n1 2\n" in
  check Alcotest.int "n" 3 (Csr.n_vertices g);
  check Alcotest.int "m" 2 (Csr.n_edges g)

let test_io_errors () =
  Alcotest.check_raises "missing header" (Failure "edge list: missing header line")
    (fun () -> ignore (Io.of_edge_list "# nothing\n"));
  Alcotest.check_raises "bad count"
    (Failure "edge list: header declares 5 edges, found 1") (fun () ->
      ignore (Io.of_edge_list "3 5\n0 1\n"))

let test_io_dot () =
  let dot = Io.to_dot ~name:"t" (triangle ()) in
  check Alcotest.bool "contains edge" true
    (String.length dot > 0
    && String.split_on_char '\n' dot |> List.exists (fun l -> String.trim l = "0 -- 1;"))

let io_roundtrip_prop =
  QCheck.Test.make ~name:"edge list roundtrips arbitrary graphs" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~n:25 ~m:40 in
      Csr.equal g (Io.of_edge_list (Io.to_edge_list g)))

(* ---------- spec parser ---------- *)

let build_spec s =
  match Spec.parse s with
  | Error e -> Alcotest.failf "parse %s: %s" s e
  | Ok spec -> (
    match Spec.build spec (Rng.create 5) with
    | Error e -> Alcotest.failf "build %s: %s" s e
    | Ok g -> g)

let test_spec_families () =
  List.iter
    (fun (s, n, m) ->
      let g = build_spec s in
      check Alcotest.int (s ^ " n") n (Csr.n_vertices g);
      check Alcotest.int (s ^ " m") m (Csr.n_edges g))
    [
      ("complete:5", 5, 10);
      ("cycle:6", 6, 6);
      ("path:4", 4, 3);
      ("star:5", 5, 4);
      ("wheel:5", 5, 8);
      ("hypercube:3", 8, 12);
      ("binary-tree:2", 7, 6);
      ("petersen", 10, 15);
      ("torus:3x4", 12, 24);
      ("grid:2x3", 6, 7);
      ("circulant:8:1+2", 8, 16);
      ("complete-bipartite:2x3", 5, 6);
      ("ring-of-cliques:3x3", 9, 12);
      ("barbell:3x1", 7, 8);
      ("lollipop:3x2", 5, 5);
    ]

let test_spec_random_families () =
  let g = build_spec "random-regular:20x3" in
  check Alcotest.(option int) "rr regular" (Some 3) (Csr.regularity g);
  let g2 = build_spec "gnm:10x12" in
  check Alcotest.int "gnm m" 12 (Csr.n_edges g2);
  check Alcotest.bool "er builds" true (Csr.n_vertices (build_spec "er:30:0.1") = 30)

let test_spec_errors () =
  (match Spec.parse "nonsense:4" with
  | Ok _ -> Alcotest.fail "accepted nonsense"
  | Error _ -> ());
  (match Spec.parse "complete:xyz" with
  | Ok _ -> Alcotest.fail "accepted non-integer"
  | Error _ -> ());
  match Spec.parse "complete:0" with
  | Error _ -> ()
  | Ok spec -> (
    (* size validation happens at build time *)
    match Spec.build spec (Rng.create 1) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "built complete:0")

let test_spec_to_string_roundtrip () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok spec -> check Alcotest.string "canonical" s (Spec.to_string spec))
    [
      "complete:5"; "cycle:6"; "petersen"; "torus:3x4"; "circulant:8:1+2";
      "random-regular:20x3"; "ring-of-cliques:3x3"; "er:30:0.1";
    ]

let test_spec_is_random () =
  let random s = Spec.is_random (Result.get_ok (Spec.parse s)) in
  check Alcotest.bool "rr random" true (random "random-regular:10x3");
  check Alcotest.bool "ba random" true (random "ba:10,2");
  check Alcotest.bool "complete deterministic" false (random "complete:5")

let test_spec_ba () =
  let g = build_spec "ba:50,2" in
  check Alcotest.int "ba n" 50 (Csr.n_vertices g);
  check Alcotest.int "ba m" (3 + (47 * 2)) (Csr.n_edges g);
  (* The x-separated spelling survives comma-splitting sweep grids and
     parses to the same spec. *)
  check Alcotest.bool "comma and x spellings agree" true
    (Spec.parse "ba:50x2x0.25" = Spec.parse "ba:50,2,0.25");
  check Alcotest.string "canonical without p" "ba:50,2"
    (Spec.to_string (Result.get_ok (Spec.parse "ba:50x2")));
  check Alcotest.string "canonical with p" "ba:50,2,0.25"
    (Spec.to_string (Result.get_ok (Spec.parse "ba:50,2,0.25")));
  (match Spec.parse "ba:50,2,1.5" with
  | Ok spec -> (
    match Spec.build spec (Rng.create 1) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "built ba with p = 1.5")
  | Error _ -> ());
  match Spec.parse "ba:50" with
  | Ok _ -> Alcotest.fail "accepted ba with missing m"
  | Error _ -> ()

(* The family menu is derived from the parser's own registry, so a new
   family can never be parseable yet missing from the menu (or listed
   but unparseable). Guard both directions with one example per family. *)
let test_spec_menu_matches_parser () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let example = function
    | "petersen" -> "petersen"
    | "torus" -> "torus:3x4"
    | "grid" -> "grid:2x3"
    | "circulant" -> "circulant:8:1+2"
    | "complete-bipartite" -> "complete-bipartite:2x3"
    | "ring-of-cliques" -> "ring-of-cliques:3x3"
    | "barbell" -> "barbell:3x1"
    | "lollipop" -> "lollipop:3x2"
    | "random-regular" -> "random-regular:10x3"
    | "er" -> "er:10:0.2"
    | "gnm" -> "gnm:10x12"
    | "ba" -> "ba:10,2"
    | f -> f ^ ":3"
  in
  check Alcotest.bool "menu is non-trivial" true (List.length Spec.families >= 19);
  check Alcotest.bool "ba is in the menu" true (List.mem "ba" Spec.families);
  List.iter
    (fun family ->
      (match Spec.parse (example family) with
      | Ok spec ->
        check Alcotest.string (family ^ " roundtrips its head") family
          (List.hd (String.split_on_char ':' (Spec.to_string spec)))
      | Error e -> Alcotest.failf "menu family %s does not parse: %s" family e);
      check Alcotest.bool (family ^ " appears in syntax help") true
        (contains Spec.syntax_help family))
    Spec.families;
  match Spec.parse "zzz:4" with
  | Ok _ -> Alcotest.fail "accepted an unknown family"
  | Error e ->
    (* The rejection message carries the same registry-derived menu. *)
    List.iter
      (fun family ->
        check Alcotest.bool ("error lists " ^ family) true (contains e family))
      Spec.families

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          Alcotest.test_case "basics" `Quick test_csr_basics;
          Alcotest.test_case "validation" `Quick test_csr_rejects_bad_edges;
          Alcotest.test_case "neighbour access" `Quick test_csr_nth_and_random_neighbour;
          Alcotest.test_case "degree counts" `Quick test_csr_degree_counts;
          Alcotest.test_case "relabel identity" `Quick test_csr_relabel_identity;
          Alcotest.test_case "equal monomorphic" `Quick test_csr_equal_monomorphic;
          qtest relabel_matches_edge_map_prop;
          Alcotest.test_case "relabel validation" `Quick test_csr_relabel_validation;
          qtest csr_roundtrip_prop;
        ] );
      ("build", [ Alcotest.test_case "accumulate and finish" `Quick test_build ]);
      ( "generators",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "path/star/wheel" `Quick test_path_star_wheel;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "folded hypercube" `Quick test_folded_hypercube;
          Alcotest.test_case "torus/grid" `Quick test_torus_grid;
          Alcotest.test_case "lattice edge cases" `Quick test_lattice_edge_cases;
          Alcotest.test_case "generator validation" `Quick test_generator_validation;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "ring of cliques" `Quick test_ring_of_cliques;
          Alcotest.test_case "barbell/lollipop" `Quick test_barbell_lollipop;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
          Alcotest.test_case "gnm" `Quick test_gnm;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "rewire" `Quick test_rewire_preserves_degrees;
          qtest rewire_degree_sequence_prop;
          qtest random_regular_prop;
          qtest barabasi_albert_prop;
        ] );
      ( "algo",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs unreachable / components" `Quick test_bfs_unreachable;
          Alcotest.test_case "diameter and pseudo" `Quick test_diameter_pseudo;
          Alcotest.test_case "eccentricity disconnected" `Quick test_eccentricity_disconnected;
          Alcotest.test_case "average distance" `Quick test_average_distance;
          qtest bfs_triangle_inequality_prop;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments/blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "dot" `Quick test_io_dot;
          qtest io_roundtrip_prop;
        ] );
      ( "spec",
        [
          Alcotest.test_case "deterministic families" `Quick test_spec_families;
          Alcotest.test_case "random families" `Quick test_spec_random_families;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "to_string" `Quick test_spec_to_string_roundtrip;
          Alcotest.test_case "is_random" `Quick test_spec_is_random;
          Alcotest.test_case "barabasi-albert spellings" `Quick test_spec_ba;
          Alcotest.test_case "menu matches the parser" `Quick test_spec_menu_matches_parser;
        ] );
    ]
