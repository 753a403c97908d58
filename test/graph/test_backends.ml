(* Cross-backend equivalence: every implicit family must agree with the
   materialised CSR — and the Bigarray copy — on vertex count, degrees,
   neighbour order and nth lookup. Then the pinned consequence: a fixed
   seed drives an identical random-walk RNG stream on all three
   backends. *)

let view_spec name =
  match Graph.Spec.parse name with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse %s: %s" name e

let build_backend spec backend =
  let rng = Prng.Rng.create 1 in
  match Graph.Spec.build_view spec ~backend rng with
  | Ok v -> v
  | Error e ->
    Alcotest.failf "build_view %s (%s): %s"
      (Graph.Spec.to_string spec)
      (Graph.View.backend_to_string backend)
      e

(* The closed-form families exercised throughout, small enough that the
   heap CSR is cheap to materialise (n <= 2^10). *)
let families =
  [
    "complete:1"; "complete:2"; "complete:17"; "cycle:3"; "cycle:12";
    "path:1"; "path:2"; "path:9"; "hypercube:0"; "hypercube:1";
    "hypercube:5"; "hypercube:10"; "folded-hypercube:2";
    "folded-hypercube:3"; "folded-hypercube:6"; "torus:4x5"; "torus:3x2x4";
    "torus:2x3"; "torus:1x5"; "torus:8"; "grid:4x4"; "grid:2x2x2";
    "grid:1x7"; "grid:9"; "grid:3x1x4"; "circulant:12:1+3+6";
    "circulant:10:2+5"; "circulant:31:1+5+7";
  ]

let neighbours_of view v =
  let acc = ref [] in
  Graph.View.iter_neighbours view v ~f:(fun w -> acc := w :: !acc);
  List.rev !acc

let check_same_topology name reference other =
  let module V = Graph.View in
  Alcotest.(check int) (name ^ ": n") (V.n_vertices reference) (V.n_vertices other);
  Alcotest.(check int) (name ^ ": m") (V.n_edges reference) (V.n_edges other);
  Alcotest.(check int) (name ^ ": max degree") (V.max_degree reference)
    (V.max_degree other);
  Alcotest.(check int) (name ^ ": min degree") (V.min_degree reference)
    (V.min_degree other);
  for v = 0 to V.n_vertices reference - 1 do
    let d = V.degree reference v in
    Alcotest.(check int)
      (Printf.sprintf "%s: degree of %d" name v)
      d (V.degree other v);
    let ns = neighbours_of reference v in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: neighbour order of %d" name v)
      ns (neighbours_of other v);
    List.iteri
      (fun i w ->
        Alcotest.(check int)
          (Printf.sprintf "%s: nth %d of %d" name i v)
          w
          (V.nth_neighbour other v i))
      ns;
    Alcotest.(check int)
      (Printf.sprintf "%s: iter count of %d" name v)
      d (List.length ns);
    (* The one-dispatch gather copies the same slice on both views, and
       refuses a buffer one entry short. *)
    List.iter
      (fun view ->
        let buf = Array.make (max 1 (V.max_degree view)) (-1) in
        let k = V.unsafe_neighbours_into view v buf in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: gathered neighbours of %d" name v)
          ns
          (Array.to_list (Array.sub buf 0 k));
        if d > 0 then
          Alcotest.check_raises
            (Printf.sprintf "%s: short gather buffer at %d" name v)
            (Invalid_argument "View.unsafe_neighbours_into: buffer too small")
            (fun () -> ignore (V.unsafe_neighbours_into view v (Array.make (d - 1) 0))))
      [ reference; other ]
  done

let test_families_agree () =
  List.iter
    (fun name ->
      let spec = view_spec name in
      let heap = build_backend spec `Heap in
      let big = build_backend spec `Bigarray in
      let imp = build_backend spec `Implicit in
      check_same_topology (name ^ " big") heap big;
      check_same_topology (name ^ " implicit") heap imp)
    families

(* The sorted-order contract, stated directly: implicit enumeration is
   strictly ascending and matches the heap CSR slice (which [Gen] sorts). *)
let test_implicit_order_sorted () =
  List.iter
    (fun name ->
      let spec = view_spec name in
      let imp = build_backend spec `Implicit in
      for v = 0 to Graph.View.n_vertices imp - 1 do
        let prev = ref (-1) in
        Graph.View.iter_neighbours imp v ~f:(fun w ->
            if w <= !prev then
              Alcotest.failf "%s: neighbours of %d not ascending (%d after %d)"
                name v w !prev;
            prev := w)
      done)
    families

(* Fixed seed, same topology: the random-walk draw stream (one
   [Prng.Rng.int] per step through [unsafe_random_neighbour]) visits the
   identical vertex sequence on all three backends. *)
let walk_trace view ~seed ~steps =
  let rng = Prng.Rng.create seed in
  let v = ref 0 in
  let trace = ref [] in
  for _ = 1 to steps do
    v := Graph.View.unsafe_random_neighbour view rng !v;
    trace := !v :: !trace
  done;
  List.rev !trace

let test_rng_stream_identical () =
  List.iter
    (fun name ->
      let spec = view_spec name in
      let heap = build_backend spec `Heap in
      if Graph.View.min_degree heap > 0 then begin
        let big = build_backend spec `Bigarray in
        let imp = build_backend spec `Implicit in
        let reference = walk_trace heap ~seed:42 ~steps:512 in
        Alcotest.(check (list int))
          (name ^ ": walk trace bigarray")
          reference
          (walk_trace big ~seed:42 ~steps:512);
        Alcotest.(check (list int))
          (name ^ ": walk trace implicit")
          reference
          (walk_trace imp ~seed:42 ~steps:512)
      end)
    families

(* Non-closed-form families: bigarray falls back to a heap build + copy,
   implicit refuses. *)
let test_backend_fallbacks () =
  let spec = view_spec "petersen" in
  let heap = build_backend spec `Heap in
  let big = build_backend spec `Bigarray in
  check_same_topology "petersen big" heap big;
  let rng = Prng.Rng.create 1 in
  (match Graph.Spec.build_view spec ~backend:`Implicit rng with
  | Ok _ -> Alcotest.fail "petersen should have no implicit backend"
  | Error e ->
    Alcotest.(check bool) "error mentions implicit" true
      (String.length e > 0
      && String.sub e 0 (min 16 (String.length e)) = "backend=implicit"));
  let rr = view_spec "random-regular:64x4" in
  let heap_rr =
    match Graph.Spec.build_view rr ~backend:`Heap (Prng.Rng.create 7) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let big_rr =
    match Graph.Spec.build_view rr ~backend:`Bigarray (Prng.Rng.create 7) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (* Randomised builds consume the stream identically, so the same seed
     yields the same graph under either backend. *)
  check_same_topology "random-regular big" heap_rr big_rr

(* Same contract for the preferential-attachment family, whose RNG
   stream is consumed during generation and replayed from the recorded
   endpoint array: heap and bigarray builds at one seed are the same
   graph, and implicit is refused (no closed form). *)
let test_ba_cross_backend () =
  List.iter
    (fun name ->
      let spec = view_spec name in
      let heap =
        match Graph.Spec.build_view spec ~backend:`Heap (Prng.Rng.create 9) with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      let big =
        match
          Graph.Spec.build_view spec ~backend:`Bigarray (Prng.Rng.create 9)
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      check_same_topology (name ^ " big") heap big;
      let reference = walk_trace heap ~seed:42 ~steps:512 in
      Alcotest.(check (list int))
        (name ^ ": walk trace bigarray")
        reference
        (walk_trace big ~seed:42 ~steps:512);
      match Graph.Spec.build_view spec ~backend:`Implicit (Prng.Rng.create 9) with
      | Ok _ -> Alcotest.failf "%s should have no implicit backend" name
      | Error _ -> ())
    [ "ba:64,2"; "ba:64,3,0.5"; "ba:40,1,1" ]

let test_bigcsr_roundtrip () =
  let g =
    Graph.Gen.random_regular (Prng.Rng.create 11) ~n:200 ~r:6
  in
  let big = Graph.Bigcsr.of_csr g in
  let back = Graph.Bigcsr.to_csr big in
  Alcotest.(check int) "n" (Graph.Csr.n_vertices g) (Graph.Csr.n_vertices back);
  Alcotest.(check int) "m" (Graph.Csr.n_edges g) (Graph.Csr.n_edges back);
  for v = 0 to Graph.Csr.n_vertices g - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "slice %d" v)
      (Array.to_list (Graph.Csr.neighbours g v))
      (Array.to_list (Graph.Csr.neighbours back v))
  done

let test_bigcsr_edge_iter_replay_check () =
  (* A stateful iterator that emits a different edge on the second pass
     must be rejected, exactly as [Csr.of_edge_iter] now rejects it. *)
  let pass = ref 0 in
  let bad f =
    incr pass;
    if !pass = 1 then begin
      f 0 1;
      f 1 2
    end
    else begin
      f 0 1;
      f 0 2
    end
  in
  (match Graph.Bigcsr.of_edge_iter ~n:3 bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bigcsr: unstable iterator accepted");
  let pass = ref 0 in
  let bad_csr f =
    incr pass;
    if !pass = 1 then begin
      f 0 1;
      f 1 2
    end
    else begin
      f 0 1;
      f 0 2
    end
  in
  match Graph.Csr.of_edge_iter ~n:3 bad_csr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "csr: unstable iterator accepted"

(* QCheck: random lattice dimensions and circulant offset sets agree
   across backends (beyond the hand-picked list above). *)
let lattice_gen =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* wrap = bool in
    let* dims = list_repeat k (int_range 1 5) in
    return (wrap, Array.of_list dims))

let lattice_prop =
  QCheck2.Test.make ~name:"lattice backends agree" ~count:60 lattice_gen
    (fun (wrap, dims) ->
      let imp =
        if wrap then Graph.Implicit.torus dims else Graph.Implicit.grid dims
      in
      let heap = if wrap then Graph.Gen.torus dims else Graph.Gen.grid dims in
      let vi = Graph.View.of_implicit imp in
      let vh = Graph.View.of_csr heap in
      Graph.View.n_vertices vi = Graph.View.n_vertices vh
      && Graph.View.n_edges vi = Graph.View.n_edges vh
      &&
      let ok = ref true in
      for v = 0 to Graph.View.n_vertices vh - 1 do
        if neighbours_of vi v <> neighbours_of vh v then ok := false
      done;
      !ok)

let circulant_gen =
  QCheck2.Gen.(
    let* n = int_range 3 64 in
    let* offs = list_size (int_range 1 4) (int_range 1 (max 1 (n / 2))) in
    return (n, List.sort_uniq compare offs))

let circulant_prop =
  QCheck2.Test.make ~name:"circulant backends agree" ~count:60 circulant_gen
    (fun (n, offs) ->
      let vi = Graph.View.of_implicit (Graph.Implicit.circulant n offs) in
      let vh = Graph.View.of_csr (Graph.Gen.circulant n offs) in
      Graph.View.n_edges vi = Graph.View.n_edges vh
      &&
      let ok = ref true in
      for v = 0 to n - 1 do
        if neighbours_of vi v <> neighbours_of vh v then ok := false
      done;
      !ok)

let hypercube_nth_prop =
  QCheck2.Test.make ~name:"hypercube nth matches iter" ~count:200
    QCheck2.Gen.(pair (int_range 0 10) (int_range 0 1023))
    (fun (d, v) ->
      let v = v land ((1 lsl d) - 1) in
      let imp = Graph.Implicit.hypercube d in
      let ns = ref [] in
      Graph.Implicit.iter imp v ~f:(fun w -> ns := w :: !ns);
      let ns = Array.of_list (List.rev !ns) in
      Array.length ns = d
      && Array.for_all (fun x -> x) (Array.mapi (fun i w -> Graph.Implicit.nth imp v i = w) ns))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "graph-backends"
    [
      ( "equivalence",
        [
          Alcotest.test_case "families agree" `Quick test_families_agree;
          Alcotest.test_case "implicit order sorted" `Quick
            test_implicit_order_sorted;
          Alcotest.test_case "rng stream identical" `Quick
            test_rng_stream_identical;
          Alcotest.test_case "fallbacks" `Quick test_backend_fallbacks;
          Alcotest.test_case "barabasi-albert cross-backend" `Quick
            test_ba_cross_backend;
          qtest lattice_prop;
          qtest circulant_prop;
          qtest hypercube_nth_prop;
        ] );
      ( "bigcsr",
        [
          Alcotest.test_case "roundtrip" `Quick test_bigcsr_roundtrip;
          Alcotest.test_case "replay check" `Quick
            test_bigcsr_edge_iter_replay_check;
        ] );
    ]
