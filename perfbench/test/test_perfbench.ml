(* The benchmark's own arithmetic, on hand-made inputs. *)

let feq = Alcotest.float 1e-9

let span ?(parent = 0) ?(name = "s") id start stop =
  { Arith.id; parent; name; key = ""; start; stop; words = 0.0 }

let test_median () =
  Alcotest.check feq "odd" 3.0 (Arith.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Arith.median [ 4.0; 1.0; 2.0; 3.0 ])

let range n = List.init n (fun i -> float_of_int (n - i))

let tail want n = Arith.tail_percentile ~want (range n)

let test_tail_percentile () =
  let pair = Alcotest.(pair int feq) in
  (* 1000 samples: rank 950 leaves 50 beyond, so p95 itself is kept. *)
  Alcotest.check pair "p95 of 1000" (95, 950.0) (tail 95 1000);
  (* 100 samples: p95..p91 leave fewer than ten beyond; p90 leaves ten. *)
  Alcotest.check pair "p95 of 100 -> p90" (90, 90.0) (tail 95 100);
  Alcotest.check pair "p99 of 200 -> p95" (95, 190.0) (tail 99 200);
  (* 15 samples: not even the median has ten beyond; it is reported. *)
  Alcotest.check pair "p95 of 15 -> p50" (50, 8.0) (tail 95 15);
  Alcotest.check pair "ten beyond is enough" (50, 10.0) (tail 95 20);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (snd (tail 95 0)))

let self_of spans id =
  List.assoc id (List.map (fun (s, self) -> (s.Arith.id, self)) (Arith.self_times spans))

let test_self_time () =
  let spans =
    [
      span 1 0.0 10.0;
      (* two overlapping children cover [1, 5] *)
      span ~parent:1 2 1.0 3.0;
      span ~parent:1 3 2.0 5.0;
      (* a grandchild is its parent's business, not the root's *)
      span ~parent:2 4 1.5 2.5;
      (* a child running past its parent's end counts only inside it *)
      span ~parent:1 5 8.0 12.0;
    ]
  in
  Alcotest.check feq "root" 4.0 (self_of spans 1);
  Alcotest.check feq "child with grandchild" 1.0 (self_of spans 2);
  Alcotest.check feq "leaf" 3.0 (self_of spans 3);
  Alcotest.check feq "disjoint children" 7.0
    (self_of [ span 1 0.0 10.0; span ~parent:1 2 1.0 2.0; span ~parent:1 3 4.0 6.0 ] 1)

(* Three cells on a two-domain pool: 1 + 2 + 3 s of cell work in a 4 s
   wall, against 4.5 s of bare kernel work. *)
let test_pool_ratios () =
  let spans =
    [
      span ~name:"cell.run" 1 0.0 1.0;
      span ~name:"cell.run" 2 0.0 2.0;
      span ~name:"cell.run" 3 1.0 4.0;
      span ~name:"campaign.plan" 4 0.0 0.5;
    ]
  in
  let busy_s = Arith.total_duration "cell.run" spans in
  Alcotest.check feq "busy seconds" 6.0 busy_s;
  Alcotest.check feq "busy_frac" 0.75 (Arith.busy_frac ~busy_s ~wall_s:4.0 ~domains:2);
  Alcotest.check feq "overhead_ratio" (4.0 /. 2.25)
    (Arith.overhead_ratio ~wall_s:4.0 ~bare_s:4.5 ~domains:2);
  Alcotest.check feq "perfect packing" 1.0
    (Arith.overhead_ratio ~wall_s:3.0 ~bare_s:6.0 ~domains:2)

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "busy_frac and overhead_ratio" `Quick test_pool_ratios;
        ] );
    ]
