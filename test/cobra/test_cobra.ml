(* Tests for the core library: branching specs, the COBRA process, BIPS,
   the random-walk and push baselines, the exact small-graph engine (and
   through it Theorem 4), Monte-Carlo duality, and the Lemma 1 growth
   machinery. Runs to completion go through the Cobra.Kernel instances. *)

module B = Cobra.Branching
module K = Cobra.Kernel
module Process = Cobra.Process
module Bips = Cobra.Bips
module Rwalk = Cobra.Rwalk
module Push = Cobra.Push
module Exact = Cobra.Exact
module Duality = Cobra.Duality
module Growth = Cobra.Growth
(* Processes consume Graph.View; the exact engine and raw accessors stay
   on heap CSR. [Gen] builds views (of_csr is a free wrap), [csr] gets
   the underlying CSR back (free for heap views). *)
module GenC = Graph.Gen
module Csr = Graph.Csr

module Gen = struct
  let v = Graph.View.of_csr
  let complete n = v (GenC.complete n)
  let cycle n = v (GenC.cycle n)
  let path n = v (GenC.path n)
  let star n = v (GenC.star n)
  let petersen () = v (GenC.petersen ())
  let hypercube d = v (GenC.hypercube d)
  let random_regular rng ~n ~r = v (GenC.random_regular rng ~n ~r)
end

let csr = Graph.View.to_csr
module Rng = Prng.Rng
module Bitset = Dstruct.Bitset

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %.8f vs %.8f" msg a b

(* Kernel defaults: branching k = 2, start (or source) vertex 0. *)
let p0 = K.default_params

(* A kernel trajectory as the integer counts it records. *)
let int_trajectory kernel g params rng ~key =
  Array.map int_of_float (K.trajectory kernel g params rng ~key)

(* ---------- Branching ---------- *)

let test_branching_basics () =
  check Alcotest.bool "cobra_k2 is Fixed 2" true (B.cobra_k2 = B.fixed 2);
  close "expected fixed" 3.0 (B.expected (B.fixed 3));
  close "expected 1+rho" 1.25 (B.expected (B.one_plus 0.25));
  check Alcotest.int "max picks fixed" 3 (B.max_picks (B.fixed 3));
  check Alcotest.int "max picks fractional" 2 (B.max_picks (B.one_plus 0.1));
  check Alcotest.string "to_string" "k=2" (B.to_string B.cobra_k2)

let test_branching_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Branching.fixed: k >= 1 required")
    (fun () -> ignore (B.fixed 0));
  Alcotest.check_raises "rho=0" (Invalid_argument "Branching.one_plus: rho in (0, 1]")
    (fun () -> ignore (B.one_plus 0.0));
  Alcotest.check_raises "rho>1" (Invalid_argument "Branching.one_plus: rho in (0, 1]")
    (fun () -> ignore (B.one_plus 1.5))

let test_branching_draws () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    check Alcotest.int "fixed draws" 2 (B.draws B.cobra_k2 rng)
  done;
  let ones = ref 0 and twos = ref 0 in
  for _ = 1 to 10_000 do
    match B.draws (B.one_plus 0.3) rng with
    | 1 -> incr ones
    | 2 -> incr twos
    | d -> Alcotest.failf "unexpected draw count %d" d
  done;
  close ~eps:0.03 "fraction of doubles" 0.3 (Float.of_int !twos /. 10_000.0)

let test_branching_pick_distribution () =
  check
    Alcotest.(list (pair int (float 1e-12)))
    "fixed dist" [ (2, 1.0) ]
    (B.pick_count_distribution B.cobra_k2);
  check
    Alcotest.(list (pair int (float 1e-12)))
    "fractional dist"
    [ (1, 0.75); (2, 0.25) ]
    (B.pick_count_distribution (B.one_plus 0.25))

let test_infection_probability () =
  close "k=2 p=1/2" 0.75 (B.infection_probability B.cobra_k2 0.5);
  close "k=1 identity" 0.5 (B.infection_probability (B.fixed 1) 0.5);
  close "k=3" (1.0 -. 0.125) (B.infection_probability (B.fixed 3) 0.5);
  (* Corollary 1's form: (1+rho)p - rho p^2 *)
  let rho = 0.4 and p = 0.3 in
  close "1+rho form" ((1.0 +. rho) *. p -. (rho *. p *. p))
    (B.infection_probability (B.one_plus rho) p);
  close "p=0" 0.0 (B.infection_probability B.cobra_k2 0.0);
  close "p=1" 1.0 (B.infection_probability B.cobra_k2 1.0)

(* ---------- Branching.of_string / to_arg ---------- *)

let test_branching_of_string_forms () =
  let ok s expected =
    match B.of_string s with
    | Ok b -> check Alcotest.bool (Printf.sprintf "%S parses" s) true (b = expected)
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  ok "k=2" B.cobra_k2;
  ok "2" B.cobra_k2;
  ok " K=3 " (B.fixed 3);
  ok "1+0.5" (B.one_plus 0.5);
  ok "1+1" (B.one_plus 1.0);
  ok "distinct=2" (B.distinct 2);
  ok "DISTINCT=4" (B.distinct 4)

let test_branching_of_string_rejections () =
  List.iter
    (fun s ->
      match B.of_string s with
      | Ok b -> Alcotest.failf "%S should be rejected, parsed %s" s (B.to_string b)
      | Error msg ->
        check Alcotest.bool
          (Printf.sprintf "%S error message nonempty" s)
          true
          (String.length msg > 0))
    [ "k=0"; "0"; "-1"; "1+0"; "1+1.5"; "1+"; "k="; "distinct=0"; "distinct=";
      "xyz"; "" ]

(* to_arg must emit the canonical parseable form for every constructible
   value — the display form ("1+rho (rho=0.5)") is deliberately not
   parseable, so the CLI prints to_arg. *)
let branching_gen =
  QCheck.Gen.(
    oneof
      [
        map B.fixed (int_range 1 64);
        map B.distinct (int_range 1 64);
        (* Strictly positive rho in (0, 1]: draw from {1..1000}/1000 so the
           boundary rho = 1 is exercised too. *)
        map (fun k -> B.one_plus (Float.of_int k /. 1000.0)) (int_range 1 1000);
      ])

let branching_arbitrary =
  QCheck.make branching_gen ~print:(fun b -> B.to_arg b)

let branching_roundtrip_prop =
  QCheck.Test.make ~name:"of_string (to_arg b) = Ok b" ~count:500
    branching_arbitrary (fun b -> B.of_string (B.to_arg b) = Ok b)

(* Irregular rho values (full float precision) must survive the
   to_arg %.17g fallback. *)
let branching_rho_roundtrip_prop =
  QCheck.Test.make ~name:"rho round-trips at full precision" ~count:500
    QCheck.(float_range 1e-9 1.0)
    (fun rho ->
      let b = B.one_plus rho in
      B.of_string (B.to_arg b) = Ok b)

(* ---------- Distinct (without-replacement) branching ---------- *)

let test_distinct_basics () =
  let b = B.distinct 2 in
  close "expected" 2.0 (B.expected b);
  check Alcotest.int "max picks" 2 (B.max_picks b);
  check Alcotest.string "to_string" "k=2 distinct" (B.to_string b);
  Alcotest.check_raises "k=0" (Invalid_argument "Branching.distinct: k >= 1 required")
    (fun () -> ignore (B.distinct 0))

let test_distinct_picks_are_distinct () =
  let g = Gen.complete 10 in
  let rng = Rng.create 70 in
  for _ = 1 to 200 do
    let seen = Hashtbl.create 4 in
    let n =
      B.iter_picks (B.distinct 3) rng g 0 ~f:(fun w ->
          if Hashtbl.mem seen w then Alcotest.fail "duplicate pick";
          Hashtbl.replace seen w ();
          if w = 0 then Alcotest.fail "picked self")
    in
    check Alcotest.int "three picks" 3 n
  done;
  (* k above the degree caps at the whole neighbourhood *)
  let path = Gen.path 3 in
  let n = B.iter_picks (B.distinct 5) rng path 0 ~f:(fun w -> ignore w) in
  check Alcotest.int "capped at degree" 1 n

let test_distinct_infection_probability () =
  (* degree 4, 2 infected, k=2 distinct: 1 - C(2,2)/C(4,2) = 5/6 *)
  close "hypergeometric" (5.0 /. 6.0)
    (B.infection_probability_counts (B.distinct 2) ~degree:4 ~infected:2);
  (* all infected: certainty; none: zero *)
  close "all infected" 1.0
    (B.infection_probability_counts (B.distinct 2) ~degree:3 ~infected:3);
  close "none infected" 0.0
    (B.infection_probability_counts (B.distinct 2) ~degree:3 ~infected:0);
  (* counts version agrees with the p version for replacement schemes *)
  close "counts = p for Fixed"
    (B.infection_probability B.cobra_k2 0.5)
    (B.infection_probability_counts B.cobra_k2 ~degree:4 ~infected:2);
  Alcotest.check_raises "p-form rejected for Distinct"
    (Invalid_argument
       "Branching.infection_probability: Distinct needs integer counts; use \
        infection_probability_counts")
    (fun () -> ignore (B.infection_probability (B.distinct 2) 0.5))

let test_distinct_dominates_replacement () =
  (* Without replacement touches the infected set at least as often. *)
  for degree = 2 to 8 do
    for infected = 0 to degree do
      let d = B.infection_probability_counts (B.distinct 2) ~degree ~infected in
      let w = B.infection_probability_counts B.cobra_k2 ~degree ~infected in
      if d < w -. 1e-12 then
        Alcotest.failf "distinct below replacement at (%d, %d)" degree infected
    done
  done

let test_distinct_duality_exact () =
  let g = Gen.petersen () in
  let gap = Exact.duality_gap (csr g) ~branching:(B.distinct 2) ~t_max:6 in
  if gap > 1e-10 then Alcotest.failf "distinct duality gap %g" gap

let test_distinct_cover_faster_sparse () =
  let rng = Rng.create 71 in
  let g = Gen.random_regular rng ~n:2048 ~r:3 in
  let mean branching =
    let s = Stats.Summary.create () in
    for _ = 1 to 15 do
      match K.completion_time K.cobra g { p0 with K.branching } rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  check Alcotest.bool "distinct no slower on 3-regular" true
    (mean (B.distinct 2) <= mean B.cobra_k2)

(* ---------- Process (COBRA) ---------- *)

let test_process_initial_state () =
  let g = Gen.cycle 6 in
  let p = Process.create g ~branching:B.cobra_k2 ~start:[ 2; 4; 2 ] in
  check Alcotest.int "round" 0 (Process.round p);
  check Alcotest.int "frontier deduplicated" 2 (Process.frontier_size p);
  check Alcotest.bool "active 2" true (Process.active p 2);
  check Alcotest.bool "not active 0" false (Process.active p 0);
  check Alcotest.int "visited count" 2 (Process.visited_count p);
  check Alcotest.bool "not covered" false (Process.is_covered p)

let test_process_validation () =
  let g = Gen.cycle 6 in
  Alcotest.check_raises "empty start" (Invalid_argument "Process: empty start set")
    (fun () -> ignore (Process.create g ~branching:B.cobra_k2 ~start:[]));
  Alcotest.check_raises "range" (Invalid_argument "Process: start vertex out of range")
    (fun () -> ignore (Process.create g ~branching:B.cobra_k2 ~start:[ 6 ]))

let test_process_step_moves_to_neighbours () =
  (* On a star, from the centre the frontier must be leaves, and back. *)
  let g = Gen.star 5 in
  let rng = Rng.create 2 in
  let p = Process.create g ~branching:B.cobra_k2 ~start:[ 0 ] in
  Process.step p rng;
  check Alcotest.int "round" 1 (Process.round p);
  Array.iter
    (fun v -> if v = 0 then Alcotest.fail "centre stayed active after push")
    (Process.frontier p);
  Process.step p rng;
  check Alcotest.(array int) "back to centre" [| 0 |] (Process.frontier p)

let test_process_transmissions_budget () =
  let g = Gen.complete 10 in
  let rng = Rng.create 3 in
  let p = Process.create g ~branching:B.cobra_k2 ~start:[ 0 ] in
  let total = ref 0 in
  for _ = 1 to 5 do
    let before = Process.frontier_size p in
    Process.step p rng;
    total := !total + (2 * before);
    (* k=2: exactly 2 transmissions per active vertex per round *)
    check Alcotest.int "transmissions" !total (Process.transmissions p);
    (* frontier can at most double under k=2 *)
    check Alcotest.bool "at most doubles" true (Process.frontier_size p <= 2 * before)
  done

let test_process_cover_complete_graph () =
  let g = Gen.complete 64 in
  let rng = Rng.create 4 in
  match K.completion_time K.cobra g p0 rng with
  | None -> Alcotest.fail "did not cover K_64"
  | Some t ->
    (* at most doubling: need at least log2 n rounds *)
    check Alcotest.bool "at least log2 n" true (t >= 6);
    check Alcotest.bool "not absurdly slow" true (t <= 60)

let test_process_cover_k1_is_walk_like () =
  (* k=1 keeps exactly one particle. *)
  let g = Gen.cycle 8 in
  let rng = Rng.create 5 in
  let p = Process.create g ~branching:(B.fixed 1) ~start:[ 0 ] in
  for _ = 1 to 50 do
    Process.step p rng;
    check Alcotest.int "single particle" 1 (Process.frontier_size p)
  done

let test_process_cap_returns_none () =
  let g = Gen.cycle 100 in
  let rng = Rng.create 6 in
  check Alcotest.(option int) "cap hit" None
    (K.completion_time K.cobra g { p0 with K.cap = Some 2 } rng)

let test_process_hitting_time () =
  let g = Gen.cycle 10 in
  let rng = Rng.create 7 in
  check Alcotest.(option int) "hit self at 0" (Some 0)
    (Process.hitting_time g ~branching:B.cobra_k2 ~start:3 ~target:3 rng);
  match Process.hitting_time g ~branching:B.cobra_k2 ~start:0 ~target:5 rng with
  | None -> Alcotest.fail "never hit"
  | Some t -> check Alcotest.bool "needs at least distance rounds" true (t >= 5)

let test_process_reset () =
  let g = Gen.complete 8 in
  let rng = Rng.create 8 in
  let p = Process.create g ~branching:B.cobra_k2 ~start:[ 0 ] in
  while not (Process.is_covered p) do
    Process.step p rng
  done;
  Process.reset p ~start:[ 3 ];
  check Alcotest.int "round reset" 0 (Process.round p);
  check Alcotest.int "visited reset" 1 (Process.visited_count p);
  check Alcotest.int "transmissions reset" 0 (Process.transmissions p);
  check Alcotest.bool "frontier is 3" true (Process.active p 3)

let test_frontier_trajectory () =
  let g = Gen.complete 32 in
  let rng = Rng.create 9 in
  let sizes = int_trajectory K.cobra g p0 rng ~key:"frontier" in
  check Alcotest.int "starts at 1" 1 sizes.(0);
  Array.iteri
    (fun i s ->
      if i > 0 && s > 2 * sizes.(i - 1) then Alcotest.fail "frontier more than doubled")
    sizes

let process_invariants_prop =
  QCheck.Test.make ~name:"COBRA invariants on random graphs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:30 ~r:3 in
      let p = Process.create g ~branching:B.cobra_k2 ~start:[ 0 ] in
      let ok = ref true in
      let prev_visited = ref (Process.visited_count p) in
      for _ = 1 to 40 do
        Process.step p rng;
        (* frontier never empty, visited monotone, visited superset of
           frontier *)
        ok := !ok && Process.frontier_size p > 0;
        ok := !ok && Process.visited_count p >= !prev_visited;
        prev_visited := Process.visited_count p;
        Array.iter (fun v -> ok := !ok && Process.visited p v) (Process.frontier p)
      done;
      !ok)

let cover_time_all_visited_prop =
  QCheck.Test.make ~name:"cover means every vertex visited" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:24 ~r:4 in
      let p = Process.create g ~branching:B.cobra_k2 ~start:[ 1 ] in
      let guard = ref 0 in
      while (not (Process.is_covered p)) && !guard < 10_000 do
        Process.step p rng;
        incr guard
      done;
      Process.is_covered p
      &&
      let all = ref true in
      for v = 0 to 23 do
        all := !all && Process.visited p v
      done;
      !all)

(* ---------- Bips ---------- *)

let test_bips_initial () =
  let g = Gen.cycle 6 in
  let p = Bips.create g ~branching:B.cobra_k2 ~source:3 in
  check Alcotest.int "round" 0 (Bips.round p);
  check Alcotest.int "count" 1 (Bips.infected_count p);
  check Alcotest.bool "source infected" true (Bips.infected p 3);
  check Alcotest.(array int) "infected set" [| 3 |] (Bips.infected_set p)

let test_bips_source_persists () =
  let g = Gen.cycle 12 in
  let rng = Rng.create 11 in
  let p = Bips.create g ~branching:B.cobra_k2 ~source:0 in
  for _ = 1 to 50 do
    Bips.step p rng;
    check Alcotest.bool "source always infected" true (Bips.infected p 0);
    check Alcotest.bool "count positive" true (Bips.infected_count p >= 1)
  done

let test_bips_saturates_complete () =
  let g = Gen.complete 32 in
  let rng = Rng.create 12 in
  match K.completion_time K.bips g p0 rng with
  | None -> Alcotest.fail "no saturation on K_32"
  | Some t -> check Alcotest.bool "reasonable time" true (t >= 3 && t <= 100)

let test_bips_saturated_stays_plausible () =
  (* On the complete graph with k=2, from full infection each vertex
     misses with prob (1/(n-1))^0 — actually stays infected w.p.
     1-(1-(n-1)/(n-1))^2 = 1; so A stays full. *)
  let g = Gen.complete 8 in
  let rng = Rng.create 13 in
  let p = Bips.create g ~branching:B.cobra_k2 ~source:0 in
  while not (Bips.is_saturated p) do
    Bips.step p rng
  done;
  Bips.step p rng;
  check Alcotest.bool "full stays full on K_n" true (Bips.is_saturated p)

let test_bips_non_monotone_possible () =
  (* On a cycle, an infected non-source vertex can recover; run and check
     that the count is not always non-decreasing (statistically certain
     over 200 rounds). *)
  let g = Gen.cycle 20 in
  let rng = Rng.create 14 in
  let p = Bips.create g ~branching:B.cobra_k2 ~source:0 in
  let decreased = ref false in
  let prev = ref (Bips.infected_count p) in
  for _ = 1 to 200 do
    Bips.step p rng;
    if Bips.infected_count p < !prev then decreased := true;
    prev := Bips.infected_count p
  done;
  check Alcotest.bool "count decreased at least once" true !decreased

let test_bips_reset () =
  let g = Gen.complete 8 in
  let rng = Rng.create 15 in
  let p = Bips.create g ~branching:B.cobra_k2 ~source:0 in
  for _ = 1 to 5 do
    Bips.step p rng
  done;
  Bips.reset p ~source:4;
  check Alcotest.int "round" 0 (Bips.round p);
  check Alcotest.int "count" 1 (Bips.infected_count p);
  check Alcotest.bool "new source" true (Bips.infected p 4);
  check Alcotest.int "source accessor" 4 (Bips.source p)

let test_bips_trajectory () =
  let g = Gen.complete 16 in
  let rng = Rng.create 16 in
  let sizes = int_trajectory K.bips g p0 rng ~key:"infected" in
  check Alcotest.int "starts at 1" 1 sizes.(0);
  check Alcotest.int "ends saturated" 16 sizes.(Array.length sizes - 1)

let bips_invariants_prop =
  QCheck.Test.make ~name:"BIPS invariants on random graphs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:26 ~r:3 in
      let p = Bips.create g ~branching:B.cobra_k2 ~source:5 in
      let ok = ref true in
      for _ = 1 to 30 do
        Bips.step p rng;
        ok := !ok && Bips.infected p 5;
        ok := !ok && Bips.infected_count p = Array.length (Bips.infected_set p)
      done;
      !ok)

(* ---------- Rwalk ---------- *)

let test_walk_cover_cycle_mean () =
  (* Expected cover time of the n-cycle by a simple walk is n(n-1)/2.
     n=12: 66. Mean over 600 trials has sd ~ 66*0.8/sqrt(600) ~ 2.2;
     allow ±8. *)
  let rng = Rng.create 21 in
  let g = Gen.cycle 12 in
  let s = Stats.Summary.create () in
  for _ = 1 to 600 do
    match K.completion_time K.rwalk g p0 rng with
    | Some t -> Stats.Summary.add_int s t
    | None -> Alcotest.fail "walk censored"
  done;
  close ~eps:8.0 "cycle cover mean" 66.0 (Stats.Summary.mean s)

let test_walk_hitting_time_adjacent () =
  (* Hitting an adjacent vertex on K_2... use path of 2: always 1 step. *)
  let g = Gen.path 2 in
  let rng = Rng.create 22 in
  check Alcotest.(option int) "one step" (Some 1)
    (Rwalk.hitting_time g ~start:0 ~target:1 rng);
  check Alcotest.(option int) "zero steps" (Some 0)
    (Rwalk.hitting_time g ~start:1 ~target:1 rng)

let test_walk_positions () =
  let g = Gen.cycle 10 in
  let rng = Rng.create 23 in
  let tr = Rwalk.positions ~steps:200 g ~start:0 rng in
  check Alcotest.int "length" 201 (Array.length tr);
  check Alcotest.int "starts at start" 0 tr.(0);
  for i = 1 to 200 do
    if not (Csr.mem_edge (csr g) tr.(i - 1) tr.(i)) then Alcotest.fail "illegal walk move"
  done

(* ---------- Push ---------- *)

let test_push_informs_everyone () =
  let g = Gen.complete 32 in
  let rng = Rng.create 31 in
  let o = K.run K.push g p0 rng in
  check Alcotest.bool "informs everyone" true o.K.completed;
  check Alcotest.bool "rounds sane" true (o.K.rounds >= 5 && o.K.rounds <= 60);
  check Alcotest.bool "transmissions >= n-1" true
    (Option.get (K.observation o "transmissions") >= 31.0)

let test_push_pull_faster_than_push () =
  let g = Gen.complete 256 in
  let rng = Rng.create 32 in
  let mean_of kernel =
    let s = Stats.Summary.create () in
    for _ = 1 to 10 do
      match K.completion_time kernel g p0 rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  let push = mean_of K.push in
  let pushpull = mean_of K.push_pull in
  check Alcotest.bool "push-pull no slower" true (pushpull <= push +. 1.0)

let test_flood () =
  let g = Gen.cycle 9 in
  let o = Push.flood g ~start:0 in
  check Alcotest.int "rounds = eccentricity" 4 o.Push.rounds;
  (* K_n flood: one round, n-1 messages from the start vertex *)
  let k = Push.flood (Gen.complete 10) ~start:3 in
  check Alcotest.int "K_10 one round" 1 k.Push.rounds;
  check Alcotest.int "K_10 messages" 9 k.Push.transmissions

(* ---------- Exact + duality (Theorem 4) ---------- *)

let test_exact_survival_monotone () =
  let g = Gen.petersen () in
  let s = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:6 ~t_max:10 in
  check Alcotest.int "length" 11 (Array.length s);
  close "starts at 1" 1.0 s.(0);
  Array.iteri
    (fun i v ->
      if i > 0 && v > s.(i - 1) +. 1e-12 then Alcotest.fail "survival not decreasing";
      if v < -1e-12 || v > 1.0 +. 1e-12 then Alcotest.fail "not a probability")
    s

let test_exact_hit_self_immediately () =
  let g = Gen.cycle 5 in
  let s = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 2 ] ~target:2 ~t_max:3 in
  Array.iter (fun v -> close "already hit" 0.0 v) s

let test_exact_bips_distribution_sums () =
  let g = Gen.cycle 5 in
  (* avoiding nothing has probability 1 *)
  let s = Exact.bips_avoid (csr g) ~branching:B.cobra_k2 ~source:0 ~avoid:[] ~t_max:4 in
  Array.iter (fun v -> close "total mass" 1.0 v) s;
  (* avoiding the source itself: always infected, so probability 0 *)
  let s0 = Exact.bips_avoid (csr g) ~branching:B.cobra_k2 ~source:0 ~avoid:[ 0 ] ~t_max:4 in
  Array.iter (fun v -> close "source never avoided" 0.0 v) s0

let test_exact_unsaturated_decreases () =
  let g = Gen.complete 6 in
  let u = Exact.bips_unsaturated (csr g) ~branching:B.cobra_k2 ~source:0 ~t_max:15 in
  close "starts unsaturated" 1.0 u.(0);
  check Alcotest.bool "eventually likely saturated" true (u.(15) < 0.01);
  Array.iteri
    (fun i v -> if i > 3 && v > u.(i - 1) +. 1e-12 then Alcotest.fail "not decreasing late")
    u

let test_exact_expected_size_first_step () =
  (* One step from the source: E|A_1| = 1 + sum over u != v of
     P(u picks v at least once) — check against the hand formula on K_4:
     each u has p = 1-(2/3)^2 = 5/9, so E = 1 + 3*5/9 = 8/3. *)
  let g = Gen.complete 4 in
  let e = Exact.bips_expected_size (csr g) ~branching:B.cobra_k2 ~source:0 ~t_max:1 in
  close "E|A_0|" 1.0 e.(0);
  close "E|A_1|" (1.0 +. (3.0 *. (1.0 -. (2.0 /. 3.0) ** 2.0))) e.(1)

let test_exact_matches_growth_formula () =
  (* Exact.bips_expected_size at t=1 equals Growth.expected_next_size on
     the initial set {source}. *)
  let g = Gen.petersen () in
  let e = Exact.bips_expected_size (csr g) ~branching:B.cobra_k2 ~source:3 ~t_max:1 in
  let set = Bitset.create 10 in
  Bitset.add set 3;
  let f = Growth.expected_next_size g ~branching:B.cobra_k2 ~source:3 ~infected:set in
  close "formula agreement" f e.(1)

let test_duality_gap_small_graphs () =
  List.iter
    (fun (name, g) ->
      let gap = Exact.duality_gap (csr g) ~branching:B.cobra_k2 ~t_max:6 in
      if gap > 1e-10 then Alcotest.failf "%s duality gap %g" name gap)
    [
      ("K_4", Gen.complete 4);
      ("C_5", Gen.cycle 5);
      ("path_4", Gen.path 4);
      ("star_5", Gen.star 5);
      ("Q_3", Gen.hypercube 3);
    ]

let test_duality_gap_branchings () =
  let g = Gen.cycle 6 in
  List.iter
    (fun b ->
      let gap = Exact.duality_gap (csr g) ~branching:b ~t_max:6 in
      if gap > 1e-10 then
        Alcotest.failf "duality gap %g for %s" gap (B.to_string b))
    [ B.fixed 1; B.fixed 2; B.fixed 3; B.one_plus 0.5; B.one_plus 1.0 ]

let duality_random_graph_prop =
  QCheck.Test.make ~name:"Theorem 4 exactly on random regular graphs" ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:8 ~r:3 in
      Exact.duality_gap (csr g) ~branching:B.cobra_k2 ~t_max:5 < 1e-10)

(* Theorem 4 is stated for arbitrary start sets C, not just singletons:
   P(Hit_C(v) > t) = P(C ∩ A_t = ∅). Check exactly for random multi-
   vertex C on random regular graphs. *)
let duality_multiset_prop =
  QCheck.Test.make ~name:"Theorem 4 for multi-vertex start sets" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:8 ~r:3 in
      let v = Rng.int rng 8 in
      (* random non-empty C avoiding v *)
      let c =
        List.filter (fun u -> u <> v && Rng.bool rng) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      let c = if c = [] then [ (v + 1) mod 8 ] else c in
      let lhs = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:c ~target:v ~t_max:6 in
      let rhs = Exact.bips_avoid (csr g) ~branching:B.cobra_k2 ~source:v ~avoid:c ~t_max:6 in
      let ok = ref true in
      Array.iteri (fun t l -> if Float.abs (l -. rhs.(t)) > 1e-10 then ok := false) lhs;
      !ok)

(* One_plus 1.0 always makes exactly two picks, so it IS Fixed 2: the two
   branchings must induce identical exact distributions. *)
let test_one_plus_one_is_k2 () =
  let g = Gen.petersen () in
  let a = Exact.cobra_hit_survival (csr g) ~branching:(B.one_plus 1.0) ~start:[ 0 ] ~target:6 ~t_max:8 in
  let b = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:6 ~t_max:8 in
  Array.iteri (fun i v -> close "same survival" v b.(i)) a;
  let ea = Exact.bips_expected_size (csr g) ~branching:(B.one_plus 1.0) ~source:0 ~t_max:6 in
  let eb = Exact.bips_expected_size (csr g) ~branching:B.cobra_k2 ~source:0 ~t_max:6 in
  Array.iteri (fun i v -> close "same expected size" v eb.(i)) ea

(* The exact BIPS marginal P(u ∈ A_t) matches a Monte-Carlo estimate. *)
let test_exact_bips_marginal_vs_mc () =
  let g = Gen.cycle 7 in
  let t = 4 in
  let exact_absent =
    (Exact.bips_avoid (csr g) ~branching:B.cobra_k2 ~source:0 ~avoid:[ 3 ] ~t_max:t).(t)
  in
  let rng = Rng.create 66 in
  let absent, trials =
    Duality.bips_absent_estimate ~trials:30_000 g ~branching:B.cobra_k2 ~source:0
      ~vertex:3 ~t rng
  in
  (* sd ~ sqrt(p(1-p)/30000) <~ 0.003; allow 6 sd *)
  close ~eps:0.018 "marginal" exact_absent (Float.of_int absent /. Float.of_int trials)

(* Exact cover survival from a multi-vertex start is dominated by the
   single-vertex one (more starters can only cover sooner, by coupling —
   checked distributionally). *)
let test_exact_cover_multi_start_faster () =
  let g = Gen.cycle 6 in
  let single = Exact.cover_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~t_max:10 in
  let double = Exact.cover_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0; 3 ] ~t_max:10 in
  Array.iteri
    (fun t s ->
      if double.(t) > s +. 1e-9 then
        Alcotest.failf "two starters slower at t=%d: %f > %f" t double.(t) s)
    single

let test_exact_size_limit () =
  let g = Gen.cycle 17 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact.Cobra_engine.create: at most 16 vertices (got 17)")
    (fun () ->
      ignore (Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:1 ~t_max:1))

let test_exact_boundary_max_vertices () =
  (* Exactly max_vertices is accepted: the oracle exports work on C_16. *)
  let g = Gen.cycle Exact.max_vertices in
  let dist = Exact.cobra_step_dist (csr g) ~branching:B.cobra_k2 ~active:[ 0 ] in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  close "step dist sums to 1 on C_16" 1.0 total;
  let s =
    Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:8 ~t_max:2
  in
  close "far target unhit in 2 rounds on C_16" 1.0 s.(2)

let test_exact_boundary_rejections () =
  (* One past the limit: every oracle entry point refuses with an error
     naming itself and the offending size. *)
  let g = Gen.cycle (Exact.max_vertices + 1) in
  let expect name f =
    Alcotest.check_raises name
      (Invalid_argument (Printf.sprintf "%s: at most 16 vertices (got 17)" name))
      (fun () -> ignore (f ()))
  in
  expect "Exact.cobra_step_dist" (fun () ->
      Exact.cobra_step_dist (csr g) ~branching:B.cobra_k2 ~active:[ 0 ]);
  expect "Exact.bips_step_dist" (fun () ->
      Exact.bips_step_dist (csr g) ~branching:B.cobra_k2 ~source:0 ~infected:[ 0 ]);
  expect "Exact.sis_step_dist" (fun () ->
      Exact.sis_step_dist (csr g) ~contacts:B.cobra_k2 ~recovery:0.5 ~persistent:None
        ~infected:[ 0 ]);
  expect "Exact.push_cover_survival" (fun () ->
      Exact.push_cover_survival (csr g) ~start:0 ~t_max:1);
  expect "Exact.contact_absorption" (fun () ->
      Exact.contact_absorption (csr g) ~infection_rate:1.0 ~start:[ 0 ])

let test_duality_tight_k4_c5 () =
  (* Theorem 4 to full floating-point precision on the two named
     fixtures — tighter than the 1e-10 sweep above. *)
  List.iter
    (fun (name, g) ->
      let gap = Exact.duality_gap (csr g) ~branching:B.cobra_k2 ~t_max:8 in
      if gap > 1e-12 then Alcotest.failf "%s duality gap %g > 1e-12" name gap)
    [ ("K_4", Gen.complete 4); ("C_5", Gen.cycle 5) ]

let test_mask_roundtrip () =
  let vs = [ 0; 3; 5; 11 ] in
  let m = Exact.mask_of_vertices ~n:12 vs in
  Alcotest.(check (list int)) "roundtrip" vs (Exact.vertices_of_mask m);
  Alcotest.(check int) "mask value" (1 lor 8 lor 32 lor 2048) m

let test_sis_step_dist_closed_form () =
  (* K2, contacts k=1, recovery 1/4, infected {0}: vertex 0 stays with
     probability 3/4; vertex 1's single pick always hits 0. *)
  let g = Gen.complete 2 in
  let dist =
    Exact.sis_step_dist (csr g) ~contacts:(B.fixed 1) ~recovery:0.25 ~persistent:None
      ~infected:[ 0 ]
  in
  Alcotest.(check int) "two outcomes" 2 (List.length dist);
  List.iter
    (fun (mask, p) ->
      match mask with
      | 0b10 -> close "{1}" 0.25 p
      | 0b11 -> close "{0,1}" 0.75 p
      | m -> Alcotest.failf "unexpected mask %d" m)
    dist

let test_contact_absorption_closed_form () =
  (* K2 from one infected vertex: race between recovery (rate 1) and
     transmission (rate lambda), so P(fully exposed) = lambda/(1+lambda). *)
  List.iter
    (fun lambda ->
      close "K2 absorption"
        (lambda /. (1.0 +. lambda))
        (Exact.contact_absorption (csr (Gen.complete 2)) ~infection_rate:lambda ~start:[ 0 ]))
    [ 0.5; 1.0; 2.0 ];
  close "already full"
    1.0
    (Exact.contact_absorption (csr (Gen.complete 3)) ~infection_rate:1.0 ~start:[ 0; 1; 2 ])

let test_push_survival_shape () =
  let s = Exact.push_cover_survival (csr (Gen.complete 4)) ~start:0 ~t_max:8 in
  close "survives round 0" 1.0 s.(0);
  close "cannot finish in one round" 1.0 s.(1);
  Array.iteri
    (fun t p ->
      if t > 0 && p > s.(t - 1) +. 1e-12 then
        Alcotest.failf "survival increased at t=%d" t)
    s;
  if s.(8) > 0.5 then Alcotest.failf "push on K4 too slow: %f" s.(8)

let test_engine_memo_consistent () =
  (* Shared-engine results match one-shot results. *)
  let g = Gen.petersen () in
  let e = Exact.Cobra_engine.create (csr g) ~branching:B.cobra_k2 in
  for target = 1 to 9 do
    let a = Exact.Cobra_engine.hit_survival e ~start:[ 0 ] ~target ~t_max:5 in
    let b = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target ~t_max:5 in
    Array.iteri (fun i v -> close "engine vs one-shot" v b.(i)) a
  done

let test_mc_duality_matches_exact () =
  (* Monte-Carlo estimates of both sides straddle the exact value. *)
  let g = Gen.petersen () in
  let rng = Rng.create 41 in
  let t = 3 in
  let exact =
    (Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:7 ~t_max:t).(t)
  in
  let c = Duality.compare_at ~trials:20_000 g ~branching:B.cobra_k2 ~u:0 ~v:7 ~t rng in
  let cobra_rate, bips_rate = Duality.estimated_rates c in
  (* sd ~ sqrt(0.45*0.55/20000) ~ 0.0035; allow 6 sd *)
  close ~eps:0.021 "cobra MC vs exact" exact cobra_rate;
  close ~eps:0.021 "bips MC vs exact" exact bips_rate

let test_duality_comparison_fields () =
  let g = Gen.complete 6 in
  let rng = Rng.create 42 in
  let c = Duality.compare_at ~trials:100 g ~branching:B.cobra_k2 ~u:0 ~v:3 ~t:0 rng in
  (* at t=0: Hit > 0 iff u<>v (here true), and u not in A_0={v} certainly *)
  check Alcotest.int "all survive at t=0" 100 c.Duality.cobra_surviving;
  check Alcotest.int "all absent at t=0" 100 c.Duality.bips_absent

let test_first_visit_times () =
  let rng = Rng.create 65 in
  let g = Gen.random_regular rng ~n:100 ~r:3 in
  let first = Process.first_visit_times g ~branching:B.cobra_k2 ~start:0 rng in
  let dist = Graph.View.bfs g 0 in
  check Alcotest.int "start at 0" 0 first.(0);
  Array.iteri
    (fun v t ->
      if t < 0 then Alcotest.fail "vertex never visited (cap hit on expander?)";
      (* information travels one hop per round *)
      if t < dist.(v) then Alcotest.failf "hit time %d below distance %d" t dist.(v))
    first

(* ---------- Exact cover time ---------- *)

let test_exact_cover_survival_shape () =
  let g = Gen.complete 4 in
  let s = Exact.cover_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~t_max:20 in
  close "P(cov > 0) = 1" 1.0 s.(0);
  Array.iteri
    (fun i v ->
      if i > 0 && v > s.(i - 1) +. 1e-12 then Alcotest.fail "survival not decreasing";
      if v < -1e-12 || v > 1.0 +. 1e-12 then Alcotest.fail "not a probability")
    s;
  check Alcotest.bool "eventually covered" true (s.(20) < 1e-3)

let test_exact_cover_trivial_start () =
  let g = Gen.complete 3 in
  let s = Exact.cover_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0; 1; 2 ] ~t_max:4 in
  Array.iter (fun v -> close "already covered" 0.0 v) s;
  close "expected cover 0" 0.0
    (Exact.expected_cover_time (csr g) ~branching:B.cobra_k2 ~start:[ 0; 1; 2 ])

let test_exact_expected_cover_vs_mc () =
  (* The strongest cross-validation of the COBRA engine: exact E[cov]
     from the joint (frontier, visited) chain vs 40k simulated trials.
     K_4: sd of the MC mean ~ 1.1/sqrt(40000) ~ 0.006; allow 6 sd. *)
  let g = Gen.complete 4 in
  let exact = Exact.expected_cover_time (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] in
  let rng = Rng.create 61 in
  let s = Stats.Summary.create () in
  for _ = 1 to 40_000 do
    match K.completion_time K.cobra g p0 rng with
    | Some t -> Stats.Summary.add_int s t
    | None -> Alcotest.fail "censored"
  done;
  close ~eps:0.04 "exact vs MC expected cover" exact (Stats.Summary.mean s)

let test_exact_cover_consistent_with_hit () =
  (* cov >= Hit(v) pointwise, so P(cov > t) >= P(Hit(v) > t) for any v. *)
  let g = Gen.cycle 6 in
  let cover = Exact.cover_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~t_max:12 in
  for v = 1 to 5 do
    let hit = Exact.cobra_hit_survival (csr g) ~branching:B.cobra_k2 ~start:[ 0 ] ~target:v ~t_max:12 in
    Array.iteri
      (fun t h ->
        if h > cover.(t) +. 1e-12 then
          Alcotest.failf "P(Hit_%d > %d) exceeds P(cov > %d)" v t t)
      hit
  done

(* ---------- Multiple walks ---------- *)

let test_multi_walk_basics () =
  let g = Gen.cycle 12 in
  let rng = Rng.create 62 in
  (match K.completion_time K.rwalk g { p0 with K.walkers = 4 } rng with
  | Some t -> check Alcotest.bool "covers" true (t > 0)
  | None -> Alcotest.fail "censored");
  Alcotest.check_raises "walkers >= 1" (Invalid_argument "Kernel.rwalk: walkers >= 1")
    (fun () -> ignore (K.run K.rwalk g { p0 with K.walkers = 0 } rng))

let test_multi_walk_one_equals_walk_order () =
  (* walkers = 1 is the plain walk, step for step: its cover time is the
     first step at which the [Rwalk.positions] trajectory drawn from an
     equal-seed stream has visited every vertex. *)
  let g = Gen.cycle 10 in
  for seed = 1 to 20 do
    let seen = Array.make 10 false and visited = ref 0 and cover = ref None in
    Array.iteri
      (fun step v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr visited;
          if !visited = 10 then cover := Some step
        end)
      (Rwalk.positions ~steps:5000 g ~start:0 (Rng.create seed));
    check Alcotest.(option int) "cover step" !cover
      (K.completion_time K.rwalk g p0 (Rng.create seed))
  done

let test_multi_walk_speedup () =
  let rng = Rng.create 64 in
  let g = Gen.random_regular rng ~n:200 ~r:3 in
  let mean walkers =
    let s = Stats.Summary.create () in
    for _ = 1 to 30 do
      match K.completion_time K.rwalk g { p0 with K.walkers } rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "cap"
    done;
    Stats.Summary.mean s
  in
  let one = mean 1 and sixteen = mean 16 in
  check Alcotest.bool "16 walkers at least 4x faster" true (one > 4.0 *. sixteen)

(* ---------- Growth (Lemma 1) ---------- *)

let test_growth_formula_simple () =
  (* K_4, infected {0}: E = 1 + 3 * (1 - (2/3)^2) = 8/3 *)
  let g = Gen.complete 4 in
  let set = Bitset.create 4 in
  Bitset.add set 0;
  close "K4 one infected" (1.0 +. (3.0 *. (5.0 /. 9.0)))
    (Growth.expected_next_size g ~branching:B.cobra_k2 ~source:0 ~infected:set);
  (* all infected: non-source vertices infected w.p. 1 -> E = n *)
  Bitset.fill set;
  close "K4 all infected" 4.0
    (Growth.expected_next_size g ~branching:B.cobra_k2 ~source:0 ~infected:set)

let test_growth_requires_source () =
  let g = Gen.complete 4 in
  let set = Bitset.create 4 in
  Bitset.add set 1;
  Alcotest.check_raises "missing source"
    (Invalid_argument "Growth.expected_next_size: infected must contain the source")
    (fun () ->
      ignore (Growth.expected_next_size g ~branching:B.cobra_k2 ~source:0 ~infected:set))

let test_lemma1_bound_values () =
  (* a(1 + (1-l^2)(1-a/n)) *)
  close "k2 bound" (5.0 *. (1.0 +. (0.75 *. 0.5)))
    (Growth.lemma1_bound ~n:10 ~lambda:0.5 ~branching:B.cobra_k2 ~a:5);
  close "k1 no growth" 5.0 (Growth.lemma1_bound ~n:10 ~lambda:0.5 ~branching:(B.fixed 1) ~a:5);
  close "rho scales" (5.0 *. (1.0 +. (0.4 *. 0.75 *. 0.5)))
    (Growth.lemma1_bound ~n:10 ~lambda:0.5 ~branching:(B.one_plus 0.4) ~a:5)

(* Lemma 1 as a theorem: the exact conditional expectation dominates the
   bound for every infected set on a known-lambda graph. Verified
   exhaustively on Petersen in experiment E9; here spot-check random sets
   on random 3-regular graphs with numerically safe lambda upper bound
   1 (the bound is monotone decreasing in lambda, so lambda = true value
   is the strongest test — we use the Alon-Boppana-ish safe value from
   the closed form when available). *)
let lemma1_random_sets_prop =
  QCheck.Test.make ~name:"Lemma 1 on random sets of the Petersen graph" ~count:100
    QCheck.(int_range 1 10)
    (fun size ->
      let g = Gen.petersen () in
      let rng = Rng.create (size * 1234) in
      let set = Growth.random_infected_set rng g ~source:0 ~size in
      let e = Growth.expected_next_size g ~branching:B.cobra_k2 ~source:0 ~infected:set in
      let bound =
        Growth.lemma1_bound ~n:10 ~lambda:(2.0 /. 3.0) ~branching:B.cobra_k2 ~a:size
      in
      e >= bound -. 1e-9)

let test_transition_samples () =
  let g = Gen.complete 12 in
  let rng = Rng.create 51 in
  let samples = Growth.transition_samples g ~branching:B.cobra_k2 ~source:0 ~trials:5 rng in
  check Alcotest.bool "nonempty" true (Array.length samples > 0);
  Array.iter
    (fun (a, a') ->
      if a < 1 || a > 12 || a' < 1 || a' > 12 then Alcotest.fail "sizes out of range")
    samples

let test_random_infected_set () =
  let g = Gen.petersen () in
  let rng = Rng.create 52 in
  for size = 1 to 10 do
    let s = Growth.random_infected_set rng g ~source:4 ~size in
    check Alcotest.int "cardinal" size (Bitset.cardinal s);
    check Alcotest.bool "contains source" true (Bitset.mem s 4)
  done

(* BIPS infection time is (statistically) no slower with k=3 than k=2:
   coupling intuition checked by means. *)
let test_bigger_k_not_slower () =
  let rng = Rng.create 53 in
  let g = Gen.random_regular rng ~n:200 ~r:3 in
  let mean_time branching =
    let s = Stats.Summary.create () in
    for _ = 1 to 30 do
      match K.completion_time K.bips g { p0 with K.branching } rng with
      | Some t -> Stats.Summary.add_int s t
      | None -> Alcotest.fail "censored"
    done;
    Stats.Summary.mean s
  in
  let t2 = mean_time B.cobra_k2 and t3 = mean_time (B.fixed 3) in
  check Alcotest.bool "k=3 not slower than k=2" true (t3 <= t2 +. 1.0)

(* ---------- seed-revision golden values ----------

   These arrays were recorded from the seed revision of the simulators
   (checked accessors, polymorphic compare) under fixed seeds, and are
   now read through the Cobra.Kernel instances that replaced the
   one-shot drivers. Every engine change must consume the RNG streams
   identically, so every value must stay bit-for-bit the same. If an
   intentional engine change breaks them, re-record and say so in the
   PR. *)

let golden_graph () =
  Graph.View.of_csr
    (Graph.Gen.random_regular
       (Simkit.Seeds.tagged_rng ~master:42 ~tag:"golden:g")
       ~n:512 ~r:3)

let golden_collect ~salt0 ~trials f =
  Simkit.Trial.collect ~trials ~master:42 ~salt0 (fun rng ->
      match f rng with Some t -> t | None -> -1)

let test_golden_cover_times () =
  let g = golden_graph () in
  let cover branching = K.completion_time K.cobra g { p0 with K.branching } in
  check
    Alcotest.(array int)
    "cover, k=2" [| 22; 23; 24; 25; 21 |]
    (golden_collect ~salt0:100 ~trials:5 (cover B.cobra_k2));
  check
    Alcotest.(array int)
    "cover, distinct k=2" [| 16; 17; 18 |]
    (golden_collect ~salt0:400 ~trials:3 (cover (B.distinct 2)));
  check
    Alcotest.(array int)
    "cover, 1+rho=0.3" [| 60; 61; 74 |]
    (golden_collect ~salt0:500 ~trials:3 (cover (B.one_plus 0.3)))

let test_golden_infection_times () =
  let g = golden_graph () in
  check
    Alcotest.(array int)
    "bips, k=2" [| 24; 26; 24; 29; 27 |]
    (golden_collect ~salt0:200 ~trials:5 (K.completion_time K.bips g p0))

let test_golden_walk_cover_times () =
  let g = golden_graph () in
  check
    Alcotest.(array int)
    "random walk" [| 7377; 5437; 7961 |]
    (golden_collect ~salt0:300 ~trials:3 (K.completion_time K.rwalk g p0))

(* Recorded from the revision immediately before the word-scan bitset
   rewrite (bit-by-bit Bitset.iter, full 0..n-1 informed scans). The
   word-parallel kernels must consume the RNG streams identically, so
   every value below must stay bit-for-bit the same. *)

(* Observable [key] of a [kernel] run that informed everyone. *)
let completed_observation kernel g key rng =
  let o = K.run kernel g p0 rng in
  if o.K.completed then Some (int_of_float (Option.get (K.observation o key)))
  else None

let test_golden_push () =
  let g = golden_graph () in
  check
    Alcotest.(array int)
    "push rounds" [| 31; 26; 28; 27; 28 |]
    (golden_collect ~salt0:600 ~trials:5 (completed_observation K.push g "rounds"));
  check
    Alcotest.(array int)
    "push transmissions" [| 6636; 4882; 6263; 5383; 5613 |]
    (golden_collect ~salt0:600 ~trials:5 (completed_observation K.push g "transmissions"));
  check
    Alcotest.(array int)
    "push_pull rounds" [| 17; 16; 18 |]
    (golden_collect ~salt0:700 ~trials:3 (completed_observation K.push_pull g "rounds"))

(* Outcome encoding: extinct at round t -> t, everyone infected at least
   once by round t -> 100000 + t, capped at round t -> -t. *)
let sis_code o =
  if not o.K.completed then Some (-o.K.rounds)
  else if K.observation o "extinct" = Some 1.0 then Some o.K.rounds
  else Some (100_000 + o.K.rounds)

let test_golden_sis () =
  let g = golden_graph () in
  let sis params rng = sis_code (K.run Epidemic.Kernels.sis g params rng) in
  check
    Alcotest.(array int)
    "sis outcomes" [| 100017; 100016; 100018; 100020; 100016 |]
    (golden_collect ~salt0:800 ~trials:5 (sis { p0 with K.recovery = 0.4 }));
  check
    Alcotest.(array int)
    "sis persistent outcomes" [| 100019; 100018; 100018 |]
    (golden_collect ~salt0:900 ~trials:3
       (sis { p0 with K.recovery = 0.7; persistent = true }))

let test_golden_multi_walk () =
  let g = golden_graph () in
  check
    Alcotest.(array int)
    "multi-walk rounds" [| 1322; 2243; 1406 |]
    (golden_collect ~salt0:1000 ~trials:3
       (K.completion_time K.rwalk g { p0 with K.walkers = 4 }))

(* Checksums over whole trajectories: pin the draw order of every round
   of a run, not just the terminal round count. *)
let test_golden_trajectory_checksums () =
  let g = golden_graph () in
  let checksum sizes = Array.fold_left (fun a (s : int) -> (a * 31) + s) 0 sizes in
  check
    Alcotest.(array int)
    "cobra frontier trajectory checksums"
    [| -320291881270216216; 327111993880584616; 420364540883215255 |]
    (golden_collect ~salt0:1100 ~trials:3 (fun rng ->
         Some (checksum (int_trajectory K.cobra g p0 rng ~key:"frontier"))));
  check
    Alcotest.(array int)
    "bips size trajectory checksums"
    [| -3069904489550876856; -361622323682022664; 4333282861671584922 |]
    (golden_collect ~salt0:1200 ~trials:3 (fun rng ->
         Some (checksum (int_trajectory K.bips g p0 rng ~key:"infected"))))

(* ---------- Kernel.trajectory ----------

   Each case runs [trajectory] and [run] on independently created
   equal-seed streams, so any draw the recording made (or skipped) shows
   up as a different round count or stream position. *)

let trajectory_cases () =
  let rr = Gen.random_regular (Rng.create 3) ~n:64 ~r:4 in
  [ ("cobra", K.cobra, rr, "frontier"); ("cobra", K.cobra, Gen.cycle 17, "visited");
    ("bips", K.bips, rr, "infected"); ("bips", K.bips, Gen.hypercube 5, "infected") ]

let same_tail msg a b =
  for i = 1 to 16 do
    check Alcotest.int (Printf.sprintf "%s: post-run draw %d" msg i) (Rng.bits a)
      (Rng.bits b)
  done

let test_trajectory_rounds () =
  List.iter
    (fun (name, kernel, g, _) ->
      for seed = 1 to 3 do
        let o = K.run kernel g p0 (Rng.create seed) in
        check
          Alcotest.(array int)
          (Printf.sprintf "%s seed %d: rounds 0..r" name seed)
          (Array.init (o.K.rounds + 1) Fun.id)
          (int_trajectory kernel g p0 (Rng.create seed) ~key:"rounds")
      done)
    (trajectory_cases ())

let test_trajectory_last_is_final () =
  List.iter
    (fun (name, kernel, g, key) ->
      for seed = 1 to 3 do
        let o = K.run kernel g p0 (Rng.create seed) in
        let values = K.trajectory kernel g p0 (Rng.create seed) ~key in
        check
          Alcotest.(option (float 0.0))
          (Printf.sprintf "%s seed %d: final %s" name seed key)
          (K.observation o key)
          (Some values.(Array.length values - 1))
      done)
    (trajectory_cases ())

let test_trajectory_draws_nothing () =
  List.iter
    (fun (name, kernel, g, key) ->
      for seed = 1 to 3 do
        let ra = Rng.create seed and rb = Rng.create seed in
        ignore (K.run kernel g p0 ra);
        ignore (K.trajectory kernel g p0 rb ~key);
        same_tail (Printf.sprintf "%s seed %d" name seed) ra rb
      done)
    (trajectory_cases ())

(* COBRA at most doubles its frontier per round, so 3 rounds reach at
   most 15 of the 64 cycle vertices: the cap, not cover, stops the run. *)
let test_trajectory_cap () =
  let values =
    K.trajectory K.cobra (Gen.cycle 64) { p0 with K.cap = Some 3 } (Rng.create 1)
      ~key:"visited"
  in
  check Alcotest.int "cap 3: initial state + 3 rounds" 4 (Array.length values)

let test_trajectory_unknown_key () =
  match K.trajectory K.bips (Gen.complete 8) p0 (Rng.create 1) ~key:"frontier" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an unknown observable must raise Invalid_argument"

let () =
  Alcotest.run "cobra"
    [
      ( "branching",
        [
          Alcotest.test_case "basics" `Quick test_branching_basics;
          Alcotest.test_case "validation" `Quick test_branching_validation;
          Alcotest.test_case "draws" `Quick test_branching_draws;
          Alcotest.test_case "pick distribution" `Quick test_branching_pick_distribution;
          Alcotest.test_case "infection probability" `Quick test_infection_probability;
          Alcotest.test_case "of_string forms" `Quick test_branching_of_string_forms;
          Alcotest.test_case "of_string rejections" `Quick
            test_branching_of_string_rejections;
          qtest branching_roundtrip_prop;
          qtest branching_rho_roundtrip_prop;
        ] );
      ( "distinct",
        [
          Alcotest.test_case "basics" `Quick test_distinct_basics;
          Alcotest.test_case "picks are distinct" `Quick test_distinct_picks_are_distinct;
          Alcotest.test_case "hypergeometric probability" `Quick test_distinct_infection_probability;
          Alcotest.test_case "dominates replacement" `Quick test_distinct_dominates_replacement;
          Alcotest.test_case "duality exact" `Quick test_distinct_duality_exact;
          Alcotest.test_case "faster on sparse graphs" `Quick test_distinct_cover_faster_sparse;
        ] );
      ( "process",
        [
          Alcotest.test_case "initial state" `Quick test_process_initial_state;
          Alcotest.test_case "validation" `Quick test_process_validation;
          Alcotest.test_case "step to neighbours" `Quick test_process_step_moves_to_neighbours;
          Alcotest.test_case "transmission budget" `Quick test_process_transmissions_budget;
          Alcotest.test_case "covers K_64" `Quick test_process_cover_complete_graph;
          Alcotest.test_case "k=1 single particle" `Quick test_process_cover_k1_is_walk_like;
          Alcotest.test_case "cap" `Quick test_process_cap_returns_none;
          Alcotest.test_case "hitting time" `Quick test_process_hitting_time;
          Alcotest.test_case "reset" `Quick test_process_reset;
          Alcotest.test_case "frontier trajectory" `Quick test_frontier_trajectory;
          Alcotest.test_case "first visit times" `Quick test_first_visit_times;
          qtest process_invariants_prop;
          qtest cover_time_all_visited_prop;
        ] );
      ( "bips",
        [
          Alcotest.test_case "initial" `Quick test_bips_initial;
          Alcotest.test_case "source persists" `Quick test_bips_source_persists;
          Alcotest.test_case "saturates K_32" `Quick test_bips_saturates_complete;
          Alcotest.test_case "full stays full on K_n" `Quick test_bips_saturated_stays_plausible;
          Alcotest.test_case "non-monotone" `Quick test_bips_non_monotone_possible;
          Alcotest.test_case "reset" `Quick test_bips_reset;
          Alcotest.test_case "trajectory" `Quick test_bips_trajectory;
          qtest bips_invariants_prop;
        ] );
      ( "rwalk",
        [
          Alcotest.test_case "cycle cover mean" `Quick test_walk_cover_cycle_mean;
          Alcotest.test_case "hitting adjacent" `Quick test_walk_hitting_time_adjacent;
          Alcotest.test_case "positions legal" `Quick test_walk_positions;
        ] );
      ( "push",
        [
          Alcotest.test_case "informs everyone" `Quick test_push_informs_everyone;
          Alcotest.test_case "push-pull speed" `Quick test_push_pull_faster_than_push;
          Alcotest.test_case "flood" `Quick test_flood;
        ] );
      ( "exact",
        [
          Alcotest.test_case "survival monotone" `Quick test_exact_survival_monotone;
          Alcotest.test_case "self hit" `Quick test_exact_hit_self_immediately;
          Alcotest.test_case "bips avoid edge cases" `Quick test_exact_bips_distribution_sums;
          Alcotest.test_case "unsaturated decreases" `Quick test_exact_unsaturated_decreases;
          Alcotest.test_case "expected size t=1" `Quick test_exact_expected_size_first_step;
          Alcotest.test_case "matches growth formula" `Quick test_exact_matches_growth_formula;
          Alcotest.test_case "duality on small graphs" `Quick test_duality_gap_small_graphs;
          Alcotest.test_case "duality across branchings" `Quick test_duality_gap_branchings;
          Alcotest.test_case "1+1.0 equals k=2" `Quick test_one_plus_one_is_k2;
          Alcotest.test_case "BIPS marginal vs MC" `Quick test_exact_bips_marginal_vs_mc;
          Alcotest.test_case "multi-start covers faster" `Quick test_exact_cover_multi_start_faster;
          Alcotest.test_case "size limit" `Quick test_exact_size_limit;
          Alcotest.test_case "max_vertices accepted" `Quick test_exact_boundary_max_vertices;
          Alcotest.test_case "max_vertices + 1 rejected" `Quick test_exact_boundary_rejections;
          Alcotest.test_case "duality 1e-12 on K4 and C5" `Quick test_duality_tight_k4_c5;
          Alcotest.test_case "mask roundtrip" `Quick test_mask_roundtrip;
          Alcotest.test_case "SIS step closed form" `Quick test_sis_step_dist_closed_form;
          Alcotest.test_case "contact absorption closed form" `Quick
            test_contact_absorption_closed_form;
          Alcotest.test_case "push survival shape" `Quick test_push_survival_shape;
          Alcotest.test_case "engine memo consistent" `Quick test_engine_memo_consistent;
          qtest duality_random_graph_prop;
          qtest duality_multiset_prop;
        ] );
      ( "exact-cover",
        [
          Alcotest.test_case "survival shape" `Quick test_exact_cover_survival_shape;
          Alcotest.test_case "trivial start" `Quick test_exact_cover_trivial_start;
          Alcotest.test_case "exact vs MC mean" `Quick test_exact_expected_cover_vs_mc;
          Alcotest.test_case "dominates hitting survival" `Quick test_exact_cover_consistent_with_hit;
        ] );
      ( "multi-walk",
        [
          Alcotest.test_case "basics" `Quick test_multi_walk_basics;
          Alcotest.test_case "walkers=1 is the walk" `Quick test_multi_walk_one_equals_walk_order;
          Alcotest.test_case "speedup" `Quick test_multi_walk_speedup;
        ] );
      ( "duality-mc",
        [
          Alcotest.test_case "MC matches exact" `Quick test_mc_duality_matches_exact;
          Alcotest.test_case "t=0 edge case" `Quick test_duality_comparison_fields;
        ] );
      ( "growth",
        [
          Alcotest.test_case "formula values" `Quick test_growth_formula_simple;
          Alcotest.test_case "requires source" `Quick test_growth_requires_source;
          Alcotest.test_case "lemma 1 bound values" `Quick test_lemma1_bound_values;
          Alcotest.test_case "transition samples" `Quick test_transition_samples;
          Alcotest.test_case "random infected set" `Quick test_random_infected_set;
          Alcotest.test_case "bigger k not slower" `Quick test_bigger_k_not_slower;
          qtest lemma1_random_sets_prop;
        ] );
      ( "golden",
        [
          Alcotest.test_case "cover times" `Quick test_golden_cover_times;
          Alcotest.test_case "infection times" `Quick test_golden_infection_times;
          Alcotest.test_case "walk cover times" `Quick test_golden_walk_cover_times;
          Alcotest.test_case "push rounds and transmissions" `Quick test_golden_push;
          Alcotest.test_case "sis outcomes" `Quick test_golden_sis;
          Alcotest.test_case "multi-walk rounds" `Quick test_golden_multi_walk;
          Alcotest.test_case "trajectory checksums" `Quick
            test_golden_trajectory_checksums;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "rounds key is 0..r" `Quick test_trajectory_rounds;
          Alcotest.test_case "last is the final observation" `Quick
            test_trajectory_last_is_final;
          Alcotest.test_case "recording draws nothing" `Quick
            test_trajectory_draws_nothing;
          Alcotest.test_case "cap bounds the length" `Quick test_trajectory_cap;
          Alcotest.test_case "unknown key rejected" `Quick test_trajectory_unknown_key;
        ] );
    ]
