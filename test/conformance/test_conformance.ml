(* Statistical conformance suite: every stochastic kernel is sampled
   under the repository's seed discipline and its empirical distribution
   is tested against an exact oracle (Cobra.Exact, or a closed-form pmf
   for the PRNG primitives) with Stats.Gof.

   Determinism: the master seed is fixed — deliberately NOT read from
   COBRA_SEED — and every check draws from its own tagged stream family,
   so each verdict is a pure function of this file. Trial fan-out uses
   Simkit.Trial's bit-identical parallel runner, so COBRA_DOMAINS cannot
   change a draw either: the suite is a deterministic PASS/FAIL gate.

   Error control: every Gof verdict runs at alpha = family_alpha /
   family_size (Bonferroni), family_alpha = 1e-6, with family_size a
   documented upper bound on the number of verdicts below. A fresh,
   correct kernel fails the whole suite with probability < 1e-6 per seed
   — and with the seed fixed, a passing suite stays passing. *)

module Gof = Stats.Gof
module Conformance = Simkit.Conformance
module Csr = Graph.Csr
module Gen = Graph.Gen
module Branching = Cobra.Branching
module Exact = Cobra.Exact
module Process = Cobra.Process
module Bips = Cobra.Bips
module Rwalk = Cobra.Rwalk
module Coalesce = Cobra.Coalesce
module Explore = Cobra.Explore
module Sis = Epidemic.Sis
module Contact = Epidemic.Contact
module Herd = Epidemic.Herd
module Seir = Epidemic.Seir

let master = 20260807
let family_alpha = 1e-6

(* Upper bound on the number of accept-demanding Gof verdicts taken
   below (currently 69: 63 through the lanes section, plus 6 in the SEIR
   section — one step chi-square, three occupancy binomials on Q3, the
   attack-count chi-square and the extinction binomial; keep the bound
   at or above so adding a check never silently weakens the family-wise
   guarantee — test_verdict_budget asserts it). The mutation tests
   demand a Reject from a deliberately wrong kernel — they can only fail
   by missing a gross perturbation, not by a rare false alarm — so they
   do not consume false-failure budget and are not counted. *)
let family_size = 72
let family_verdicts = 69
let alpha = Gof.bonferroni ~family_alpha ~m:family_size

let check_gof name r =
  if not (Gof.passed r) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Gof.pp r)

(* ---------- fixtures ----------

   Heap CSR for the exact oracles; the simulators consume Graph.View, so
   call sites wrap with [v] (a free of_csr wrap — the RNG streams are
   identical by the view contract). *)

let v = Graph.View.of_csr

let k4 = Gen.complete 4
let c5 = Gen.cycle 5
let q3 = Gen.hypercube 3

(* A fixed 3-regular graph that is neither vertex-transitive in the way
   K4/C5 are nor bipartite like Q3: the triangular prism. *)
let prism =
  Csr.of_edges ~n:6
    [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (0, 3); (1, 4); (2, 5) ]

(* ---------- mask helpers ---------- *)

let describe_mask m =
  "{"
  ^ String.concat "," (List.map string_of_int (Exact.vertices_of_mask m))
  ^ "}"

let mask_of_pred n pred =
  let m = ref 0 in
  for v = 0 to n - 1 do
    if pred v then m := !m lor (1 lsl v)
  done;
  !m

let frontier_mask p = mask_of_pred (Graph.View.n_vertices (Process.graph p)) (Process.active p)

let count_bit samples v =
  Array.fold_left (fun acc m -> if m land (1 lsl v) <> 0 then acc + 1 else acc) 0 samples

(* Per-vertex occupancy marginals against exact probabilities: vertices
   the oracle gives probability zero must never appear (one hit refutes
   the kernel); the rest get an exact binomial test each. *)
let check_occupancy name ~trials ~exact samples =
  Array.iteri
    (fun v p ->
      (* Marginals are sums of ~2^n products; shave the float dust that
         can push an exactly-certain cell to 1.0 + ulp. *)
      let p = Float.min 1.0 p in
      let c = count_bit samples v in
      if p = 0.0 then begin
        if c > 0 then
          Alcotest.failf "%s: vertex %d occupied %d times but has probability 0" name v
            c
      end
      else if p = 1.0 then begin
        if c < trials then
          Alcotest.failf "%s: vertex %d occupied %d/%d times but has probability 1"
            name v c trials
      end
      else
        check_gof
          (Printf.sprintf "%s/v%d" name v)
          (Gof.binomial_test ~alpha ~successes:c ~trials ~p ()))
    exact

let check_set_dist ~tag ~trials ~dist sample =
  check_gof tag
    (Conformance.check ~alpha ~master ~tag ~trials ~dist ~equal:Int.equal
       ~describe:describe_mask ~sample ())

let check_scalar_dist ~tag ~trials ~dist sample =
  check_gof tag
    (Conformance.check ~alpha ~master ~tag ~trials ~dist ~equal:Int.equal
       ~describe:string_of_int ~sample ())

(* ---------- COBRA ---------- *)

let test_cobra_step_c5 () =
  let branching = Branching.Fixed 2 and active = [ 0; 2 ] in
  check_set_dist ~tag:"cobra/step/c5-k2" ~trials:6000
    ~dist:(Exact.cobra_step_dist c5 ~branching ~active) (fun rng ->
      let p = Process.create (v c5) ~branching ~start:active in
      Process.step p rng;
      frontier_mask p)

let test_cobra_step_prism () =
  let branching = Branching.One_plus 0.5 and active = [ 0; 4 ] in
  check_set_dist ~tag:"cobra/step/prism-1+0.5" ~trials:6000
    ~dist:(Exact.cobra_step_dist prism ~branching ~active) (fun rng ->
      let p = Process.create (v prism) ~branching ~start:active in
      Process.step p rng;
      frontier_mask p)

let test_cobra_step_distinct () =
  let branching = Branching.Distinct 2 and active = [ 1 ] in
  check_set_dist ~tag:"cobra/step/k4-distinct2" ~trials:6000
    ~dist:(Exact.cobra_step_dist k4 ~branching ~active) (fun rng ->
      let p = Process.create (v k4) ~branching ~start:active in
      Process.step p rng;
      frontier_mask p)

let test_cobra_occupancy_q3 () =
  (* Q3 is bipartite: after 3 rounds every active vertex sits at odd
     parity, so the even-parity occupancies are exactly zero — the
     zero-probability guard in check_occupancy is doing real work. *)
  let branching = Branching.Fixed 2 and t = 3 and trials = 6000 in
  let occ = Exact.cobra_occupancy q3 ~branching ~start:[ 0 ] ~t_max:t in
  let samples =
    Conformance.samples ~master ~tag:"cobra/occupancy/q3" ~trials (fun rng ->
        let p = Process.create (v q3) ~branching ~start:[ 0 ] in
        for _ = 1 to t do
          Process.step p rng
        done;
        frontier_mask p)
  in
  check_occupancy "cobra/occupancy/q3" ~trials ~exact:occ.(t) samples

(* ---------- BIPS ---------- *)

let test_bips_step_prism () =
  let branching = Branching.One_plus 0.5 and source = 0 in
  check_set_dist ~tag:"bips/step/prism-1+0.5" ~trials:6000
    ~dist:(Exact.bips_step_dist prism ~branching ~source ~infected:[ source ])
    (fun rng ->
      let p = Bips.create (v prism) ~branching ~source in
      Bips.step p rng;
      mask_of_pred 6 (Bips.infected p))

let bips_two_step_dist g ~branching ~source =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (m, p) ->
      List.iter
        (fun (m', q) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl m') in
          Hashtbl.replace tbl m' (prev +. (p *. q)))
        (Exact.bips_step_dist g ~branching ~source
           ~infected:(Exact.vertices_of_mask m)))
    (Exact.bips_step_dist g ~branching ~source ~infected:[ source ]);
  List.sort compare (Hashtbl.fold (fun m p acc -> (m, p) :: acc) tbl [])

let test_bips_two_step_k4 () =
  let branching = Branching.Fixed 2 and source = 2 in
  check_set_dist ~tag:"bips/two-step/k4-k2" ~trials:6000
    ~dist:(bips_two_step_dist k4 ~branching ~source) (fun rng ->
      let p = Bips.create (v k4) ~branching ~source in
      Bips.step p rng;
      Bips.step p rng;
      mask_of_pred 4 (Bips.infected p))

let test_bips_occupancy_prism () =
  let branching = Branching.Fixed 2 and t = 2 and trials = 6000 in
  let occ = Exact.bips_occupancy prism ~branching ~source:0 ~t_max:t in
  let samples =
    Conformance.samples ~master ~tag:"bips/occupancy/prism" ~trials (fun rng ->
        let p = Bips.create (v prism) ~branching ~source:0 in
        for _ = 1 to t do
          Bips.step p rng
        done;
        mask_of_pred 6 (Bips.infected p))
  in
  check_occupancy "bips/occupancy/prism" ~trials ~exact:occ.(t) samples

(* ---------- simple random walk ---------- *)

(* Exact t-step distribution by iterating the walk matrix row. *)
let rwalk_dist g ~start ~steps =
  let n = Csr.n_vertices g in
  let cur = Array.make n 0.0 in
  cur.(start) <- 1.0;
  for _ = 1 to steps do
    let next = Array.make n 0.0 in
    for v = 0 to n - 1 do
      if cur.(v) > 0.0 then begin
        let share = cur.(v) /. Float.of_int (Csr.degree g v) in
        Csr.iter_neighbours g v ~f:(fun w -> next.(w) <- next.(w) +. share)
      end
    done;
    Array.blit next 0 cur 0 n
  done;
  List.filter
    (fun (_, p) -> p > 0.0)
    (List.init n (fun v -> (v, cur.(v))))

let check_rwalk ~tag g ~start ~steps =
  check_gof tag
    (Conformance.check ~alpha ~master ~tag ~trials:8000
       ~dist:(rwalk_dist g ~start ~steps)
       ~equal:Int.equal ~describe:string_of_int
       ~sample:(fun rng -> (Rwalk.positions ~steps (v g) ~start rng).(steps))
       ())

let test_rwalk_c5 () = check_rwalk ~tag:"rwalk/c5-t3" c5 ~start:0 ~steps:3

let test_rwalk_q3 () =
  (* Even step count on a bipartite graph: half the vertices have
     probability zero, so stray samples there are fatal, not averaged. *)
  check_rwalk ~tag:"rwalk/q3-t2" q3 ~start:0 ~steps:2

(* ---------- push broadcast ---------- *)

(* Distribution of a completion round from its survival function, with
   every round above t_max merged into one tail cell (value t_max + 1). *)
let survival_rounds_dist s ~t_max =
  let cells = List.init t_max (fun i -> (i + 1, s.(i) -. s.(i + 1))) in
  List.filter (fun (_, p) -> p > 1e-15) (cells @ [ (t_max + 1, s.(t_max)) ])

(* The completion round of one [kernel] run, in the same tail cell. *)
let completion_round ~tag ~t_max kernel g params rng =
  match Cobra.Kernel.completion_time kernel (v g) params rng with
  | Some r -> min r (t_max + 1)
  | None -> Alcotest.fail (tag ^ ": hit its cap")

let push_rounds_dist g ~start ~t_max =
  survival_rounds_dist (Exact.push_cover_survival g ~start ~t_max) ~t_max

let check_push ~tag g ~start ~t_max =
  check_gof tag
    (Conformance.check ~alpha ~master ~tag ~trials:6000
       ~dist:(push_rounds_dist g ~start ~t_max)
       ~equal:Int.equal ~describe:string_of_int
       ~sample:
         (completion_round ~tag ~t_max Cobra.Kernel.push g
            { Cobra.Kernel.default_params with start })
       ())

let test_push_k4 () = check_push ~tag:"push/k4" k4 ~start:0 ~t_max:10
let test_push_c5 () = check_push ~tag:"push/c5" c5 ~start:2 ~t_max:14

(* ---------- pull and push-pull ---------- *)

(* Informed-count marginal of an exact mask distribution. *)
let count_marginal dist =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (m, p) ->
      let c = List.length (Exact.vertices_of_mask m) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl c) in
      Hashtbl.replace tbl c (prev +. p))
    dist;
  List.sort compare (Hashtbl.fold (fun c p acc -> (c, p) :: acc) tbl [])

(* Compose an exact one-round transition with an initial mask
   distribution. *)
let compose_step step dist0 =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (m, p) ->
      List.iter
        (fun (m', q) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl m') in
          Hashtbl.replace tbl m' (prev +. (p *. q)))
        (step m))
    dist0;
  List.sort compare (Hashtbl.fold (fun m p acc -> (m, p) :: acc) tbl [])

(* Informed count of the named rumour kernel after [rounds] rounds from
   vertex 0 — sampling the Sweep-facing kernel instance itself. *)
let kernel_informed ~rounds kernel g rng =
  let open Cobra.Kernel in
  let inst = kernel.create (v g) default_params in
  for _ = 1 to rounds do
    inst.step rng
  done;
  int_of_float (List.assoc "informed" (inst.observe ()))

let test_pull_step_prism () =
  check_scalar_dist ~tag:"pull/step/prism" ~trials:6000
    ~dist:(count_marginal (Exact.pull_step_dist prism ~infected:[ 0 ]))
    (kernel_informed ~rounds:1 Cobra.Kernel.pull prism)

let test_pull_two_step_q3 () =
  let step m = Exact.pull_step_dist q3 ~infected:(Exact.vertices_of_mask m) in
  check_scalar_dist ~tag:"pull/two-step/q3" ~trials:6000
    ~dist:(count_marginal (compose_step step (Exact.pull_step_dist q3 ~infected:[ 0 ])))
    (kernel_informed ~rounds:2 Cobra.Kernel.pull q3)

let test_pull_rounds_k4 () =
  let t_max = 14 in
  let dist = survival_rounds_dist (Exact.pull_cover_survival k4 ~start:0 ~t_max) ~t_max in
  check_gof "pull/rounds/k4"
    (Conformance.check ~alpha ~master ~tag:"pull/rounds/k4" ~trials:6000 ~dist
       ~equal:Int.equal ~describe:string_of_int
       ~sample:
         (completion_round ~tag:"pull/rounds/k4" ~t_max Cobra.Kernel.pull k4
            Cobra.Kernel.default_params)
       ())

let test_push_pull_step_k4 () =
  check_scalar_dist ~tag:"push-pull/step/k4" ~trials:6000
    ~dist:(count_marginal (Exact.push_pull_step_dist k4 ~infected:[ 0 ]))
    (kernel_informed ~rounds:1 Cobra.Kernel.push_pull k4)

let test_push_pull_step_prism () =
  check_scalar_dist ~tag:"push-pull/step/prism" ~trials:6000
    ~dist:(count_marginal (Exact.push_pull_step_dist prism ~infected:[ 0 ]))
    (kernel_informed ~rounds:1 Cobra.Kernel.push_pull prism)

let test_push_pull_rounds_c5 () =
  let t_max = 12 in
  let dist =
    survival_rounds_dist (Exact.push_pull_cover_survival c5 ~start:0 ~t_max) ~t_max
  in
  check_gof "push-pull/rounds/c5"
    (Conformance.check ~alpha ~master ~tag:"push-pull/rounds/c5" ~trials:6000 ~dist
       ~equal:Int.equal ~describe:string_of_int
       ~sample:
         (completion_round ~tag:"push-pull/rounds/c5" ~t_max Cobra.Kernel.push_pull c5
            Cobra.Kernel.default_params)
       ())

(* ---------- coalescing walks with voting ---------- *)

let coalesce_mask p n = mask_of_pred n (Coalesce.mem p)

let test_coalesce_step_k4 () =
  (* Two adjacent clusters on K4: they merge exactly when both pick the
     same vertex of the opposite pair (probability 2/9). The set-valued
     oracle is the COBRA chain at branching Fixed 1. *)
  check_set_dist ~tag:"coalesce/step/k4" ~trials:6000
    ~dist:(Exact.coalescing_step_dist k4 ~active:[ 0; 1 ]) (fun rng ->
      let p = Coalesce.create (v k4) ~walkers:2 ~start:0 in
      Coalesce.step p rng;
      coalesce_mask p 4)

let test_coalesce_clusters_q3 () =
  check_scalar_dist ~tag:"coalesce/clusters/q3-t2" ~trials:6000
    ~dist:(Exact.coalescing_cluster_dist q3 ~start:[ 0; 1; 2; 3 ] ~t_max:2) (fun rng ->
      let p = Coalesce.create (v q3) ~walkers:4 ~start:0 in
      Coalesce.step p rng;
      Coalesce.step p rng;
      Coalesce.clusters p)

let test_coalesce_consensus_k4 () =
  (* Consensus is absorbing (a lone cluster keeps walking), so consensus
     at round t means consensus by round t. *)
  let t = 3 and trials = 6000 in
  let s = Exact.coalescing_consensus_survival k4 ~start:[ 0; 1; 2 ] ~t_max:t in
  let outcomes =
    Conformance.samples ~master ~tag:"coalesce/consensus/k4" ~trials (fun rng ->
        let p = Coalesce.create (v k4) ~walkers:3 ~start:0 in
        for _ = 1 to t do
          Coalesce.step p rng
        done;
        Coalesce.is_consensus p)
  in
  let successes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcomes in
  check_gof "coalesce/consensus/k4"
    (Gof.binomial_test ~alpha ~successes ~trials ~p:(1.0 -. s.(t)) ())

(* ---------- unvisited-edge-preferring walk ---------- *)

let explore_position ~steps g rng =
  let p = Explore.create (v g) ~start:0 in
  for _ = 1 to steps do
    Explore.step p rng
  done;
  Explore.position p

let test_explore_position_k4 () =
  check_scalar_dist ~tag:"explore/position/k4-t3" ~trials:6000
    ~dist:(Exact.explore_position_dist k4 ~start:0 ~t:3)
    (explore_position ~steps:3 k4)

let test_explore_position_q3 () =
  (* Even step count on bipartite Q3: the walk moves along one edge per
     step whatever it prefers, so odd-parity vertices have exactly zero
     probability and any stray sample there is fatal. *)
  check_scalar_dist ~tag:"explore/position/q3-t4" ~trials:6000
    ~dist:(Exact.explore_position_dist q3 ~start:0 ~t:4)
    (explore_position ~steps:4 q3)

let test_explore_rounds_prism () =
  let t_max = 12 in
  let dist =
    survival_rounds_dist (Exact.explore_cover_survival prism ~start:0 ~t_max) ~t_max
  in
  check_gof "explore/rounds/prism"
    (Conformance.check ~alpha ~master ~tag:"explore/rounds/prism" ~trials:6000 ~dist
       ~equal:Int.equal ~describe:string_of_int
       ~sample:
         (completion_round ~tag:"explore/rounds/prism" ~t_max Cobra.Kernel.explore prism
            Cobra.Kernel.default_params)
       ())

(* ---------- SIS ---------- *)

let sis_mask p n = mask_of_pred n (Sis.infected p)

let test_sis_step_prism () =
  let contacts = Branching.Fixed 1 and recovery = 0.3 in
  let infected = [ 0; 1 ] in
  check_set_dist ~tag:"sis/step/prism" ~trials:6000
    ~dist:(Exact.sis_step_dist prism ~contacts ~recovery ~persistent:None ~infected)
    (fun rng ->
      let p =
        Sis.create (v prism) { Sis.contacts; recovery } ~persistent:None ~start:infected
      in
      Sis.step p rng;
      sis_mask p 6)

let test_sis_step_persistent_k4 () =
  let contacts = Branching.One_plus 0.5 and recovery = 0.5 in
  check_set_dist ~tag:"sis/step/k4-persistent" ~trials:6000
    ~dist:
      (Exact.sis_step_dist k4 ~contacts ~recovery ~persistent:(Some 0) ~infected:[ 0 ])
    (fun rng ->
      let p =
        Sis.create (v k4) { Sis.contacts; recovery } ~persistent:(Some 0) ~start:[ 0 ]
      in
      Sis.step p rng;
      sis_mask p 4)

let test_sis_extinction_c5 () =
  (* P(extinct within 4 rounds) — stepped manually so the check is not
     confounded by run's everyone-infected-once early stop. *)
  let contacts = Branching.Fixed 1 and recovery = 0.8 and t = 4 and trials = 6000 in
  let series = Exact.sis_extinct_series c5 ~contacts ~recovery ~start:[ 0 ] ~t_max:t in
  let extinct =
    Conformance.samples ~master ~tag:"sis/extinction/c5" ~trials (fun rng ->
        let p =
          Sis.create (v c5) { Sis.contacts; recovery } ~persistent:None ~start:[ 0 ]
        in
        for _ = 1 to t do
          Sis.step p rng
        done;
        Sis.is_extinct p)
  in
  let successes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 extinct in
  check_gof "sis/extinction/c5"
    (Gof.binomial_test ~alpha ~successes ~trials ~p:series.(t) ())

(* ---------- contact process ---------- *)

let test_contact_k4 () =
  let infection_rate = 1.5 and trials = 4000 in
  let p_exact = Exact.contact_absorption k4 ~infection_rate ~start:[ 0 ] in
  let outcomes =
    Conformance.samples ~master ~tag:"contact/k4" ~trials (fun rng ->
        let r = Contact.run (v k4) ~infection_rate ~persistent:None ~start:[ 0 ] rng in
        match r.Contact.outcome with
        | Contact.Fully_exposed _ -> true
        | Contact.Died_out _ -> false
        | Contact.Still_active _ -> Alcotest.fail "contact/k4: still active at horizon")
  in
  let successes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcomes in
  check_gof "contact/k4" (Gof.binomial_test ~alpha ~successes ~trials ~p:p_exact ())

let test_contact_c5 () =
  let infection_rate = 0.7 and trials = 4000 in
  let p_exact = Exact.contact_absorption c5 ~infection_rate ~start:[ 1 ] in
  let outcomes =
    Conformance.samples ~master ~tag:"contact/c5" ~trials (fun rng ->
        let r = Contact.run (v c5) ~infection_rate ~persistent:None ~start:[ 1 ] rng in
        match r.Contact.outcome with
        | Contact.Fully_exposed _ -> true
        | Contact.Died_out _ -> false
        | Contact.Still_active _ -> Alcotest.fail "contact/c5: still active at horizon")
  in
  let successes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcomes in
  check_gof "contact/c5" (Gof.binomial_test ~alpha ~successes ~trials ~p:p_exact ())

(* ---------- herd ---------- *)

(* With infectious_rounds = 1 and immune_rounds = 0, one herd round from
   transient index cases is exactly one SIS round at recovery 1: the
   index cases shed for this round only, and every initially-susceptible
   animal is exposed against the snapshot. sis_step_dist is the oracle. *)
let herd_one_round ~tag g ~contacts ~index_cases =
  let n = Csr.n_vertices g in
  let params = { Herd.contacts; infectious_rounds = 1; immune_rounds = 0 } in
  check_set_dist ~tag ~trials:6000
    ~dist:
      (Exact.sis_step_dist g ~contacts ~recovery:1.0 ~persistent:None
         ~infected:index_cases)
    (fun rng ->
      let h = Herd.create (v g) params ~pi:[] ~index_cases in
      Herd.step h rng;
      mask_of_pred n (fun v -> Herd.status h v = Herd.Transient))

let test_herd_k4 () =
  herd_one_round ~tag:"herd/k4" k4 ~contacts:(Branching.Fixed 1) ~index_cases:[ 0 ]

let test_herd_prism () =
  herd_one_round ~tag:"herd/prism" prism ~contacts:(Branching.Fixed 2)
    ~index_cases:[ 0; 5 ]

(* ---------- PRNG distributions ---------- *)

let test_dist_categorical () =
  let weights = [| 0.1; 0.2; 0.3; 0.4 |] in
  check_scalar_dist ~tag:"dist/categorical" ~trials:8000
    ~dist:(Array.to_list (Array.mapi (fun i w -> (i, w)) weights))
    (fun rng -> Prng.Dist.categorical rng weights)

let test_dist_binomial () =
  let n = 10 and p = 0.3 in
  let dist =
    List.init (n + 1) (fun k -> (k, Float.exp (Gof.binomial_log_pmf ~n ~p k)))
  in
  check_scalar_dist ~tag:"dist/binomial" ~trials:8000 ~dist (fun rng ->
      Prng.Dist.binomial rng ~n ~p)

let test_dist_geometric () =
  let p = 0.35 and cut = 10 in
  let cells = List.init cut (fun k -> (k, p *. ((1.0 -. p) ** Float.of_int k))) in
  let dist = cells @ [ (cut, (1.0 -. p) ** Float.of_int cut) ] in
  check_scalar_dist ~tag:"dist/geometric" ~trials:8000 ~dist (fun rng ->
      min (Prng.Dist.geometric rng p) cut)

let test_dist_poisson () =
  let lambda = 3.0 and cut = 10 in
  let pmf k =
    Float.exp
      ((Float.of_int k *. Float.log lambda) -. lambda -. Gof.log_gamma (Float.of_int (k + 1)))
  in
  let cells = List.init cut (fun k -> (k, pmf k)) in
  let head = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 cells in
  let dist = cells @ [ (cut, 1.0 -. head) ] in
  check_scalar_dist ~tag:"dist/poisson" ~trials:8000 ~dist (fun rng ->
      min (Prng.Dist.poisson rng lambda) cut)

let test_dist_normal_ks () =
  let mu = 2.0 and sigma = 1.5 in
  let xs =
    Conformance.samples ~master ~tag:"dist/normal" ~trials:8000 (fun rng ->
        Prng.Dist.normal rng ~mu ~sigma)
  in
  check_gof "dist/normal"
    (Gof.ks1 ~alpha ~cdf:(fun x -> Gof.normal_cdf ((x -. mu) /. sigma)) xs)

let test_dist_exponential_ks () =
  let rate = 0.8 in
  let xs =
    Conformance.samples ~master ~tag:"dist/exponential" ~trials:8000 (fun rng ->
        Prng.Dist.exponential rng ~rate)
  in
  check_gof "dist/exponential"
    (Gof.ks1 ~alpha ~cdf:(fun x -> 1.0 -. Float.exp (-.rate *. x)) xs)

(* ---------- PRNG sampling ---------- *)

let test_sample_with_replacement () =
  let dist = List.init 9 (fun i -> (i, 1.0 /. 9.0)) in
  check_scalar_dist ~tag:"sample/with-replacement" ~trials:8000 ~dist (fun rng ->
      let a = Prng.Sample.with_replacement rng ~k:2 ~n:3 in
      (a.(0) * 3) + a.(1))

let test_sample_without_replacement () =
  (* Unordered pairs from {0..3}: uniform over the C(4,2) = 6 subsets. *)
  let pairs = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let dist = List.map (fun pr -> (pr, 1.0 /. 6.0)) pairs in
  check_gof "sample/without-replacement"
    (Conformance.check ~alpha ~master ~tag:"sample/without-replacement" ~trials:8000
       ~dist
       ~equal:(fun (a, b) (c, d) -> a = c && b = d)
       ~describe:(fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
       ~sample:(fun rng ->
         let a = Prng.Sample.without_replacement rng ~k:2 ~n:4 in
         (min a.(0) a.(1), max a.(0) a.(1)))
       ())

let test_sample_shuffle () =
  let perms = [ 12; 21; 102; 120; 201; 210 ] in
  let dist = List.map (fun p -> (p, 1.0 /. 6.0)) perms in
  check_scalar_dist ~tag:"sample/shuffle" ~trials:8000 ~dist (fun rng ->
      let a = [| 0; 1; 2 |] in
      Prng.Sample.shuffle rng a;
      (a.(0) * 100) + (a.(1) * 10) + a.(2))

let test_sample_alias () =
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let table = Prng.Sample.Alias.create weights in
  check_scalar_dist ~tag:"sample/alias" ~trials:8000
    ~dist:(Array.to_list (Array.mapi (fun i w -> (i, w /. 10.0)) weights))
    (fun rng -> Prng.Sample.Alias.draw table rng)

(* ---------- Q10 spot checks for the word-scan rewrites ----------------

   The exact-oracle fixtures above have at most 8 vertices, so the
   packed bitsets never span more than one word. These checks rerun one
   kernel step of each rewritten engine on the 10-dimensional hypercube
   (n = 1024: 32 words, multi-word traversal and buffer reuse actually
   exercised) against closed-form oracles. Q10 is triangle-free and
   10-regular, which is what makes the formulas below exact. *)

let q10 = Gen.hypercube 10

(* Bit index of a neighbour of vertex 0 in Q10 (all are powers of two). *)
let q10_axis v =
  let rec go i = if 1 lsl i = v then i else go (i + 1) in
  go 0

let test_cobra_step_q10 () =
  (* One step from {0} with Fixed 2: two independent uniform picks among
     the 10 neighbours; the frontier is their dedup. Unordered pair
     {i,j} has probability 2/100, singleton {i} has 1/100. *)
  let dist =
    List.concat
      (List.init 10 (fun i ->
           List.init (10 - i) (fun d ->
               let j = i + d in
               ((i * 10) + j, if i = j then 0.01 else 0.02))))
  in
  check_scalar_dist ~tag:"cobra/step/q10-k2" ~trials:6000 ~dist (fun rng ->
      let p = Process.create (v q10) ~branching:(Branching.Fixed 2) ~start:[ 0 ] in
      Process.step p rng;
      match Array.to_list (Array.map q10_axis (Process.frontier p)) with
      | [ a ] -> (a * 10) + a
      | [ a; b ] -> (min a b * 10) + max a b
      | l -> Alcotest.failf "cobra/q10: frontier of size %d" (List.length l))

let test_bips_step_q10 () =
  (* One step from source 0 with Fixed 2: each of the 10 neighbours
     independently hits the source with probability 1 - (9/10)^2 = 0.19;
     nobody else can. Infected count - 1 ~ Binomial(10, 0.19). *)
  let dist =
    List.init 11 (fun k ->
        (k, Float.exp (Gof.binomial_log_pmf ~n:10 ~p:0.19 k)))
  in
  check_scalar_dist ~tag:"bips/step/q10-k2" ~trials:6000 ~dist (fun rng ->
      let p = Bips.create (v q10) ~branching:(Branching.Fixed 2) ~source:0 in
      Bips.step p rng;
      Bips.infected_count p - 1)

let test_push_two_rounds_q10 () =
  (* Round 1 informs a uniform neighbour X of 0. In round 2, 0 pushes to
     a uniform neighbour (misses only by re-hitting X, p = 1/10) and X
     pushes to a uniform neighbour (misses only by hitting 0, p = 1/10);
     Q10 is triangle-free so the two pushes can never collide. Informed
     count after two rounds: 2 with p 0.01, 3 with p 0.18, 4 with
     p 0.81. *)
  let open Cobra.Kernel in
  let dist = [ (2, 0.01); (3, 0.18); (4, 0.81) ] in
  check_scalar_dist ~tag:"push/q10-two-rounds" ~trials:6000 ~dist (fun rng ->
      let inst = push.create (v q10) default_params in
      inst.step rng;
      inst.step rng;
      int_of_float (List.assoc "informed" (inst.observe ())))

let test_sis_step_q10 () =
  (* One round from infected = {0}, recovery 0.5, one contact draw per
     vertex: 0 stays with probability 0.5 (recovering leaves it exposed
     only to non-infected neighbours), and each of the 10 neighbours
     draws its contact uniformly, hitting 0 with probability 1/10. Count
     after the round ~ Bernoulli(0.5) + Binomial(10, 0.1). *)
  let p_bin k =
    if k < 0 || k > 10 then 0.0
    else Float.exp (Gof.binomial_log_pmf ~n:10 ~p:0.1 k)
  in
  let dist =
    List.init 12 (fun c -> (c, (0.5 *. p_bin c) +. (0.5 *. p_bin (c - 1))))
  in
  check_scalar_dist ~tag:"sis/step/q10" ~trials:6000 ~dist (fun rng ->
      let p =
        Sis.create (v q10)
          { Sis.contacts = Branching.Fixed 1; recovery = 0.5 }
          ~persistent:None ~start:[ 0 ]
      in
      Sis.step p rng;
      Sis.infected_count p)

(* ---------- bit-sliced lane engine ----------------------------------

   The lane engine claims per-lane distributional equality with the
   scalar kernels: lane [j] of a batch, driven one sliced round from a
   deterministic start, must draw its next state from exactly the
   exact-oracle step distribution, independently of every other lane —
   even though lanes share rejection rounds and skip decisions. Three
   verdicts per fixture:

   - per-lane chi-square: each lane's own outcome counts against the
     oracle, the 64 per-lane statistics summed into one chi-square with
     64 * (cells - 1) df (lane totals are fixed at the batch count, so
     the statistics are independent chi-squares and the sum is exact).
     One biased lane — a transpose slip, a plane misalignment — inflates
     the sum; averaging across lanes would hide it.
   - pooled marginal: all lanes' samples as one multinomial, the sharper
     test for a small bias common to every lane.
   - cross-lane independence: over the 32 disjoint adjacent-lane pairs
     (2j, 2j+1) — the pairs a shifted bit-plane would correlate —
     agreement of the two masks is Bernoulli(sum p_i^2) under
     independence; tested exactly as a binomial. *)

let lanes_full = 0xFFFFFFFF

(* Per-lane masks of one batch: seed the 64 streams with the very trial
   seeds the sweep engine would use, play one sliced round with every
   lane live, read each lane's set out of the state matrix. *)
let lanes_step_masks ~tag ~batches n make_inst =
  let salt0 = Simkit.Seeds.salt_of_tag tag in
  Array.init batches (fun b ->
      let seeds =
        Array.init Dstruct.Lanemat.lanes (fun j ->
            Simkit.Seeds.trial_seed ~master ~salt:(salt0 + (b * 64) + j))
      in
      let gen = Prng.Lanes.create seeds in
      let inst = make_inst gen in
      inst.Cobra.Lanes.step ~live_lo:lanes_full ~live_hi:lanes_full;
      let m = inst.Cobra.Lanes.state () in
      Array.init Dstruct.Lanemat.lanes (fun lane ->
          mask_of_pred n (fun v -> Dstruct.Lanemat.mem m v ~lane)))

let check_lane_fixture ~tag ~batches ~dist n make_inst =
  let lanes = Dstruct.Lanemat.lanes in
  let dist = List.filter (fun (_, p) -> p > 0.0) dist in
  let cells = Array.of_list dist in
  let k = Array.length cells in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i (m, _) -> Hashtbl.replace index m i) cells;
  let counts = Array.make_matrix lanes k 0 in
  Array.iter
    (fun masks ->
      Array.iteri
        (fun lane m ->
          match Hashtbl.find_opt index m with
          | Some i -> counts.(lane).(i) <- counts.(lane).(i) + 1
          | None ->
            Alcotest.failf "%s: lane %d produced %s, which has probability 0" tag
              lane (describe_mask m))
        masks)
    (lanes_step_masks ~tag ~batches n make_inst);
  (* Shared pooling structure (expected counts are identical across
     lanes): cells whose per-lane expectation is below 5 merge into the
     smallest adequate cell, keeping the partition exhaustive. *)
  let exp1 = Array.map (fun (_, p) -> float_of_int batches *. p) cells in
  let kept = List.filter (fun i -> exp1.(i) >= 5.0) (List.init k Fun.id) in
  let sparse = List.filter (fun i -> exp1.(i) < 5.0) (List.init k Fun.id) in
  if List.length kept < 2 then
    Alcotest.failf "%s: fewer than two adequate cells" tag;
  let sink =
    List.fold_left (fun a i -> if exp1.(i) < exp1.(a) then i else a)
      (List.hd kept) kept
  in
  let pool_counts obs =
    List.map
      (fun i ->
        if i = sink then List.fold_left (fun a j -> a + obs.(j)) obs.(i) sparse
        else obs.(i))
      kept
  in
  let pooled_exp =
    List.map
      (fun i ->
        if i = sink then List.fold_left (fun a j -> a +. exp1.(j)) exp1.(i) sparse
        else exp1.(i))
      kept
  in
  let kcells = List.length kept in
  (* (1) stacked per-lane chi-square. *)
  let observed =
    Array.concat
      (List.init lanes (fun lane -> Array.of_list (pool_counts counts.(lane))))
  in
  let expected =
    Array.concat (List.init lanes (fun _ -> Array.of_list pooled_exp))
  in
  check_gof (tag ^ "/per-lane")
    (Gof.pearson_chi2 ~alpha ~df:(lanes * (kcells - 1)) ~observed ~expected ());
  (* (2) pooled marginal across all lanes. *)
  let totals =
    Array.init k (fun i ->
        Array.fold_left (fun a row -> a + row.(i)) 0 counts)
  in
  check_gof (tag ^ "/marginal")
    (Gof.pearson_chi2 ~alpha
       ~observed:(Array.of_list (pool_counts totals))
       ~expected:
         (Array.of_list (List.map (fun e -> e *. float_of_int lanes) pooled_exp))
       ());
  (* (3) adjacent-lane agreement vs Binomial(sum p^2). Recount from the
     per-batch masks: disjoint pairs, independent across batches. *)
  let p_agree = Array.fold_left (fun a (_, p) -> a +. (p *. p)) 0.0 cells in
  let successes = ref 0 in
  Array.iter
    (fun masks ->
      for j = 0 to (lanes / 2) - 1 do
        if masks.(2 * j) = masks.((2 * j) + 1) then incr successes
      done)
    (lanes_step_masks ~tag ~batches n make_inst);
  check_gof (tag ^ "/independence")
    (Gof.binomial_test ~alpha ~successes:!successes
       ~trials:(batches * (lanes / 2))
       ~p:p_agree ())

let lane_params = Cobra.Kernel.default_params

let test_lanes_bips_k4 () =
  let branching = Branching.Fixed 2 in
  let params = { lane_params with Cobra.Kernel.branching; start = 0 } in
  check_lane_fixture ~tag:"lanes/bips/k4-k2" ~batches:1500
    ~dist:(Exact.bips_step_dist k4 ~branching ~source:0 ~infected:[ 0 ])
    4
    (fun gen -> Cobra.Lanes.bips.Cobra.Lanes.create (v k4) params gen)

let test_lanes_bips_c5 () =
  let branching = Branching.One_plus 0.5 in
  let params = { lane_params with Cobra.Kernel.branching; start = 0 } in
  check_lane_fixture ~tag:"lanes/bips/c5-1+0.5" ~batches:1500
    ~dist:(Exact.bips_step_dist c5 ~branching ~source:0 ~infected:[ 0 ])
    5
    (fun gen -> Cobra.Lanes.bips.Cobra.Lanes.create (v c5) params gen)

let test_lanes_sis_q3 () =
  let contacts = Branching.Fixed 1 and recovery = 0.3 in
  let params =
    { lane_params with Cobra.Kernel.branching = contacts; start = 0; recovery }
  in
  check_lane_fixture ~tag:"lanes/sis/q3" ~batches:1500
    ~dist:(Exact.sis_step_dist q3 ~contacts ~recovery ~persistent:None ~infected:[ 0 ])
    8
    (fun gen -> Epidemic.Lanes.sis.Cobra.Lanes.create (v q3) params gen)

let test_lanes_cobra_c5 () =
  let branching = Branching.Fixed 2 in
  let params = { lane_params with Cobra.Kernel.branching; start = 0 } in
  check_lane_fixture ~tag:"lanes/cobra/c5-k2" ~batches:1500
    ~dist:(Exact.cobra_step_dist c5 ~branching ~active:[ 0 ])
    5
    (fun gen -> Cobra.Lanes.cobra.Cobra.Lanes.create (v c5) params gen)

(* ---------- seir ---------- *)

let exposed_mask p n =
  mask_of_pred n (fun u -> Seir.status p u = Seir.Exposed)

let test_seir_step_k4 () =
  let contacts = Branching.Fixed 1 in
  check_set_dist ~tag:"seir/step/k4" ~trials:6000
    ~dist:
      (Exact.seir_step_dist k4 ~contacts ~infectious:[ 0 ]
         ~susceptible:[ 1; 2; 3 ])
    (fun rng ->
      let p =
        Seir.create (v k4)
          { Seir.contacts; latent_rounds = 2; infectious_rounds = 1 }
          ~index_cases:[ 0 ]
      in
      Seir.step p rng;
      exposed_mask p 4)

let test_seir_occupancy_q3 () =
  (* Per-vertex exposure marginals after one round from vertex 0: only
     its three Q3 neighbours can be exposed, so the five distance->=2
     vertices exercise the zero-probability guard and the neighbours get
     one exact binomial each (3 accept verdicts). *)
  let contacts = Branching.One_plus 0.5 and trials = 6000 in
  let dist =
    Exact.seir_step_dist q3 ~contacts ~infectious:[ 0 ]
      ~susceptible:[ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let exact =
    Array.init 8 (fun u ->
        List.fold_left
          (fun a (m, p) -> if m land (1 lsl u) <> 0 then a +. p else a)
          0.0 dist)
  in
  let samples =
    Conformance.samples ~master ~tag:"seir/occupancy/q3" ~trials (fun rng ->
        let p =
          Seir.create (v q3)
            { Seir.contacts; latent_rounds = 1; infectious_rounds = 2 }
            ~index_cases:[ 0 ]
        in
        Seir.step p rng;
        exposed_mask p 8)
  in
  check_occupancy "seir/occupancy/q3" ~trials ~exact samples

let test_seir_attack_c5 () =
  (* Full-chain conformance: the attack count (vertices ever infected at
     absorption) against the sparse mixed-radix evolution. *)
  let contacts = Branching.Fixed 1
  and latent_rounds = 1
  and infectious_rounds = 1 in
  let attack =
    Exact.seir_attack_dist c5 ~contacts ~latent_rounds ~infectious_rounds
      ~start:[ 0 ]
  in
  let dist =
    List.filter
      (fun (_, p) -> p > 0.0)
      (Array.to_list (Array.mapi (fun k p -> (k, p)) attack))
  in
  let params =
    { Cobra.Kernel.default_params with
      branching = contacts; latent_rounds; infectious_rounds }
  in
  check_scalar_dist ~tag:"seir/attack/c5" ~trials:6000 ~dist (fun rng ->
      let o = Cobra.Kernel.run Epidemic.Kernels.seir (v c5) params rng in
      int_of_float (Option.get (Cobra.Kernel.observation o "ever")))

let test_seir_extinction_q3 () =
  (* Attack-rate survival in time: P(absorbed within 4 rounds) from the
     exact extinction series. *)
  let contacts = Branching.Fixed 1
  and latent_rounds = 1
  and infectious_rounds = 1
  and t = 4
  and trials = 6000 in
  let series =
    Exact.seir_extinct_series q3 ~contacts ~latent_rounds ~infectious_rounds
      ~start:[ 0 ] ~t_max:t
  in
  let outcomes =
    Conformance.samples ~master ~tag:"seir/extinction/q3" ~trials (fun rng ->
        let p =
          Seir.create (v q3)
            { Seir.contacts; latent_rounds; infectious_rounds }
            ~index_cases:[ 0 ]
        in
        for _ = 1 to t do
          Seir.step p rng
        done;
        Seir.is_absorbed p)
  in
  let successes =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcomes
  in
  check_gof "seir/extinction/q3"
    (Gof.binomial_test ~alpha ~successes ~trials ~p:series.(t) ())

(* The satellite guarantee behind the whole suite: the documented tally
   of accept-demanding verdicts must stay within the Bonferroni divisor,
   and alpha must actually be derived from it. *)
let test_verdict_budget () =
  Alcotest.(check bool)
    "verdict tally within the Bonferroni bound" true
    (family_verdicts <= family_size);
  Alcotest.(check bool)
    "alpha is family_alpha / family_size" true
    (alpha = family_alpha /. float_of_int family_size)

(* ---------- mutation sensitivity ---------- *)

let test_mutation_sensitivity () =
  (* Sample a perturbed kernel (One_plus 0.4) against the exact oracle
     for One_plus 0.6 — same support, different probabilities — and
     demand a Reject even at this suite's tiny per-test alpha. If this
     test ever fails, the suite has lost the power to see a 0.2 shift in
     the expected branching factor and its PASSes mean nothing. *)
  let dist = Exact.cobra_step_dist k4 ~branching:(Branching.One_plus 0.6) ~active:[ 0 ] in
  let r =
    Conformance.check ~alpha ~master ~tag:"mutation/one-plus" ~trials:6000 ~dist
      ~equal:Int.equal ~describe:describe_mask
      ~sample:(fun rng ->
        let p = Process.create (v k4) ~branching:(Branching.One_plus 0.4) ~start:[ 0 ] in
        Process.step p rng;
        frontier_mask p)
      ()
  in
  Alcotest.(check bool)
    "perturbed kernel is rejected" true
    (r.Gof.verdict = Gof.Reject)

(* Mutation tests for the rumour/walk newcomers: sample the TRUE kernel
   and demand a Reject against a perturbed event probability — same
   support as the truth, so the failure mode is a clean Reject rather
   than an out-of-support abort. Each guards one kernel's power. *)

let demand_reject name r =
  Alcotest.(check bool) (name ^ " is rejected") true (r.Gof.verdict = Gof.Reject)

let binomial_mutation ~tag ~p_wrong sample =
  let trials = 6000 in
  let outcomes = Conformance.samples ~master ~tag ~trials sample in
  let successes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcomes in
  demand_reject tag (Gof.binomial_test ~alpha ~successes ~trials ~p:p_wrong ())

let test_mutation_coalesce () =
  (* True merge probability of two adjacent K4 clusters is 2/9. *)
  binomial_mutation ~tag:"mutation/coalesce" ~p_wrong:0.5 (fun rng ->
      let p = Coalesce.create (v k4) ~walkers:2 ~start:0 in
      Coalesce.step p rng;
      Coalesce.is_consensus p)

let test_mutation_explore () =
  (* The unvisited-edge walk cannot backtrack on its second K4 step, so
     P(position = 1 at t = 2) is 1/3; the plain walk's value is 2/9. *)
  binomial_mutation ~tag:"mutation/explore" ~p_wrong:(2.0 /. 9.0) (fun rng ->
      explore_position ~steps:2 k4 rng = 1)

let test_mutation_pull () =
  (* True P(nobody joins in one K4 pull round) = (2/3)^3 = 8/27. *)
  binomial_mutation ~tag:"mutation/pull" ~p_wrong:0.5 (fun rng ->
      kernel_informed ~rounds:1 Cobra.Kernel.pull k4 rng = 1)

let test_mutation_seir_latency () =
  (* Sample the TRUE latent-1 kernel on K4 and test its
     extinction-by-round-3 indicator against the exact probability for
     latent 2 — same {absorbed, not absorbed} support. With one
     infectious round, latency 2 makes absorption by round 3 possible
     only if the index case infects nobody (8/27), while latency 1 also
     absorbs whenever the first infection wave dies in its single
     infectious round, a gap far beyond the binomial noise at 6000
     trials. A miss here means the suite cannot see a one-round latency
     shift and its SEIR PASSes mean nothing. *)
  let contacts = Branching.Fixed 1 in
  let p_wrong =
    (Exact.seir_extinct_series k4 ~contacts ~latent_rounds:2
       ~infectious_rounds:1 ~start:[ 0 ] ~t_max:3).(3)
  in
  binomial_mutation ~tag:"mutation/seir-latency" ~p_wrong (fun rng ->
      let p =
        Seir.create (v k4)
          { Seir.contacts; latent_rounds = 1; infectious_rounds = 1 }
          ~index_cases:[ 0 ]
      in
      for _ = 1 to 3 do
        Seir.step p rng
      done;
      Seir.is_absorbed p)

let test_mutation_push_pull () =
  (* True P(exactly one K4 vertex joins in one push-pull round) = 4/9. *)
  binomial_mutation ~tag:"mutation/push-pull" ~p_wrong:0.25 (fun rng ->
      kernel_informed ~rounds:1 Cobra.Kernel.push_pull k4 rng = 2)

(* ---------- runner ---------- *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "conformance"
    [
      ( "cobra",
        [
          t "one step on C5, k=2" test_cobra_step_c5;
          t "one step on the prism, 1+0.5" test_cobra_step_prism;
          t "one step on K4, distinct 2" test_cobra_step_distinct;
          t "occupancy marginals on Q3 at t=3" test_cobra_occupancy_q3;
        ] );
      ( "bips",
        [
          t "one step on the prism, 1+0.5" test_bips_step_prism;
          t "two steps on K4, k=2" test_bips_two_step_k4;
          t "occupancy marginals on the prism at t=2" test_bips_occupancy_prism;
        ] );
      ( "rwalk",
        [ t "3 steps on C5" test_rwalk_c5; t "2 steps on Q3 (parity)" test_rwalk_q3 ] );
      ("push", [ t "rounds on K4" test_push_k4; t "rounds on C5" test_push_c5 ]);
      ( "pull",
        [
          t "one round on the prism" test_pull_step_prism;
          t "two rounds on Q3" test_pull_two_step_q3;
          t "rounds on K4" test_pull_rounds_k4;
        ] );
      ( "push-pull",
        [
          t "one round on K4" test_push_pull_step_k4;
          t "one round on the prism" test_push_pull_step_prism;
          t "rounds on C5" test_push_pull_rounds_c5;
        ] );
      ( "coalesce",
        [
          t "one step on K4, two clusters" test_coalesce_step_k4;
          t "cluster count on Q3 at t=2" test_coalesce_clusters_q3;
          t "consensus probability on K4" test_coalesce_consensus_k4;
        ] );
      ( "explore",
        [
          t "position on K4 at t=3" test_explore_position_k4;
          t "position on Q3 at t=4 (parity)" test_explore_position_q3;
          t "rounds to cover on the prism" test_explore_rounds_prism;
        ] );
      ( "sis",
        [
          t "one round on the prism" test_sis_step_prism;
          t "one round on K4 with a persistent source" test_sis_step_persistent_k4;
          t "extinction probability on C5" test_sis_extinction_c5;
        ] );
      ( "q10",
        [
          t "cobra step, multi-word frontier" test_cobra_step_q10;
          t "bips step, binomial in-degree" test_bips_step_q10;
          t "push two rounds, triangle-free collisions" test_push_two_rounds_q10;
          t "sis round, convolution count" test_sis_step_q10;
        ] );
      ( "contact",
        [
          t "full-exposure probability on K4" test_contact_k4;
          t "full-exposure probability on C5" test_contact_c5;
        ] );
      ( "herd",
        [
          t "one round on K4" test_herd_k4;
          t "one round on the prism, two index cases" test_herd_prism;
        ] );
      ( "seir",
        [
          t "one round on K4 (newly exposed)" test_seir_step_k4;
          t "exposure marginals on Q3" test_seir_occupancy_q3;
          t "attack-count distribution on C5" test_seir_attack_c5;
          t "extinction probability on Q3 at t=4" test_seir_extinction_q3;
          t "verdict tally stays within the Bonferroni bound" test_verdict_budget;
        ] );
      ( "dist",
        [
          t "categorical" test_dist_categorical;
          t "binomial" test_dist_binomial;
          t "geometric" test_dist_geometric;
          t "poisson" test_dist_poisson;
          t "normal (KS)" test_dist_normal_ks;
          t "exponential (KS)" test_dist_exponential_ks;
        ] );
      ( "sample",
        [
          t "with_replacement" test_sample_with_replacement;
          t "without_replacement" test_sample_without_replacement;
          t "shuffle" test_sample_shuffle;
          t "alias" test_sample_alias;
        ] );
      ( "lanes",
        [
          t "bips on K4, k=2 (per-lane, marginal, independence)" test_lanes_bips_k4;
          t "bips on C5, 1+0.5" test_lanes_bips_c5;
          t "sis on Q3, recovery 0.3" test_lanes_sis_q3;
          t "cobra on C5, k=2" test_lanes_cobra_c5;
        ] );
      ( "mutation",
        [
          t "perturbed branching is rejected" test_mutation_sensitivity;
          t "perturbed coalesce merge probability is rejected" test_mutation_coalesce;
          t "plain-walk probability is rejected for explore" test_mutation_explore;
          t "perturbed pull stall probability is rejected" test_mutation_pull;
          t "pull-only probability is rejected for push-pull" test_mutation_push_pull;
          t "wrong latency is rejected for seir" test_mutation_seir_latency;
        ] );
    ]
