(* Tests for the epidemic library: the SIS contact process (and its exact
   degeneration to BIPS), and the BVDV-style herd model. *)

module Sis = Epidemic.Sis
module Herd = Epidemic.Herd
module B = Cobra.Branching
module K = Cobra.Kernel
(* Every epidemic simulator consumes Graph.View; of_csr is a free wrap. *)
module GenC = Graph.Gen

module Gen = struct
  let v = Graph.View.of_csr
  let complete n = v (GenC.complete n)
  let cycle n = v (GenC.cycle n)
  let path n = v (GenC.path n)
  let star n = v (GenC.star n)
  let random_regular rng ~n ~r = v (GenC.random_regular rng ~n ~r)
end
module Rng = Prng.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let k2_params recovery = { Sis.contacts = B.cobra_k2; recovery }

(* The [Epidemic.Kernels.sis] kernel with k = 2 contacts from vertex
   [start], a persistent source when [persistent]. *)
let sis_run ?cap g ~recovery ~persistent ~start rng =
  K.run Epidemic.Kernels.sis g
    { K.default_params with K.recovery; persistent; start; cap }
    rng

let extinct o = K.observation o "extinct" = Some 1.0

(* ---------- SIS ---------- *)

let test_sis_initial () =
  let g = Gen.cycle 10 in
  let p = Sis.create g (k2_params 0.5) ~persistent:None ~start:[ 3; 4 ] in
  check Alcotest.int "infected" 2 (Sis.infected_count p);
  check Alcotest.int "ever" 2 (Sis.ever_infected_count p);
  check Alcotest.int "round" 0 (Sis.round p);
  check Alcotest.bool "not extinct" false (Sis.is_extinct p)

let test_sis_validation () =
  let g = Gen.cycle 10 in
  Alcotest.check_raises "nobody infected" (Invalid_argument "Sis.create: nobody infected")
    (fun () -> ignore (Sis.create g (k2_params 0.5) ~persistent:None ~start:[]));
  Alcotest.check_raises "recovery range"
    (Invalid_argument "Sis.create: recovery outside [0, 1]") (fun () ->
      ignore (Sis.create g (k2_params 1.5) ~persistent:None ~start:[ 0 ]))

let test_sis_no_recovery_saturates () =
  (* recovery = 0: infection is monotone, so it must reach everyone. *)
  let g = Gen.complete 20 in
  let rng = Rng.create 1 in
  let o = sis_run g ~recovery:0.0 ~persistent:false ~start:0 rng in
  check Alcotest.bool "saturates" true (o.K.completed && not (extinct o));
  check Alcotest.bool "fast" true (o.K.rounds < 100)

let test_sis_subcritical_dies () =
  (* A single infected leaf of a star with full recovery and no
     persistent source: the centre catches the infection only if one of
     its two uniform contacts is that leaf (~2/(n-1)), so extinction
     within a round or two dominates. *)
  let g = Gen.star 30 in
  let rng = Rng.create 2 in
  let extinct_runs = ref 0 in
  for _ = 1 to 20 do
    let o = sis_run ~cap:5000 g ~recovery:1.0 ~persistent:false ~start:5 rng in
    if extinct o then incr extinct_runs
  done;
  check Alcotest.bool "most runs go extinct" true (!extinct_runs >= 14)

let test_sis_persistent_never_extinct () =
  let g = Gen.cycle 20 in
  let rng = Rng.create 3 in
  let p = Sis.create g (k2_params 0.9) ~persistent:(Some 5) ~start:[] in
  for _ = 1 to 200 do
    Sis.step p rng;
    check Alcotest.bool "never extinct" false (Sis.is_extinct p)
  done

(* The key embedding: recovery = 1.0 + persistent source IS the BIPS
   process. Compare full-exposure time distributions statistically. *)
let test_sis_recovery1_is_bips () =
  let rng = Rng.create 4 in
  let g = Gen.random_regular rng ~n:150 ~r:3 in
  let trials = 60 in
  let sis_mean =
    let s = Stats.Summary.create () in
    for _ = 1 to trials do
      let o = sis_run g ~recovery:1.0 ~persistent:true ~start:0 rng in
      if o.K.completed && not (extinct o) then Stats.Summary.add_int s o.K.rounds
      else Alcotest.fail "sis censored/extinct"
    done;
    Stats.Summary.mean s
  in
  let bips_mean =
    let s = Stats.Summary.create () in
    for _ = 1 to trials do
      (* ever-infected-once time for BIPS: track first time each vertex
         infected — equivalently run until saturation is too strong;
         measure the cover analogue via trajectory of ever-infected.
         Simpler: BIPS saturation time is when A_t = V; SIS full
         exposure is when every vertex has been infected at least once,
         which is earlier. Compare SIS's *saturation-free* metric to the
         BIPS ever-infected metric computed manually. *)
      let p = Cobra.Bips.create g ~branching:B.cobra_k2 ~source:0 in
      let seen = Array.make 150 false in
      seen.(0) <- true;
      let count = ref 1 and rounds = ref 0 in
      while !count < 150 && !rounds < 100_000 do
        Cobra.Bips.step p rng;
        incr rounds;
        Array.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              incr count
            end)
          (Cobra.Bips.infected_set p)
      done;
      Stats.Summary.add_int s !rounds
    done;
    Stats.Summary.mean s
  in
  (* Same process, so means should agree within a few percent. *)
  let rel = Float.abs (sis_mean -. bips_mean) /. bips_mean in
  if rel > 0.25 then
    Alcotest.failf "SIS(recovery=1,persistent) vs BIPS exposure: %.2f vs %.2f" sis_mean
      bips_mean

let test_sis_trajectory () =
  let g = Gen.complete 12 in
  let rng = Rng.create 5 in
  let tr = Sis.prevalence_trajectory g (k2_params 0.2) ~persistent:(Some 0) ~start:[] rng in
  check Alcotest.int "starts at 1" 1 tr.(0);
  Array.iter (fun c -> if c < 1 || c > 12 then Alcotest.fail "count out of range") tr

let sis_persistent_always_counted_prop =
  QCheck.Test.make ~name:"persistent source infected every round" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:20 ~r:3 in
      let p = Sis.create g (k2_params 0.8) ~persistent:(Some 7) ~start:[] in
      let ok = ref true in
      for _ = 1 to 25 do
        Sis.step p rng;
        ok := !ok && Sis.infected_count p >= 1
      done;
      !ok)

(* ---------- Herd ---------- *)

let herd_params =
  { Herd.contacts = B.cobra_k2; infectious_rounds = 2; immune_rounds = 3 }

let test_herd_initial () =
  let g = Gen.complete 10 in
  let h = Herd.create g herd_params ~pi:[ 0 ] ~index_cases:[ 1 ] in
  check Alcotest.bool "pi status" true (Herd.status h 0 = Herd.Persistent);
  check Alcotest.bool "index status" true (Herd.status h 1 = Herd.Transient);
  check Alcotest.bool "other susceptible" true (Herd.status h 2 = Herd.Susceptible);
  check Alcotest.int "infectious" 2 (Herd.infectious_count h);
  check Alcotest.int "ever" 2 (Herd.ever_exposed_count h);
  check Alcotest.int "count Persistent" 1 (Herd.count h Herd.Persistent)

let test_herd_validation () =
  let g = Gen.complete 10 in
  Alcotest.check_raises "nobody" (Invalid_argument "Herd.create: nobody infected")
    (fun () -> ignore (Herd.create g herd_params ~pi:[] ~index_cases:[]));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Herd.create: infectious_rounds >= 1") (fun () ->
      ignore
        (Herd.create g
           { herd_params with Herd.infectious_rounds = 0 }
           ~pi:[ 0 ] ~index_cases:[]))

let test_herd_transient_state_machine () =
  (* A lone transient case on an edgeless-contact structure: use a path
     and track the index case's own timeline deterministically as far as
     status transitions go. With infectious_rounds=2, immune_rounds=3 it
     is Transient for rounds 1-2, Immune for 3 more, then Susceptible. *)
  let g = Gen.path 2 in
  (* Put the index at 0; vertex 1 may or may not catch it, but vertex 0's
     own timeline is deterministic unless reinfected, which requires 1 to
     be infectious. We pick the rng and check only until first possible
     reinfection: rounds 1 and 2. *)
  let h = Herd.create g { herd_params with Herd.immune_rounds = 3 } ~pi:[] ~index_cases:[ 0 ] in
  let rng = Rng.create 6 in
  Herd.step h rng;
  check Alcotest.bool "still transient after 1" true (Herd.status h 0 = Herd.Transient);
  Herd.step h rng;
  check Alcotest.bool "immune after infectious period" true (Herd.status h 0 = Herd.Immune)

let test_herd_pi_exposes_clique () =
  let g = Gen.complete 15 in
  let rng = Rng.create 7 in
  let o =
    K.run Epidemic.Kernels.herd g
      { K.default_params with K.immune_rounds = 3; persistent = true }
      rng
  in
  check Alcotest.(option (float 0.0)) "PI in a clique must expose everyone" (Some 15.0)
    (K.observation o "ever");
  check Alcotest.bool "plausible time" true (o.K.rounds >= 1)

let test_herd_extinction_without_pi () =
  (* A transient index case at a leaf of a star: the centre contacts two
     uniform leaves per round, so it catches the one infectious leaf with
     probability ~2/(n-1) before the leaf recovers — extinction is the
     overwhelmingly likely outcome. *)
  let g = Gen.star 30 in
  let rng = Rng.create 8 in
  let params =
    { K.default_params with
      K.infectious_rounds = 1; immune_rounds = 5; start = 5; cap = Some 20_000 }
  in
  let extinct = ref 0 in
  for _ = 1 to 20 do
    let o = K.run Epidemic.Kernels.herd g params rng in
    (* Died out with some animal never exposed. *)
    if o.K.completed && K.observation o "ever" <> Some 30.0 then incr extinct
  done;
  check Alcotest.bool "mostly extinct" true (!extinct >= 14)

let test_herd_counts_consistent () =
  let g = Gen.complete 20 in
  let rng = Rng.create 9 in
  let h = Herd.create g herd_params ~pi:[ 0 ] ~index_cases:[ 1; 2 ] in
  for _ = 1 to 50 do
    Herd.step h rng;
    let s = Herd.count h Herd.Susceptible
    and t = Herd.count h Herd.Transient
    and i = Herd.count h Herd.Immune
    and p = Herd.count h Herd.Persistent in
    check Alcotest.int "states partition" 20 (s + t + i + p);
    check Alcotest.int "infectious = transient + persistent" (t + p)
      (Herd.infectious_count h);
    check Alcotest.int "one PI forever" 1 p
  done

let herd_exposure_monotone_prop =
  QCheck.Test.make ~name:"ever-exposed is monotone" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.random_regular rng ~n:24 ~r:3 in
      let h = Herd.create g herd_params ~pi:[ 0 ] ~index_cases:[] in
      let ok = ref true in
      let prev = ref (Herd.ever_exposed_count h) in
      for _ = 1 to 60 do
        Herd.step h rng;
        ok := !ok && Herd.ever_exposed_count h >= !prev;
        prev := Herd.ever_exposed_count h
      done;
      !ok)

(* ---------- Contact process ---------- *)

module Contact = Epidemic.Contact

let test_contact_rate_zero_dies () =
  (* No transmission: the single seed recovers and the process dies. *)
  let g = Gen.complete 10 in
  let rng = Rng.create 40 in
  let r = Contact.run g ~infection_rate:0.0 ~persistent:None ~start:[ 0 ] rng in
  (match r.Contact.outcome with
  | Contact.Died_out t -> check Alcotest.bool "positive time" true (t > 0.0)
  | _ -> Alcotest.fail "should die out");
  check Alcotest.int "only the seed ever infected" 1 r.Contact.ever_infected

let test_contact_persistent_never_dies () =
  let g = Gen.cycle 20 in
  let rng = Rng.create 41 in
  for _ = 1 to 10 do
    let r =
      Contact.run ~horizon:20.0 g ~infection_rate:0.05 ~persistent:(Some 3) ~start:[] rng
    in
    match r.Contact.outcome with
    | Contact.Died_out _ -> Alcotest.fail "persistent source cannot die out"
    | Contact.Fully_exposed _ | Contact.Still_active _ -> ()
  done

let test_contact_high_rate_exposes_clique () =
  let g = Gen.complete 30 in
  let rng = Rng.create 42 in
  let r = Contact.run ~horizon:1000.0 g ~infection_rate:5.0 ~persistent:(Some 0) ~start:[] rng in
  match r.Contact.outcome with
  | Contact.Fully_exposed t -> check Alcotest.bool "fast" true (t < 100.0)
  | _ -> Alcotest.fail "K_30 at rate 5 with persistent source must fully expose"

let test_contact_validation () =
  let g = Gen.cycle 5 in
  let rng = Rng.create 43 in
  Alcotest.check_raises "negative rate" (Invalid_argument "Contact.run: infection_rate >= 0")
    (fun () -> ignore (Contact.run g ~infection_rate:(-1.0) ~persistent:None ~start:[ 0 ] rng));
  Alcotest.check_raises "nobody" (Invalid_argument "Contact.run: nobody infected")
    (fun () -> ignore (Contact.run g ~infection_rate:1.0 ~persistent:None ~start:[] rng))

let test_contact_survival_monotone_in_rate () =
  (* Survival probability at a fixed horizon increases with the rate —
     checked with a wide margin across the phase transition. *)
  let rng = Rng.create 44 in
  let g = Gen.random_regular rng ~n:256 ~r:4 in
  let surv rate =
    let s, t =
      Contact.survival_probability ~horizon:50.0 ~trials:40 g ~infection_rate:rate
        ~start:[ 0 ] rng
    in
    Float.of_int s /. Float.of_int t
  in
  let low = surv 0.05 and high = surv 1.5 in
  check Alcotest.bool "subcritical mostly dies" true (low < 0.2);
  check Alcotest.bool "supercritical mostly survives" true (high > 0.5)

let test_contact_event_counts () =
  let g = Gen.cycle 10 in
  let rng = Rng.create 45 in
  let r = Contact.run ~horizon:5.0 g ~infection_rate:0.5 ~persistent:(Some 0) ~start:[] rng in
  check Alcotest.bool "processed events" true (r.Contact.events > 0)

let () =
  Alcotest.run "epidemic"
    [
      ( "sis",
        [
          Alcotest.test_case "initial" `Quick test_sis_initial;
          Alcotest.test_case "validation" `Quick test_sis_validation;
          Alcotest.test_case "no recovery saturates" `Quick test_sis_no_recovery_saturates;
          Alcotest.test_case "subcritical dies" `Quick test_sis_subcritical_dies;
          Alcotest.test_case "persistent never extinct" `Quick test_sis_persistent_never_extinct;
          Alcotest.test_case "recovery=1 + source = BIPS" `Quick test_sis_recovery1_is_bips;
          Alcotest.test_case "trajectory" `Quick test_sis_trajectory;
          qtest sis_persistent_always_counted_prop;
        ] );
      ( "contact",
        [
          Alcotest.test_case "rate 0 dies" `Quick test_contact_rate_zero_dies;
          Alcotest.test_case "persistent never dies" `Quick test_contact_persistent_never_dies;
          Alcotest.test_case "high rate exposes clique" `Quick test_contact_high_rate_exposes_clique;
          Alcotest.test_case "validation" `Quick test_contact_validation;
          Alcotest.test_case "phase monotonicity" `Quick test_contact_survival_monotone_in_rate;
          Alcotest.test_case "event accounting" `Quick test_contact_event_counts;
        ] );
      ( "herd",
        [
          Alcotest.test_case "initial" `Quick test_herd_initial;
          Alcotest.test_case "validation" `Quick test_herd_validation;
          Alcotest.test_case "state machine" `Quick test_herd_transient_state_machine;
          Alcotest.test_case "PI exposes clique" `Quick test_herd_pi_exposes_clique;
          Alcotest.test_case "extinct without PI" `Quick test_herd_extinction_without_pi;
          Alcotest.test_case "counts consistent" `Quick test_herd_counts_consistent;
          qtest herd_exposure_monotone_prop;
        ] );
    ]
