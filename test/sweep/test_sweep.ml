(* Tests for the sweep subsystem: the Cobra.Kernel instances must keep
   consuming the RNG streams of the historical one-shot drivers (recorded
   rows and frozen reference loops pin them), grids must parse
   identically from JSON and inline forms, and checkpointed campaigns
   must resume to byte-identical artifacts. *)

module K = Cobra.Kernel
module B = Cobra.Branching
(* Kernels consume Graph.View; the bench-local reference loops below
   read the heap CSR back out of the view (free). *)
module GenC = Graph.Gen

module Gen = struct
  let v = Graph.View.of_csr
  let complete n = v (GenC.complete n)
  let cycle n = v (GenC.cycle n)
  let hypercube d = v (GenC.hypercube d)
  let ring_of_cliques ~cliques ~clique_size = v (GenC.ring_of_cliques ~cliques ~clique_size)
  let random_regular rng ~n ~r = v (GenC.random_regular rng ~n ~r)
end
module Rng = Prng.Rng
module Json = Simkit.Json

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ---------- kernel/one-shot stream equivalence ----------

   Each kernel on the graph, params and seeds (1 .. 5, or 1 .. 8 for the
   epidemics) on which it used to be checked against its historical
   one-shot driver. The kernels are now the only implementations; the
   values below were recorded at the last revision that still had the
   drivers, where kernel and driver agreed draw for draw. The contact
   kernel is still checked against [Contact.run], the event-driven
   simulation it wraps. *)

let p0 = K.default_params

let per_seed n f = Array.init n (fun i -> f (Rng.create (i + 1)))

(* [kernel] completion times on seeds 1 .. 5. *)
let completion_times kernel g params = per_seed 5 (K.completion_time kernel g params)

(* Named observables of an outcome, as ints. *)
let ints keys o = List.map (fun key -> int_of_float (Option.get (K.observation o key))) keys

(* [ints keys] of each run of [kernel] on seeds 1 .. [n]. *)
let observations n kernel g params keys =
  Array.map (ints keys) (per_seed n (K.run kernel g params))

let check_times = check Alcotest.(array (option int))
let check_rows = check Alcotest.(array (list int))

let test_cobra_stream () =
  check_times "cover times" [| Some 14; Some 17; Some 16; Some 13; Some 15 |]
    (completion_times K.cobra (Gen.cycle 16) p0)

let test_bips_stream () =
  check_times "infection times" [| Some 4; Some 5; Some 4; Some 5; Some 6 |]
    (completion_times K.bips (Gen.complete 12) p0)

let test_rwalk_stream () =
  check_times "walk cover times" [| Some 63; Some 69; Some 20; Some 30; Some 13 |]
    (completion_times K.rwalk (Gen.cycle 10) p0)

let test_rwalk_multi_stream () =
  check_times "multi-walk cover times" [| Some 52; Some 16; Some 22; Some 35; Some 14 |]
    (completion_times K.rwalk (Gen.cycle 12) { p0 with K.walkers = 3 })

(* Rumour rows: [rounds; transmissions], every run informing everyone. *)
let rumour = [ "rounds"; "transmissions" ]

let test_push_stream () =
  check_rows "push" [| [ 7; 45 ]; [ 7; 49 ]; [ 6; 35 ]; [ 6; 39 ]; [ 7; 45 ] |]
    (observations 5 K.push (Gen.complete 15) p0 rumour)

let test_pull_stream () =
  check_rows "pull" [| [ 5; 44 ]; [ 9; 91 ]; [ 6; 55 ]; [ 7; 65 ]; [ 7; 75 ] |]
    (observations 5 K.pull (Gen.complete 15) p0 rumour)

let test_push_pull_stream () =
  check_rows "push-pull"
    [| [ 9; 126 ]; [ 11; 154 ]; [ 9; 126 ]; [ 10; 140 ]; [ 8; 112 ] |]
    (observations 5 K.push_pull (Gen.cycle 14) p0 rumour)

let test_coalesce_stream () =
  (* Non-bipartite so consensus is reachable: synchronous clusters in
     different colour classes of a bipartite graph can never meet. *)
  check_times "consensus times" [| Some 21; Some 17; Some 10; Some 29; Some 9 |]
    (completion_times K.coalesce (Gen.complete 12) { p0 with K.walkers = 4 })

let test_explore_stream () =
  check_times "explore cover times" [| Some 15; Some 15; Some 15; Some 15; Some 15 |]
    (completion_times K.explore (Gen.cycle 16) p0)

let test_sis_stream () =
  (* [rounds; extinct; ever]: extinction or full exposure, whichever came
     first. *)
  check_rows "sis"
    [| [ 4; 0; 10 ]; [ 3; 0; 10 ]; [ 2; 1; 2 ]; [ 3; 0; 10 ]; [ 5; 0; 10 ];
       [ 5; 0; 10 ]; [ 3; 0; 10 ]; [ 5; 0; 10 ] |]
    (observations 8 Epidemic.Kernels.sis (Gen.complete 10) { p0 with K.recovery = 0.4 }
       [ "rounds"; "extinct"; "ever" ])

let test_contact_stream () =
  let g = Gen.complete 8 in
  let params = { p0 with K.rate = 1.5; horizon = 50.0 } in
  for seed = 1 to 8 do
    let o = K.run Epidemic.Kernels.contact g params (Rng.create seed) in
    let e =
      Epidemic.Contact.run ~horizon:50.0 g ~infection_rate:1.5 ~persistent:None
        ~start:[ 0 ] (Rng.create seed)
    in
    let code, time =
      match e.Epidemic.Contact.outcome with
      | Epidemic.Contact.Died_out t -> (0.0, t)
      | Epidemic.Contact.Fully_exposed t -> (1.0, t)
      | Epidemic.Contact.Still_active t -> (2.0, t)
    in
    check (Alcotest.option (Alcotest.float 0.0)) "outcome" (Some code)
      (K.observation o "outcome");
    check (Alcotest.option (Alcotest.float 1e-12)) "time" (Some time)
      (K.observation o "time");
    check (Alcotest.option (Alcotest.float 0.0)) "events"
      (Some (float_of_int e.Epidemic.Contact.events))
      (K.observation o "events")
  done

(* Regression: contact's single event-driven run used to leave [rounds]
   pinned at 1 with [is_complete] false on a [Still_active] outcome, so
   any caller-supplied cap > 1 (reachable from a sweep grid's [cap] key,
   which applies to every kernel) spun [K.run]'s loop forever. The
   kernel now counts step invocations, so the loop reaches the cap and
   reports the run as censored. *)
let test_contact_cap_terminates () =
  let g = Gen.complete 8 in
  (* Persistent source (can't die out), tiny rate and horizon: the run
     ends [Still_active] for this seed. *)
  let params =
    { p0 with K.rate = 0.01; horizon = 0.001; persistent = true; cap = Some 50 }
  in
  let o = K.run Epidemic.Kernels.contact g params (Rng.create 1) in
  check Alcotest.bool "censored, not complete" false o.K.completed;
  check Alcotest.int "rounds hit the cap" 50 o.K.rounds;
  check (Alcotest.option (Alcotest.float 0.0)) "still-active outcome" (Some 2.0)
    (K.observation o "outcome")

let test_herd_stream () =
  (* [rounds; ever; extinct]: full exposure or extinction. *)
  let g = Gen.ring_of_cliques ~cliques:3 ~clique_size:5 in
  let rows persistent =
    observations 8 Epidemic.Kernels.herd g { p0 with K.persistent }
      [ "rounds"; "ever"; "extinct" ]
  in
  check_rows "transient index case"
    [| [ 7; 10; 1 ]; [ 6; 10; 1 ]; [ 5; 10; 1 ]; [ 8; 15; 0 ]; [ 9; 10; 1 ];
       [ 8; 15; 0 ]; [ 6; 10; 1 ]; [ 6; 15; 0 ] |]
    (rows false);
  check_rows "PI animal"
    [| [ 6; 15; 0 ]; [ 13; 15; 0 ]; [ 18; 15; 0 ]; [ 8; 15; 0 ]; [ 7; 15; 0 ];
       [ 5; 15; 0 ]; [ 11; 15; 0 ]; [ 6; 15; 0 ] |]
    (rows true)

let test_seir_stream () =
  (* [rounds; ever; peak] and the generational R, every run absorbed. *)
  let g = Gen.ring_of_cliques ~cliques:3 ~clique_size:5 in
  let params = { p0 with K.latent_rounds = 2; infectious_rounds = 2 } in
  let runs = per_seed 8 (K.run Epidemic.Kernels.seir g params) in
  check_rows "seir"
    [| [ 8; 5; 3 ]; [ 9; 5; 3 ]; [ 19; 15; 4 ]; [ 24; 15; 4 ]; [ 9; 5; 2 ];
       [ 8; 5; 2 ]; [ 8; 5; 3 ]; [ 13; 15; 5 ] |]
    (Array.map (ints [ "rounds"; "ever"; "peak" ]) runs);
  check
    Alcotest.(array (float 0.0))
    "generational R"
    [| 1.6666666666666667; 2.0; 1.8666666666666665; 1.4880952380952384; 1.5; 1.5;
       1.6666666666666667; 2.3500000000000001 |]
    (Array.map (fun o -> Option.get (K.observation o "gen_r")) runs)

let test_registry_covers_all () =
  check Alcotest.(list string) "kernel names"
    [ "cobra"; "bips"; "rwalk"; "push"; "pull"; "push-pull"; "coalesce";
      "explore"; "sis"; "contact"; "herd"; "seir" ]
    (Sweep.Kernels.names ());
  List.iter
    (fun name ->
      match Sweep.Kernels.find name with
      | Some k -> check Alcotest.string "find returns the named kernel" name k.K.name
      | None -> Alcotest.fail ("kernel not found: " ^ name))
    (Sweep.Kernels.names ())

(* Unknown kernel names must fail with the full menu — the error is the
   registry's, so the grid parser and any future caller agree on it. *)
let test_find_res_unknown_lists_names () =
  (match Sweep.Kernels.find_res "cobra" with
  | Ok k -> check Alcotest.string "Ok on known name" "cobra" k.K.name
  | Error msg -> Alcotest.fail msg);
  (match Sweep.Kernels.find_res "nonesuch" with
  | Ok _ -> Alcotest.fail "expected Error for unknown kernel"
  | Error msg ->
    check Alcotest.bool ("names the bad kernel: " ^ msg) true
      (contains msg "nonesuch");
    List.iter
      (fun name ->
        check Alcotest.bool ("menu lists " ^ name) true (contains msg name))
      (Sweep.Kernels.names ()));
  (* The grid parser surfaces the same listing. *)
  match Sweep.Grid.of_inline "graphs=cycle:8;kernels=nonesuch" with
  | Ok _ -> Alcotest.fail "expected grid parse error"
  | Error msg ->
    List.iter
      (fun name ->
        check Alcotest.bool ("grid error lists " ^ name) true (contains msg name))
      [ "pull"; "push-pull"; "coalesce"; "explore" ]

(* ---------- word-scan stream identity ----------

   The word-parallel bitset rewrite promises to consume bit-for-bit the
   RNG streams of the pre-rewrite kernels. Each reference function below
   is a frozen copy of the pre-rewrite inner loop (bit-by-bit membership
   scans over 0..n-1, checked accessors). The live kernel and the
   reference run on independently created equal-seed streams; outcomes
   must match AND the two streams must sit at the same position
   afterwards (16 post-run draws compared), so a kernel that draws the
   same answer from a different number of draws still fails. *)

module Bitset = Dstruct.Bitset

let same_tail msg a b =
  for i = 1 to 16 do
    check Alcotest.int (Printf.sprintf "%s: post-run draw %d" msg i) (Rng.bits a)
      (Rng.bits b)
  done

(* Pre-rewrite push protocol loop: full 0..n-1 scan with per-vertex
   membership tests. *)
let push_reference ?cap g ~start rng =
  let g = Graph.View.to_csr g in
  let n = Graph.Csr.n_vertices g in
  let cap = match cap with Some c -> c | None -> 10_000 + (100 * n) in
  let informed = Bitset.create n in
  Bitset.add informed start;
  let count = ref 1 and rounds = ref 0 and transmissions = ref 0 in
  while !count < n && !rounds < cap do
    let newly = ref [] in
    for u = 0 to n - 1 do
      if Bitset.mem informed u then begin
        incr transmissions;
        let w = Graph.Csr.random_neighbour g rng u in
        if not (Bitset.mem informed w) then newly := w :: !newly
      end
    done;
    List.iter
      (fun w ->
        if not (Bitset.mem informed w) then begin
          Bitset.add informed w;
          incr count
        end)
      !newly;
    incr rounds
  done;
  if !count = n then Some (!rounds, !transmissions) else None

(* Pre-rewrite Sis.step loop, checked bitset operations throughout. *)
let sis_reference ?cap g ~contacts ~recovery ~persistent ~start rng =
  let n = Graph.View.n_vertices g in
  let cap = match cap with Some c -> c | None -> 10_000 + (100 * n) in
  let infected = Bitset.create n and ever = Bitset.create n in
  let seed_list = match persistent with Some v -> v :: start | None -> start in
  List.iter
    (fun v ->
      Bitset.add infected v;
      Bitset.add ever v)
    seed_list;
  let next = Bitset.create n in
  let infected = ref infected and next = ref next in
  let count = ref (Bitset.cardinal !infected) in
  let ever_count = ref !count in
  let round = ref 0 in
  while !count > 0 && !ever_count < n && !round < cap do
    Bitset.clear !next;
    let c = ref 0 in
    let infect u =
      Bitset.add !next u;
      incr c;
      if not (Bitset.mem ever u) then begin
        Bitset.add ever u;
        incr ever_count
      end
    in
    for u = 0 to n - 1 do
      if persistent = Some u then infect u
      else begin
        let stays = Bitset.mem !infected u && not (Rng.bernoulli rng recovery) in
        if stays then infect u
        else begin
          let hit = ref false in
          let chk w = if Bitset.mem !infected w then hit := true in
          ignore (B.iter_picks contacts rng g u ~f:chk);
          if !hit then infect u
        end
      end
    done;
    let old = !infected in
    infected := !next;
    next := old;
    count := !c;
    incr round
  done;
  (!round, !count, !ever_count)

(* Pre-rewrite Bips.step loop. *)
let bips_reference ?cap g ~branching ~source rng =
  let n = Graph.View.n_vertices g in
  let cap = match cap with Some c -> c | None -> 10_000 + (100 * n) in
  let infected = ref (Bitset.create n) and next = ref (Bitset.create n) in
  Bitset.add !infected source;
  let count = ref 1 and round = ref 0 in
  while !count < n && !round < cap do
    Bitset.clear !next;
    let c = ref 0 in
    for u = 0 to n - 1 do
      if u = source then begin
        Bitset.add !next u;
        incr c
      end
      else begin
        let hit = ref false in
        let chk w = if Bitset.mem !infected w then hit := true in
        ignore (B.iter_picks branching rng g u ~f:chk);
        if !hit then begin
          Bitset.add !next u;
          incr c
        end
      end
    done;
    let old = !infected in
    infected := !next;
    next := old;
    count := !c;
    incr round
  done;
  if !count = n then Some !round else None

let identity_graphs () =
  [
    ("cycle-33", Gen.cycle 33);
    ("q6", Gen.hypercube 6);
    ( "rr3-65",
      Gen.random_regular (Simkit.Seeds.tagged_rng ~master:7 ~tag:"ident:g")
        ~n:65 ~r:4 );
  ]

let test_push_stream_identity () =
  List.iter
    (fun (name, g) ->
      for seed = 1 to 4 do
        let ra = Rng.create seed and rb = Rng.create seed in
        let o = K.run K.push g p0 ra in
        let live =
          if o.K.completed then
            Some (o.K.rounds, int_of_float (Option.get (K.observation o "transmissions")))
          else None
        in
        let reference = push_reference g ~start:0 rb in
        check
          Alcotest.(option (pair int int))
          (name ^ ": push outcome") reference live;
        same_tail (name ^ ": push") ra rb
      done)
    (identity_graphs ())

let test_sis_stream_identity () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun persistent ->
          for seed = 1 to 4 do
            let ra = Rng.create seed and rb = Rng.create seed in
            let params =
              { p0 with K.recovery = 0.5; persistent = persistent <> None }
            in
            let start = if persistent = None then [ 0 ] else [] in
            let o = K.run Epidemic.Kernels.sis g params ra in
            let rounds, count, ever =
              sis_reference g ~contacts:B.cobra_k2 ~recovery:0.5 ~persistent ~start rb
            in
            check
              Alcotest.(list int)
              (name ^ ": rounds, infected, ever") [ rounds; count; ever ]
              (ints [ "rounds"; "infected"; "ever" ] o);
            same_tail (name ^ ": sis") ra rb
          done)
        [ None; Some 0 ])
    (identity_graphs ())

let test_bips_stream_identity () =
  List.iter
    (fun (name, g) ->
      for seed = 1 to 4 do
        let ra = Rng.create seed and rb = Rng.create seed in
        let live = K.completion_time K.bips g p0 ra in
        let reference = bips_reference g ~branching:B.cobra_k2 ~source:0 rb in
        check Alcotest.(option int) (name ^ ": bips outcome") reference live;
        same_tail (name ^ ": bips") ra rb
      done)
    (identity_graphs ())

(* COBRA to cover on the bare Process.create/step, without the kernel. *)
let cobra_reference ?cap g ~branching ~start rng =
  let n = Graph.View.n_vertices g in
  let cap = match cap with Some c -> c | None -> 10_000 + (100 * n) in
  let p = Cobra.Process.create g ~branching ~start:[ start ] in
  while (not (Cobra.Process.is_covered p)) && Cobra.Process.round p < cap do
    Cobra.Process.step p rng
  done;
  if Cobra.Process.is_covered p then Some (Cobra.Process.round p) else None

(* Process.step's frontier bookkeeping (hybrid member-wise/word-fill
   clear) must not touch the stream: cover through the kernel, then
   compare positions against an independent equal-seed stream advanced
   by the reference loop. *)
let test_cobra_stream_identity () =
  List.iter
    (fun (name, g) ->
      for seed = 1 to 4 do
        let ra = Rng.create seed and rb = Rng.create seed in
        let cover = K.completion_time K.cobra g p0 ra in
        let reference = cobra_reference g ~branching:B.cobra_k2 ~start:0 rb in
        check Alcotest.(option int) (name ^ ": cover") reference cover;
        same_tail (name ^ ": cobra") ra rb
      done)
    (identity_graphs ())

(* ---------- grid parsing ---------- *)

let addresses grid =
  List.map (fun c -> c.Simkit.Campaign.address) (Sweep.Grid.cells grid)

let test_grid_inline_json_agree () =
  let inline =
    "name=demo;graphs=cycle:12,complete:8;kernels=cobra,sis;branching=k=2,k=3;\
     trials=4;recovery=0.25"
  in
  let json =
    {|{"schema": "cobra.sweep-grid/1", "name": "demo",
       "graphs": ["cycle:12", "complete:8"], "kernels": ["cobra", "sis"],
       "branching": ["k=2", "k=3"], "trials": 4,
       "params": {"recovery": 0.25}}|}
  in
  match (Sweep.Grid.of_inline inline, Json.of_string json) with
  | Ok gi, Ok doc -> (
    match Sweep.Grid.of_json doc with
    | Ok gj ->
      check Alcotest.string "name" gi.Sweep.Grid.name gj.Sweep.Grid.name;
      check Alcotest.int "trials" gi.Sweep.Grid.trials gj.Sweep.Grid.trials;
      check (Alcotest.float 0.0) "recovery" gi.Sweep.Grid.base.K.recovery
        gj.Sweep.Grid.base.K.recovery;
      check Alcotest.(list string) "same cells" (addresses gi) (addresses gj);
      check Alcotest.int "cell count" 8 (List.length (addresses gi))
    | Error msg -> Alcotest.fail ("json grid: " ^ msg))
  | Error msg, _ -> Alcotest.fail ("inline grid: " ^ msg)
  | _, Error msg -> Alcotest.fail ("json parse: " ^ msg)

let test_grid_errors () =
  let fails s =
    match Sweep.Grid.of_inline s with
    | Ok _ -> Alcotest.fail ("expected a parse error: " ^ s)
    | Error _ -> ()
  in
  fails "kernels=cobra";                           (* no graphs *)
  fails "graphs=cycle:8";                          (* no kernels *)
  fails "graphs=cycle:8;kernels=nonesuch";         (* unknown kernel *)
  fails "graphs=cycle:8;kernels=cobra;trials=0";   (* trials < 1 *)
  fails "graphs=cycle:8;kernels=cobra;bogus=1";    (* unknown key *)
  fails "graphs=not-a-graph;kernels=cobra"         (* bad graph spec *)

let test_grid_addresses_unique () =
  match
    Sweep.Grid.of_inline
      "graphs=cycle:8,cycle:9,complete:5;kernels=cobra,bips,push;branching=k=2,k=3"
  with
  | Error msg -> Alcotest.fail msg
  | Ok grid ->
    let addrs = addresses grid in
    check Alcotest.int "18 cells" 18 (List.length addrs);
    check Alcotest.int "unique addresses" 18
      (List.length (List.sort_uniq compare addrs));
    List.iteri
      (fun i c -> check Alcotest.int "positional index" i c.Simkit.Campaign.index)
      (Sweep.Grid.cells grid)

(* A typo'd --grid file path must fail as a missing file, not fall
   through to the inline parser's "expected key=value" errors. *)
let test_load_missing_file () =
  let expect_missing s =
    match Sweep.Grid.load s with
    | Ok _ -> Alcotest.fail ("expected a missing-file error: " ^ s)
    | Error msg ->
      check Alcotest.bool ("mentions no such file: " ^ msg) true
        (contains msg "no such file")
  in
  expect_missing "/nonexistent/sweep.json";
  expect_missing "sweep.jsonn";
  (* Inline strings still load when they are not paths. *)
  match Sweep.Grid.load "graphs=cycle:8;kernels=cobra" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("inline via load: " ^ msg)

let test_cell_payload_deterministic () =
  match Sweep.Grid.of_inline "graphs=cycle:12;kernels=cobra,sis;trials=3" with
  | Error msg -> Alcotest.fail msg
  | Ok grid ->
    List.iter
      (fun c ->
        let salt = Simkit.Campaign.salt_of_address c.Simkit.Campaign.address in
        let a = Json.to_string (c.Simkit.Campaign.run ~master:7 ~salt) in
        let b = Json.to_string (c.Simkit.Campaign.run ~master:7 ~salt) in
        check Alcotest.string "payload is pure in (master, salt)" a b;
        let other = Json.to_string (c.Simkit.Campaign.run ~master:8 ~salt) in
        check Alcotest.bool "payload depends on master" true (a <> other))
      (Sweep.Grid.cells grid)

(* ---------- lane engine ----------

   The bit-sliced engine promises: [`Scalar] through [run_trials] is
   draw-for-draw the historical per-trial loop; [`Lanes] returns one
   outcome per trial in trial order for every remainder mod 64, is
   deterministic in (master, salt0), agrees with scalar at full-batch
   granularity prefixes (batch 0 of trials=65 IS the trials=64 run),
   falls back to scalar for unsliced kernels/params, and matches scalar
   summary statistics within Monte-Carlo tolerance. *)

let outcome_t =
  Alcotest.testable
    (fun fmt o ->
      Format.fprintf fmt "{completed=%b; rounds=%d; %s}" o.K.completed o.K.rounds
        (String.concat "; "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) o.K.observations)))
    ( = )

let outcomes_t = Alcotest.list outcome_t

let lanes_kernels =
  [
    ("cobra", K.cobra, p0);
    ("bips", K.bips, p0);
    ("push", K.push, p0);
    ("sis", Epidemic.Kernels.sis, { p0 with K.recovery = 0.4 });
    ("sis-persistent", Epidemic.Kernels.sis,
     { p0 with K.recovery = 0.4; persistent = true });
    ("bips-1+rho", K.bips, { p0 with K.branching = B.one_plus 0.5 });
  ]

let test_run_trials_scalar_is_the_loop () =
  let g = Gen.hypercube 4 in
  List.iter
    (fun (name, k, params) ->
      let got =
        Sweep.Kernels.run_trials ~engine:`Scalar k g params ~trials:5 ~master:7
          ~salt0:12_345
      in
      let want =
        Array.init 5 (fun i ->
            K.run k g params (Simkit.Seeds.trial_rng ~master:7 ~salt:(12_345 + i)))
      in
      check outcomes_t (name ^ ": scalar run_trials = historical loop")
        (Array.to_list want) (Array.to_list got))
    lanes_kernels

(* A cell with no trials is legal on both engines (the trial runner
   itself rejects trials < 1, so the scalar engine must not reach it). *)
let test_run_trials_zero () =
  let g = Gen.hypercube 4 in
  List.iter
    (fun engine ->
      List.iter
        (fun (name, k, params) ->
          check outcomes_t
            (Printf.sprintf "%s %s: trials=0" name (Sweep.Kernels.engine_to_string engine))
            []
            (Array.to_list
               (Sweep.Kernels.run_trials ~engine k g params ~trials:0 ~master:7 ~salt0:0)))
        lanes_kernels)
    [ `Scalar; `Lanes ]

let test_lanes_remainders_and_determinism () =
  let g = Gen.hypercube 4 in
  List.iter
    (fun (name, k, params) ->
      check Alcotest.bool (name ^ ": lanes-capable") true
        (Sweep.Kernels.lanes_capable k params);
      List.iter
        (fun trials ->
          let run () =
            Sweep.Kernels.run_trials ~engine:`Lanes k g params ~trials ~master:11
              ~salt0:777
          in
          let a = run () in
          check Alcotest.int
            (Printf.sprintf "%s: %d trials -> %d outcomes" name trials trials)
            trials (Array.length a);
          check outcomes_t
            (Printf.sprintf "%s: trials=%d deterministic" name trials)
            (Array.to_list a)
            (Array.to_list (run ())))
        [ 1; 63; 64; 65; 130 ])
    lanes_kernels

(* Full batches are identical across trial counts: lanes of batch b
   couple only through shared rejection rounds and skip decisions, both
   functions of the batch's own live mask, so batch 0 of a 65- or
   130-trial run replays the 64-trial run exactly. (No such promise for
   partial batches: a short live mask changes the skip decisions.) *)
let test_lanes_batch_prefix_identity () =
  let g = Gen.hypercube 4 in
  List.iter
    (fun (name, k, params) ->
      let at trials =
        Sweep.Kernels.run_trials ~engine:`Lanes k g params ~trials ~master:11
          ~salt0:777
      in
      let base = Array.to_list (at 64) in
      List.iter
        (fun trials ->
          let long = at trials in
          check outcomes_t
            (Printf.sprintf "%s: first 64 of trials=%d = trials=64" name trials)
            base
            (Array.to_list (Array.sub long 0 64)))
        [ 65; 130 ])
    lanes_kernels

let test_lanes_fallback_is_scalar () =
  let g = Gen.hypercube 4 in
  (* rwalk has no sliced stepper; Distinct branching has no sliced
     pick. Both must silently run the scalar loop. *)
  List.iter
    (fun (name, k, params) ->
      check Alcotest.bool (name ^ ": not lanes-capable") false
        (Sweep.Kernels.lanes_capable k params);
      let under engine =
        Sweep.Kernels.run_trials ~engine k g params ~trials:7 ~master:5 ~salt0:50
      in
      check outcomes_t (name ^ ": lanes falls back to scalar draws")
        (Array.to_list (under `Scalar))
        (Array.to_list (under `Lanes)))
    [
      ("rwalk", K.rwalk, p0);
      ("pull", K.pull, p0);
      ("push-pull", K.push_pull, p0);
      ("coalesce", K.coalesce, { p0 with K.walkers = 4 });
      ("explore", K.explore, p0);
      ("bips-distinct", K.bips, { p0 with K.branching = B.distinct 2 });
      ("sis-distinct", Epidemic.Kernels.sis,
       { p0 with K.recovery = 0.4; branching = B.distinct 2 });
      ("seir", Epidemic.Kernels.seir,
       { p0 with K.latent_rounds = 2; infectious_rounds = 2 });
    ]

(* Scalar and lanes draw the same per-trial distribution, so with 192
   common-random-number trials each the mean rounds must agree within a
   few standard errors. Deterministic in the fixed seeds. *)
let test_lanes_summary_matches_scalar () =
  let g = Gen.hypercube 5 in
  List.iter
    (fun (name, k, params) ->
      let trials = 192 in
      let rounds engine =
        let out =
          Sweep.Kernels.run_trials ~engine k g params ~trials ~master:3 ~salt0:9_000
        in
        Array.map (fun o -> float_of_int o.K.rounds) out
      in
      let stats a =
        let n = float_of_int (Array.length a) in
        let mean = Array.fold_left ( +. ) 0.0 a /. n in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a
          /. (n -. 1.0)
        in
        (mean, var /. n)
      in
      let ms, vs = stats (rounds `Scalar) in
      let ml, vl = stats (rounds `Lanes) in
      let bound = (5.0 *. sqrt (vs +. vl)) +. 1e-9 in
      check Alcotest.bool
        (Printf.sprintf "%s: |%.3f - %.3f| <= %.3f" name ms ml bound)
        true
        (Float.abs (ms -. ml) <= bound))
    lanes_kernels

let test_grid_engine_parse () =
  let engine_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> Sweep.Kernels.engine_to_string g.Sweep.Grid.engine
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.string "inline default" "scalar"
    (engine_of "graphs=cycle:8;kernels=bips");
  check Alcotest.string "inline engine=lanes" "lanes"
    (engine_of "graphs=cycle:8;kernels=bips;engine=lanes");
  (match Sweep.Grid.of_inline "graphs=cycle:8;kernels=bips;engine=warp" with
  | Ok _ -> Alcotest.fail "expected unknown-engine error"
  | Error msg ->
    check Alcotest.bool ("mentions engine: " ^ msg) true (contains msg "engine"));
  match
    Json.of_string
      {|{"graphs": ["cycle:8"], "kernels": ["bips"], "engine": "lanes"}|}
  with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    match Sweep.Grid.of_json doc with
    | Ok g ->
      check Alcotest.string "json engine=lanes" "lanes"
        (Sweep.Kernels.engine_to_string g.Sweep.Grid.engine)
    | Error msg -> Alcotest.fail ("json grid: " ^ msg))

(* ---------- campaign resume equivalence (end to end) ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sweep_test_%d_%d" (Unix.getpid ()) !counter)
    in
    dir

let run_campaign ~dir ~domains ~resume ?max_cells ?cache cells =
  Simkit.Campaign.run
    { Simkit.Campaign.dir; master = 9; resume; max_cells; domains = Some domains;
      cache; progress = ignore }
    ~name:"equiv" ~cells

let test_resume_byte_identical () =
  List.iter
    (fun domains ->
      match
        Sweep.Grid.of_inline
          "name=equiv;graphs=cycle:12,complete:8;kernels=cobra,bips,sis;trials=3"
      with
      | Error msg -> Alcotest.fail msg
      | Ok grid -> (
        let cells = Sweep.Grid.cells grid in
        let dir_a = fresh_dir () and dir_b = fresh_dir () in
        (* A: uninterrupted.  B: killed after 2 cells, then resumed. *)
        (match run_campaign ~dir:dir_a ~domains ~resume:false cells with
        | Ok r -> check Alcotest.int "A complete" 0 r.Simkit.Campaign.remaining
        | Error msg -> Alcotest.fail msg);
        (match run_campaign ~dir:dir_b ~domains ~resume:false ~max_cells:2 cells with
        | Ok r ->
          check Alcotest.int "B interrupted with cells left" 4
            r.Simkit.Campaign.remaining
        | Error msg -> Alcotest.fail msg);
        match run_campaign ~dir:dir_b ~domains ~resume:true cells with
        | Error msg -> Alcotest.fail msg
        | Ok r ->
          check Alcotest.int "B resumed to completion" 0 r.Simkit.Campaign.remaining;
          check Alcotest.int "B reused the checkpointed cells" 2
            r.Simkit.Campaign.reused;
          check Alcotest.string "manifest byte-identical"
            (read_file (Filename.concat dir_a "manifest.json"))
            (read_file (Filename.concat dir_b "manifest.json"));
          List.iter
            (fun c ->
              let f =
                Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index
              in
              check Alcotest.string ("cell byte-identical: " ^ f)
                (read_file (Filename.concat dir_a f))
                (read_file (Filename.concat dir_b f)))
            cells))
    [ 1; 2 ]

(* The four newcomer kernels ride the same campaign machinery: an
   interrupted campaign over them resumes to byte-identical artifacts,
   and the artifacts are byte-identical across worker-domain counts. *)
let test_new_kernels_resume_byte_identical () =
  match
    Sweep.Grid.of_inline
      "name=equiv;graphs=cycle:15,complete:8;\
       kernels=pull,push-pull,coalesce,explore;walkers=3;trials=3"
  with
  | Error msg -> Alcotest.fail msg
  | Ok grid -> (
    let cells = Sweep.Grid.cells grid in
    let dir_a = fresh_dir () and dir_b = fresh_dir () and dir_c = fresh_dir () in
    (* A: uninterrupted, 1 domain.  B: killed after 2 cells, resumed.
       C: uninterrupted, 2 domains. *)
    (match run_campaign ~dir:dir_a ~domains:1 ~resume:false cells with
    | Ok r -> check Alcotest.int "A complete" 0 r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    (match run_campaign ~dir:dir_b ~domains:1 ~resume:false ~max_cells:2 cells with
    | Ok r ->
      check Alcotest.int "B interrupted with cells left" 6
        r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    (match run_campaign ~dir:dir_c ~domains:2 ~resume:false cells with
    | Ok r -> check Alcotest.int "C complete" 0 r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    match run_campaign ~dir:dir_b ~domains:1 ~resume:true cells with
    | Error msg -> Alcotest.fail msg
    | Ok r ->
      check Alcotest.int "B resumed to completion" 0 r.Simkit.Campaign.remaining;
      check Alcotest.int "B reused the checkpointed cells" 2
        r.Simkit.Campaign.reused;
      let compare_dirs tag other =
        check Alcotest.string (tag ^ ": manifest byte-identical")
          (read_file (Filename.concat dir_a "manifest.json"))
          (read_file (Filename.concat other "manifest.json"));
        List.iter
          (fun c ->
            let f =
              Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index
            in
            check Alcotest.string (tag ^ ": cell byte-identical: " ^ f)
              (read_file (Filename.concat dir_a f))
              (read_file (Filename.concat other f)))
          cells
      in
      compare_dirs "resume" dir_b;
      compare_dirs "domains=2" dir_c)

(* The SEIR kernel on preferential-attachment graphs rides the same
   machinery: kernel=seir / graph=ba:... sweep cells (with the new
   latent_rounds grid key in the cell identity) checkpoint, resume to
   byte-identical artifacts, and agree byte-for-byte across
   worker-domain counts 1 and 2. *)
let test_seir_ba_resume_byte_identical () =
  match
    Sweep.Grid.of_inline
      "name=equiv;graphs=ba:24x2,ba:24x2x0.5;kernels=seir,sis;\
       latent_rounds=2;trials=3"
  with
  | Error msg -> Alcotest.fail msg
  | Ok grid -> (
    let cells = Sweep.Grid.cells grid in
    check Alcotest.int "grid spans both graphs and kernels" 4 (List.length cells);
    let dir_a = fresh_dir () and dir_b = fresh_dir () and dir_c = fresh_dir () in
    (* A: uninterrupted, 1 domain.  B: killed after 2 cells, resumed.
       C: uninterrupted, 2 domains. *)
    (match run_campaign ~dir:dir_a ~domains:1 ~resume:false cells with
    | Ok r -> check Alcotest.int "A complete" 0 r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    (match run_campaign ~dir:dir_b ~domains:1 ~resume:false ~max_cells:2 cells with
    | Ok r ->
      check Alcotest.int "B interrupted with cells left" 2
        r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    (match run_campaign ~dir:dir_c ~domains:2 ~resume:false cells with
    | Ok r -> check Alcotest.int "C complete" 0 r.Simkit.Campaign.remaining
    | Error msg -> Alcotest.fail msg);
    match run_campaign ~dir:dir_b ~domains:1 ~resume:true cells with
    | Error msg -> Alcotest.fail msg
    | Ok r ->
      check Alcotest.int "B resumed to completion" 0 r.Simkit.Campaign.remaining;
      check Alcotest.int "B reused the checkpointed cells" 2
        r.Simkit.Campaign.reused;
      let compare_dirs tag other =
        check Alcotest.string (tag ^ ": manifest byte-identical")
          (read_file (Filename.concat dir_a "manifest.json"))
          (read_file (Filename.concat other "manifest.json"));
        List.iter
          (fun c ->
            let f =
              Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index
            in
            check Alcotest.string (tag ^ ": cell byte-identical: " ^ f)
              (read_file (Filename.concat dir_a f))
              (read_file (Filename.concat other f)))
          cells
      in
      compare_dirs "resume" dir_b;
      compare_dirs "domains=2" dir_c)

(* The content-addressed result cache: a second campaign over the same
   grid (fresh directory, shared store) must complete without running a
   single cell, and its artifacts must be byte-identical to the
   computed ones. A grid differing in trials must miss every entry. *)
let test_cache_second_campaign_all_hits () =
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let base = "name=equiv;graphs=cycle:12,complete:8;kernels=cobra,sis" in
  let cells = Sweep.Grid.cells (grid_of (base ^ ";trials=3")) in
  let cache = fresh_dir () in
  let store = Simkit.Cellstore.open_ ~dir:cache in
  let dir_a = fresh_dir () and dir_b = fresh_dir () and dir_c = fresh_dir () in
  (match run_campaign ~dir:dir_a ~domains:1 ~resume:false ~cache:store cells with
  | Ok r ->
    check Alcotest.int "first run computes all cells" 4 r.Simkit.Campaign.ran;
    check Alcotest.int "first run has no hits" 0 r.Simkit.Campaign.cached
  | Error msg -> Alcotest.fail msg);
  (match run_campaign ~dir:dir_b ~domains:2 ~resume:false ~cache:store cells with
  | Ok r ->
    check Alcotest.int "second run computes nothing" 0 r.Simkit.Campaign.ran;
    check Alcotest.int "second run is 100% cache hits" 4 r.Simkit.Campaign.cached;
    check Alcotest.int "second run completes" 0 r.Simkit.Campaign.remaining
  | Error msg -> Alcotest.fail msg);
  check Alcotest.string "cached campaign manifest byte-identical"
    (read_file (Filename.concat dir_a "manifest.json"))
    (read_file (Filename.concat dir_b "manifest.json"));
  List.iter
    (fun c ->
      let f = Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index in
      check Alcotest.string ("cached cell byte-identical: " ^ f)
        (read_file (Filename.concat dir_a f))
        (read_file (Filename.concat dir_b f)))
    cells;
  (* Changing trials changes the meta digest: every lookup must miss. *)
  let cells4 = Sweep.Grid.cells (grid_of (base ^ ";trials=4")) in
  match run_campaign ~dir:dir_c ~domains:1 ~resume:false ~cache:store cells4 with
  | Ok r ->
    check Alcotest.int "different trials recompute" 4 r.Simkit.Campaign.ran;
    check Alcotest.int "no false hits across trial counts" 0
      r.Simkit.Campaign.cached
  | Error msg -> Alcotest.fail msg

(* Regression: the campaign identity must cover trials and base
   parameters, which cell addresses alone don't encode — resuming after
   changing them must refuse, not silently reuse stale checkpoints. *)
let test_resume_refuses_changed_params () =
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let base = "name=equiv;graphs=cycle:8;kernels=cobra,sis" in
  List.iter
    (fun changed ->
      let dir = fresh_dir () in
      (match
         run_campaign ~dir ~domains:1 ~resume:false
           (Sweep.Grid.cells (grid_of (base ^ ";trials=3")))
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      match
        run_campaign ~dir ~domains:1 ~resume:true
          (Sweep.Grid.cells (grid_of (base ^ changed)))
      with
      | Ok _ -> Alcotest.fail ("expected refusal after changing " ^ changed)
      | Error msg ->
        check Alcotest.bool ("refusal explains the mismatch: " ^ msg) true
          (contains msg "different campaign"))
    [ ";trials=4"; ";trials=3;recovery=0.7" ]

(* A lanes campaign (trials=70: one full batch + a remainder, plus
   rwalk's scalar fallback in the mix) must resume mid-campaign to
   byte-identical artifacts, exactly like the scalar one above. *)
let test_lanes_resume_byte_identical () =
  List.iter
    (fun domains ->
      match
        Sweep.Grid.of_inline
          "name=equiv;engine=lanes;graphs=cycle:12,complete:8;\
           kernels=bips,sis,rwalk;trials=70"
      with
      | Error msg -> Alcotest.fail msg
      | Ok grid -> (
        let cells = Sweep.Grid.cells grid in
        let dir_a = fresh_dir () and dir_b = fresh_dir () in
        (match run_campaign ~dir:dir_a ~domains ~resume:false cells with
        | Ok r -> check Alcotest.int "A complete" 0 r.Simkit.Campaign.remaining
        | Error msg -> Alcotest.fail msg);
        (match run_campaign ~dir:dir_b ~domains ~resume:false ~max_cells:2 cells with
        | Ok r ->
          check Alcotest.int "B interrupted with cells left" 4
            r.Simkit.Campaign.remaining
        | Error msg -> Alcotest.fail msg);
        match run_campaign ~dir:dir_b ~domains ~resume:true cells with
        | Error msg -> Alcotest.fail msg
        | Ok r ->
          check Alcotest.int "B resumed to completion" 0 r.Simkit.Campaign.remaining;
          check Alcotest.int "B reused the checkpointed cells" 2
            r.Simkit.Campaign.reused;
          check Alcotest.string "manifest byte-identical"
            (read_file (Filename.concat dir_a "manifest.json"))
            (read_file (Filename.concat dir_b "manifest.json"));
          List.iter
            (fun c ->
              let f =
                Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index
              in
              check Alcotest.string ("cell byte-identical: " ^ f)
                (read_file (Filename.concat dir_a f))
                (read_file (Filename.concat dir_b f)))
            cells))
    [ 1; 2 ]

(* The engine is part of the campaign identity: checkpoints written
   under one engine must refuse to resume under the other, in both
   directions (lanes results are not draw-for-draw scalar results, so
   silent reuse would mix streams). *)
let test_resume_refuses_changed_engine () =
  let base = "name=equiv;graphs=cycle:8;kernels=bips,sis;trials=66" in
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (first, second) ->
      let dir = fresh_dir () in
      (match
         run_campaign ~dir ~domains:1 ~resume:false
           (Sweep.Grid.cells (grid_of (base ^ first)))
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      match
        run_campaign ~dir ~domains:1 ~resume:true
          (Sweep.Grid.cells (grid_of (base ^ second)))
      with
      | Ok _ ->
        Alcotest.fail
          (Printf.sprintf "expected refusal resuming %S under %S" first second)
      | Error msg ->
        check Alcotest.bool ("refusal explains the mismatch: " ^ msg) true
          (contains msg "different campaign"))
    [ (";engine=lanes", ""); ("", ";engine=lanes") ]

(* ---------- topology backends in the campaign identity ---------- *)

let test_grid_backend_parse () =
  let backend_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> Graph.View.backend_to_string g.Sweep.Grid.backend
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.string "inline default" "heap"
    (backend_of "graphs=cycle:8;kernels=bips");
  check Alcotest.string "inline backend=bigarray" "bigarray"
    (backend_of "graphs=cycle:8;kernels=bips;backend=bigarray");
  check Alcotest.string "inline backend=implicit" "implicit"
    (backend_of "graphs=cycle:8;kernels=bips;backend=implicit");
  (match Sweep.Grid.of_inline "graphs=cycle:8;kernels=bips;backend=gpu" with
  | Ok _ -> Alcotest.fail "expected unknown-backend error"
  | Error msg ->
    check Alcotest.bool ("mentions backend: " ^ msg) true (contains msg "backend"));
  match
    Json.of_string
      {|{"graphs": ["cycle:8"], "kernels": ["bips"], "backend": "bigarray"}|}
  with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    match Sweep.Grid.of_json doc with
    | Ok g ->
      check Alcotest.string "json backend=bigarray" "bigarray"
        (Graph.View.backend_to_string g.Sweep.Grid.backend)
    | Error msg -> Alcotest.fail ("json grid: " ^ msg))

(* backend=heap must be the omitted default in the campaign meta: a grid
   that spells it out resumes a campaign recorded without it (this is
   what keeps every pre-backend checkpoint on disk valid). *)
let test_backend_heap_meta_is_omitted () =
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let base = "name=equiv;graphs=cycle:8;kernels=cobra,sis;trials=3" in
  let dir = fresh_dir () in
  (match
     run_campaign ~dir ~domains:1 ~resume:false (Sweep.Grid.cells (grid_of base))
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match
    run_campaign ~dir ~domains:1 ~resume:true
      (Sweep.Grid.cells (grid_of (base ^ ";backend=heap")))
  with
  | Ok r ->
    check Alcotest.int "explicit heap reuses every cell" 2 r.Simkit.Campaign.reused
  | Error msg -> Alcotest.fail ("backend=heap must not change the identity: " ^ msg)

(* A bigarray campaign resumes mid-run to byte-identical artifacts, and
   its cell payloads match the heap campaign's (same RNG streams through
   a different topology representation). The cells as a whole differ —
   by exactly the backend meta key that keeps the identities apart. *)
let test_bigarray_resume_byte_identical () =
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let inline backend =
    "name=equiv;graphs=cycle:12,complete:8;kernels=cobra,bips,sis;trials=3"
    ^ backend
  in
  let cells_big = Sweep.Grid.cells (grid_of (inline ";backend=bigarray")) in
  let cells_heap = Sweep.Grid.cells (grid_of (inline "")) in
  let dir_a = fresh_dir () and dir_b = fresh_dir () and dir_h = fresh_dir () in
  (match run_campaign ~dir:dir_a ~domains:1 ~resume:false cells_big with
  | Ok r -> check Alcotest.int "A complete" 0 r.Simkit.Campaign.remaining
  | Error msg -> Alcotest.fail msg);
  (match run_campaign ~dir:dir_b ~domains:1 ~resume:false ~max_cells:2 cells_big with
  | Ok r ->
    check Alcotest.int "B interrupted with cells left" 4 r.Simkit.Campaign.remaining
  | Error msg -> Alcotest.fail msg);
  (match run_campaign ~dir:dir_b ~domains:1 ~resume:true cells_big with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "B resumed to completion" 0 r.Simkit.Campaign.remaining;
    check Alcotest.int "B reused the checkpointed cells" 2 r.Simkit.Campaign.reused;
    check Alcotest.string "manifest byte-identical"
      (read_file (Filename.concat dir_a "manifest.json"))
      (read_file (Filename.concat dir_b "manifest.json")));
  match run_campaign ~dir:dir_h ~domains:1 ~resume:false cells_heap with
  | Error msg -> Alcotest.fail msg
  | Ok _ ->
    let payload_of dir f =
      match Json.of_string (read_file (Filename.concat dir f)) with
      | Error msg -> Alcotest.fail (f ^ ": " ^ msg)
      | Ok (Json.Obj fields) -> Json.to_string (List.assoc "payload" fields)
      | Ok _ -> Alcotest.fail (f ^ ": cell is not an object")
    in
    List.iter
      (fun c ->
        let f = Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index in
        check Alcotest.string ("payload identical across backends: " ^ f)
          (payload_of dir_h f) (payload_of dir_a f))
      cells_heap

(* Fixed-seed runs of every newcomer kernel are outcome-identical across
   the heap, bigarray, and implicit topology backends: all three views
   honour the ascending-neighbour contract, so the RNG stream — and
   hence every observation — cannot depend on the representation. *)
let test_new_kernels_backend_identity () =
  (* Two implicit-capable families; both non-bipartite (odd cycle) or
     complete, so coalesce reaches consensus rather than its cap. *)
  let specs = [ "complete:12"; "cycle:15" ] in
  let kernels =
    [
      ("pull", K.pull, p0);
      ("push-pull", K.push_pull, p0);
      ("coalesce", K.coalesce, { p0 with K.walkers = 4 });
      ("explore", K.explore, p0);
    ]
  in
  List.iter
    (fun spec_s ->
      let spec =
        match Graph.Spec.parse spec_s with
        | Ok s -> s
        | Error msg -> Alcotest.fail msg
      in
      let view backend =
        match Graph.Spec.build_view spec ~backend (Rng.create 99) with
        | Ok v -> v
        | Error msg -> Alcotest.fail msg
      in
      List.iter
        (fun (name, k, params) ->
          for seed = 1 to 3 do
            let run backend = K.run k (view backend) params (Rng.create seed) in
            let heap = run `Heap in
            check Alcotest.bool
              (Printf.sprintf "%s/%s: completed (seed %d)" spec_s name seed)
              true heap.K.completed;
            List.iter
              (fun (bname, backend) ->
                check outcome_t
                  (Printf.sprintf "%s/%s: heap = %s (seed %d)" spec_s name bname
                     seed)
                  heap (run backend))
              [ ("bigarray", `Bigarray); ("implicit", `Implicit) ]
          done)
        kernels)
    specs

(* The backend is part of the campaign identity: a checkpoint written
   under one backend refuses to resume under another, in both
   directions, even though the payloads would agree — a cross-backend
   divergence must never hide inside reused cells. *)
let test_resume_refuses_changed_backend () =
  let base = "name=equiv;graphs=cycle:8;kernels=bips,sis;trials=3" in
  let grid_of s =
    match Sweep.Grid.of_inline s with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (first, second) ->
      let dir = fresh_dir () in
      (match
         run_campaign ~dir ~domains:1 ~resume:false
           (Sweep.Grid.cells (grid_of (base ^ first)))
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      match
        run_campaign ~dir ~domains:1 ~resume:true
          (Sweep.Grid.cells (grid_of (base ^ second)))
      with
      | Ok _ ->
        Alcotest.fail
          (Printf.sprintf "expected refusal resuming %S under %S" first second)
      | Error msg ->
        check Alcotest.bool ("refusal explains the mismatch: " ^ msg) true
          (contains msg "different campaign"))
    [
      (";backend=bigarray", "");
      ("", ";backend=bigarray");
      (";backend=bigarray", ";backend=implicit");
    ]

let () =
  Alcotest.run "sweep"
    [
      ( "kernel-stream-equivalence",
        [
          Alcotest.test_case "cobra" `Quick test_cobra_stream;
          Alcotest.test_case "bips" `Quick test_bips_stream;
          Alcotest.test_case "rwalk" `Quick test_rwalk_stream;
          Alcotest.test_case "rwalk multi" `Quick test_rwalk_multi_stream;
          Alcotest.test_case "push" `Quick test_push_stream;
          Alcotest.test_case "pull" `Quick test_pull_stream;
          Alcotest.test_case "push-pull" `Quick test_push_pull_stream;
          Alcotest.test_case "coalesce" `Quick test_coalesce_stream;
          Alcotest.test_case "explore" `Quick test_explore_stream;
          Alcotest.test_case "sis" `Quick test_sis_stream;
          Alcotest.test_case "contact" `Quick test_contact_stream;
          Alcotest.test_case "contact cap terminates" `Quick
            test_contact_cap_terminates;
          Alcotest.test_case "herd" `Quick test_herd_stream;
          Alcotest.test_case "seir" `Quick test_seir_stream;
          Alcotest.test_case "registry covers all" `Quick test_registry_covers_all;
          Alcotest.test_case "unknown kernel lists the menu" `Quick
            test_find_res_unknown_lists_names;
        ] );
      ( "word-scan-stream-identity",
        [
          Alcotest.test_case "push vs bit-by-bit reference" `Quick
            test_push_stream_identity;
          Alcotest.test_case "sis vs bit-by-bit reference" `Quick
            test_sis_stream_identity;
          Alcotest.test_case "bips vs bit-by-bit reference" `Quick
            test_bips_stream_identity;
          Alcotest.test_case "cobra trajectory vs cover stream" `Quick
            test_cobra_stream_identity;
        ] );
      ( "grid",
        [
          Alcotest.test_case "inline and json agree" `Quick test_grid_inline_json_agree;
          Alcotest.test_case "parse errors" `Quick test_grid_errors;
          Alcotest.test_case "addresses unique" `Quick test_grid_addresses_unique;
          Alcotest.test_case "load reports missing files" `Quick
            test_load_missing_file;
          Alcotest.test_case "cell payload deterministic" `Quick
            test_cell_payload_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "resume is byte-identical (domains 1 and 2)" `Quick
            test_resume_byte_identical;
          Alcotest.test_case "new kernels resume byte-identical" `Quick
            test_new_kernels_resume_byte_identical;
          Alcotest.test_case "seir on ba graphs resumes byte-identical" `Quick
            test_seir_ba_resume_byte_identical;
          Alcotest.test_case "resume refuses changed trials/params" `Quick
            test_resume_refuses_changed_params;
          Alcotest.test_case "shared cache serves a second campaign" `Quick
            test_cache_second_campaign_all_hits;
          Alcotest.test_case "backend parses from inline and json" `Quick
            test_grid_backend_parse;
          Alcotest.test_case "backend=heap meta is omitted" `Quick
            test_backend_heap_meta_is_omitted;
          Alcotest.test_case "bigarray resume is byte-identical" `Quick
            test_bigarray_resume_byte_identical;
          Alcotest.test_case "new kernels identical across backends" `Quick
            test_new_kernels_backend_identity;
          Alcotest.test_case "resume refuses changed backend" `Quick
            test_resume_refuses_changed_backend;
        ] );
      ( "lane-engine",
        [
          Alcotest.test_case "scalar run_trials is the historical loop" `Quick
            test_run_trials_scalar_is_the_loop;
          Alcotest.test_case "trial counts mod 64 and determinism" `Quick
            test_lanes_remainders_and_determinism;
          Alcotest.test_case "full-batch prefix identity" `Quick
            test_lanes_batch_prefix_identity;
          Alcotest.test_case "unsliced kernels fall back to scalar" `Quick
            test_lanes_fallback_is_scalar;
          Alcotest.test_case "summary statistics match scalar" `Quick
            test_lanes_summary_matches_scalar;
          Alcotest.test_case "grid engine parsing" `Quick test_grid_engine_parse;
          Alcotest.test_case "lanes resume is byte-identical" `Quick
            test_lanes_resume_byte_identical;
          Alcotest.test_case "resume refuses changed engine" `Quick
            test_resume_refuses_changed_engine;
          Alcotest.test_case "zero trials on both engines" `Quick test_run_trials_zero;
        ] );
    ]
