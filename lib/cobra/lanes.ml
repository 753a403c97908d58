(* Bit-sliced Monte-Carlo driver: 64 independent replicas advance in the
   bit-lanes of each word, so one pass over the CSR plays one round of
   all 64 trials of a kernel at once.

   Lane discipline. Lane [j] of a batch is trial [j]: its randomness
   comes from trial [j]'s own stream ([Prng.Lanes] is seeded with the
   scalar engine's derived trial seeds), its state lives in lane [j] of
   the {!Dstruct.Lanemat} occupancy matrices, and its outcome is read
   back independently of every other lane. Equality with the scalar
   engine is distributional per lane, not draw-for-draw: sliced steppers
   consume bit planes where the scalar engine consumes floats and
   62-bit rejection, share rejection rounds across lanes, and skip
   draws no live lane can observe (each skipped draw is fresh
   randomness independent of the skip condition, so per-lane marginals
   and cross-lane independence are preserved — the conformance suite
   checks both).

   Completion is per lane. A lane that completes (saturates, covers,
   goes extinct, ...) is {e frozen}: the steppers blend
   [next = (computed AND live) OR (current AND NOT live)], so a finished
   lane's state stops evolving exactly as the scalar driver stops
   stepping a finished trial — final observations match. Lanes beyond
   [n_active] (a batch running fewer than 64 trials) are never live and
   are masked out of every reduction, so phantom replicas cannot leak
   into any statistic. *)

module Lanemat = Dstruct.Lanemat

let full = 0xFFFFFFFF
let fi = float_of_int

(* Trailing-zero count of a 32-bit cell, for walking set lane bits. *)
let ctz x =
  let x = (x land -x) - 1 in
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0x3F

type instance = {
  step : live_lo:int -> live_hi:int -> unit;
  done_mask : unit -> int * int;
  observe : lane:int -> (string * float) list;
  state : unit -> Lanemat.t;
}

type t = {
  name : string;
  supports : Kernel.params -> bool;
  create : Graph.View.t -> Kernel.params -> Prng.Lanes.t -> instance;
}

(* ------------------------------------------------------------------ *)
(* Sliced neighbour picks                                              *)

module Slice = struct
  type picker = {
    graph : Graph.View.t;
    branching : Branching.t option; (* None: single uniform pick (push) *)
    lp : int array; (* index bit-planes of the last draw, lo block *)
    hp : int array;
    glo : int array; (* mux-gather scratch, one cell per padded index *)
    ghi : int array;
    mutable lo : int; (* result cells of the last mask-producing call *)
    mutable hi : int;
  }

  let supported = function
    | Branching.Fixed _ | Branching.One_plus _ -> true
    (* Sliced sampling without replacement is not worth the lane
       machinery; [Distinct] batches fall back to the scalar engine. *)
    | Branching.Distinct _ -> false

  let make graph branching =
    (match branching with
    | Some b when not (supported b) ->
      invalid_arg "Lanes: Distinct branching has no sliced stepper"
    | _ -> ());
    let nbits_max = Prng.Lanes.bits_for (max 1 (Graph.View.max_degree graph)) in
    {
      graph;
      branching;
      lp = Array.make (max 1 nbits_max) 0;
      hp = Array.make (max 1 nbits_max) 0;
      glo = Array.make (1 lsl nbits_max) 0;
      ghi = Array.make (1 lsl nbits_max) 0;
      lo = 0;
      hi = 0;
    }

  let picker graph branching = make graph (Some branching)
  let single_picker graph = make graph None
  let lo p = p.lo
  let hi p = p.hi

  (* OR of [members]'s cells over [v]'s neighbourhood, into [lo]/[hi]:
     bit [j] set iff some neighbour of [v] is occupied in lane [j]. The
     draw-free pre-test behind every skip decision. *)
  let nb_or p members ~v =
    let g = p.graph in
    let deg = Graph.View.unsafe_degree g v in
    let acc_lo = ref 0 and acc_hi = ref 0 in
    for d = 0 to deg - 1 do
      let w = Graph.View.unsafe_nth_neighbour g v d in
      acc_lo := !acc_lo lor Lanemat.unsafe_lo members w;
      acc_hi := !acc_hi lor Lanemat.unsafe_hi members w
    done;
    p.lo <- !acc_lo;
    p.hi <- !acc_hi

  (* Fused OR and AND over [v]'s neighbourhood: [lo]/[hi] get the OR,
     the returned pair is the AND. A lane where the AND holds has every
     neighbour occupied, so any pick hits — deterministically, no draw
     needed; a lane where the OR fails cannot hit. The draw is only
     required for lanes strictly in between, which is what lets the
     steppers skip whole pick rounds once neighbourhoods saturate. *)
  let nb_or_and p members ~v =
    let g = p.graph in
    let deg = Graph.View.unsafe_degree g v in
    let or_lo = ref 0 and or_hi = ref 0 in
    let and_lo = ref full and and_hi = ref full in
    for d = 0 to deg - 1 do
      let w = Graph.View.unsafe_nth_neighbour g v d in
      let mlo = Lanemat.unsafe_lo members w in
      let mhi = Lanemat.unsafe_hi members w in
      or_lo := !or_lo lor mlo;
      or_hi := !or_hi lor mhi;
      and_lo := !and_lo land mlo;
      and_hi := !and_hi land mhi
    done;
    p.lo <- !or_lo;
    p.hi <- !or_hi;
    (!and_lo, !and_hi)

  (* Mux-gather: with the index bit-planes of one uniform pick in
     [lp]/[hp] and the scratch arrays holding one cell per padded
     index, fold the tree in half once per bit (LSB first); cell 0 ends
     up holding, in lane [j], the scratch value of lane [j]'s chosen
     index. *)
  let mux p ~nbits =
    let width = ref (1 lsl nbits) in
    for b = 0 to nbits - 1 do
      let pl = p.lp.(b) and ph = p.hp.(b) in
      width := !width lsr 1;
      for i = 0 to !width - 1 do
        p.glo.(i) <-
          (p.glo.(2 * i) land lnot pl) lor (p.glo.((2 * i) + 1) land pl);
        p.ghi.(i) <-
          (p.ghi.(2 * i) land lnot ph) lor (p.ghi.((2 * i) + 1) land ph)
      done
    done

  (* One uniform pick for every lane at once: bit [j] of the result is
     lane [j]'s chosen neighbour's membership in [members]. *)
  let pick_member p gen members ~v ~deg ~nbits =
    let g = p.graph in
    Prng.Lanes.uniform_planes gen ~bound:deg ~nbits ~lo:p.lp ~hi:p.hp;
    for d = 0 to deg - 1 do
      let w = Graph.View.unsafe_nth_neighbour g v d in
      p.glo.(d) <- Lanemat.unsafe_lo members w;
      p.ghi.(d) <- Lanemat.unsafe_hi members w
    done;
    (* Rejection guarantees every lane's index is < deg, so the padding
       cells are never selected; zero keeps the fold cheap. *)
    for d = deg to (1 lsl nbits) - 1 do
      p.glo.(d) <- 0;
      p.ghi.(d) <- 0
    done;
    mux p ~nbits

  (* Per-lane hit mask of one full branching draw: bit [j] set iff at
     least one of lane [j]'s picks from [v]'s neighbourhood lands in
     [members] — the sliced core of the BIPS / SIS exposure rule. *)
  let hit p gen members ~v =
    let deg = Graph.View.unsafe_degree p.graph v in
    if deg = 0 then invalid_arg "Lanes: isolated vertex";
    let nbits = Prng.Lanes.bits_for deg in
    match p.branching with
    | None | Some (Branching.Fixed 1) ->
      pick_member p gen members ~v ~deg ~nbits;
      p.lo <- p.glo.(0);
      p.hi <- p.ghi.(0)
    | Some (Branching.Fixed k) ->
      let acc_lo = ref 0 and acc_hi = ref 0 in
      for _ = 1 to k do
        pick_member p gen members ~v ~deg ~nbits;
        acc_lo := !acc_lo lor p.glo.(0);
        acc_hi := !acc_hi lor p.ghi.(0)
      done;
      p.lo <- !acc_lo;
      p.hi <- !acc_hi
    | Some (Branching.One_plus rho) ->
      Prng.Lanes.bernoulli gen rho;
      let two_lo = Prng.Lanes.lo gen and two_hi = Prng.Lanes.hi gen in
      pick_member p gen members ~v ~deg ~nbits;
      let acc_lo = ref p.glo.(0) and acc_hi = ref p.ghi.(0) in
      (* The second pick exists only in the lanes whose 1+rho coin came
         up 2; draw it once for all of them, skip it when none did. *)
      if two_lo lor two_hi <> 0 then begin
        pick_member p gen members ~v ~deg ~nbits;
        acc_lo := !acc_lo lor (p.glo.(0) land two_lo);
        acc_hi := !acc_hi lor (p.ghi.(0) land two_hi)
      end;
      p.lo <- !acc_lo;
      p.hi <- !acc_hi
    | Some (Branching.Distinct _) ->
      invalid_arg "Lanes: Distinct branching has no sliced stepper"

  (* One uniform pick scattered forward: for every lane [j] in [base],
     lane [j]'s chosen neighbour of [v] gains lane [j] in [into]. The
     equality-to-constant comparator narrows [base] one index bit-plane
     at a time, so the cost is [deg * nbits] words. *)
  let scatter_one p gen ~v ~base_lo ~base_hi ~into =
    let g = p.graph in
    let deg = Graph.View.unsafe_degree g v in
    if deg = 0 then invalid_arg "Lanes: isolated vertex";
    let nbits = Prng.Lanes.bits_for deg in
    Prng.Lanes.uniform_planes gen ~bound:deg ~nbits ~lo:p.lp ~hi:p.hp;
    for d = 0 to deg - 1 do
      let eq_lo = ref base_lo and eq_hi = ref base_hi in
      for b = 0 to nbits - 1 do
        if (d lsr b) land 1 = 1 then begin
          eq_lo := !eq_lo land p.lp.(b);
          eq_hi := !eq_hi land p.hp.(b)
        end
        else begin
          eq_lo := !eq_lo land lnot p.lp.(b);
          eq_hi := !eq_hi land lnot p.hp.(b)
        end
      done;
      if !eq_lo lor !eq_hi <> 0 then begin
        let w = Graph.View.unsafe_nth_neighbour g v d in
        Lanemat.unsafe_set_lo into w (Lanemat.unsafe_lo into w lor !eq_lo);
        Lanemat.unsafe_set_hi into w (Lanemat.unsafe_hi into w lor !eq_hi)
      end
    done

  (* One full branching draw scattered forward (COBRA's per-frontier
     transmissions): [base] lanes each push to [draws] chosen
     neighbours. *)
  let scatter p gen ~v ~base_lo ~base_hi ~into =
    match p.branching with
    | None | Some (Branching.Fixed 1) ->
      scatter_one p gen ~v ~base_lo ~base_hi ~into
    | Some (Branching.Fixed k) ->
      for _ = 1 to k do
        scatter_one p gen ~v ~base_lo ~base_hi ~into
      done
    | Some (Branching.One_plus rho) ->
      Prng.Lanes.bernoulli gen rho;
      let two_lo = Prng.Lanes.lo gen land base_lo in
      let two_hi = Prng.Lanes.hi gen land base_hi in
      scatter_one p gen ~v ~base_lo ~base_hi ~into;
      if two_lo lor two_hi <> 0 then
        scatter_one p gen ~v ~base_lo:two_lo ~base_hi:two_hi ~into
    | Some (Branching.Distinct _) ->
      invalid_arg "Lanes: Distinct branching has no sliced stepper"
end

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)

let run_batch t g params gen ~n_active ~cap =
  if n_active < 1 || n_active > Lanemat.lanes then
    invalid_arg "Lanes.run_batch: n_active outside [1, 64]";
  let active_lo, active_hi = Lanemat.lane_mask n_active in
  let inst = t.create g params gen in
  let finish = Array.make Lanemat.lanes (-1) in
  let done_lo = ref 0 and done_hi = ref 0 in
  let record r =
    let dlo, dhi = inst.done_mask () in
    let new_lo = ref (dlo land active_lo land lnot !done_lo) in
    let new_hi = ref (dhi land active_hi land lnot !done_hi) in
    done_lo := !done_lo lor !new_lo;
    done_hi := !done_hi lor !new_hi;
    while !new_lo <> 0 do
      let bit = !new_lo land - !new_lo in
      finish.(ctz bit) <- r;
      new_lo := !new_lo land lnot bit
    done;
    while !new_hi <> 0 do
      let bit = !new_hi land - !new_hi in
      finish.(32 + ctz bit) <- r;
      new_hi := !new_hi land lnot bit
    done
  in
  record 0;
  let r = ref 0 in
  while (!done_lo <> active_lo || !done_hi <> active_hi) && !r < cap do
    inst.step
      ~live_lo:(active_lo land lnot !done_lo)
      ~live_hi:(active_hi land lnot !done_hi);
    incr r;
    record !r
  done;
  Array.init n_active (fun j ->
      let completed = finish.(j) >= 0 in
      let rounds = if completed then finish.(j) else cap in
      {
        Kernel.completed;
        rounds;
        observations = ("rounds", fi rounds) :: inst.observe ~lane:j;
      })

(* ------------------------------------------------------------------ *)
(* Sliced steppers                                                     *)

let check_start g start =
  if start < 0 || start >= Graph.View.n_vertices g then
    invalid_arg "Lanes: start out of range"

(* BIPS, sliced: every vertex redraws its infection each round from the
   previous infected set — per lane, [u] is infected at [t+1] iff some
   of its branching picks hits [A_t] (the source never recovers). The
   per-vertex neighbourhood OR gates the pick draws: a vertex with no
   infected neighbour in any live lane cannot be hit, so its picks are
   skipped wholesale. *)
let bips =
  {
    name = "bips";
    supports = (fun p -> Slice.supported p.Kernel.branching);
    create =
      (fun g params gen ->
        check_start g params.Kernel.start;
        let n = Graph.View.n_vertices g in
        let source = params.Kernel.start in
        let cur = ref (Lanemat.create n) and nxt = ref (Lanemat.create n) in
        Lanemat.unsafe_set_lo !cur source full;
        Lanemat.unsafe_set_hi !cur source full;
        let picker = Slice.picker g params.Kernel.branching in
        let sat = ref (Lanemat.fold_and !cur) in
        let counts = ref None in
        {
          step =
            (fun ~live_lo ~live_hi ->
              let sat_lo = ref full and sat_hi = ref full in
              for u = 0 to n - 1 do
                let hit_lo = ref full and hit_hi = ref full in
                if u <> source then begin
                  (* A lane with no infected neighbour misses for sure;
                     one with every neighbour infected hits for sure.
                     Only lanes strictly in between need the pick draw,
                     so once neighbourhoods saturate whole rounds of
                     draws are elided (distribution unchanged: skipped
                     draws are fresh bits with a deterministic outcome). *)
                  let and_lo, and_hi = Slice.nb_or_and picker !cur ~v:u in
                  if
                    (Slice.lo picker land lnot and_lo land live_lo)
                    lor (Slice.hi picker land lnot and_hi land live_hi)
                    = 0
                  then begin
                    hit_lo := and_lo;
                    hit_hi := and_hi
                  end
                  else begin
                    Slice.hit picker gen !cur ~v:u;
                    hit_lo := Slice.lo picker;
                    hit_hi := Slice.hi picker
                  end
                end;
                let old_lo = Lanemat.unsafe_lo !cur u in
                let old_hi = Lanemat.unsafe_hi !cur u in
                let new_lo = (!hit_lo land live_lo) lor (old_lo land lnot live_lo) in
                let new_hi = (!hit_hi land live_hi) lor (old_hi land lnot live_hi) in
                Lanemat.unsafe_set_lo !nxt u new_lo;
                Lanemat.unsafe_set_hi !nxt u new_hi;
                sat_lo := !sat_lo land new_lo;
                sat_hi := !sat_hi land new_hi
              done;
              let old = !cur in
              cur := !nxt;
              nxt := old;
              sat := (!sat_lo, !sat_hi);
              counts := None);
          done_mask = (fun () -> !sat);
          observe =
            (fun ~lane ->
              let c =
                match !counts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts !cur in
                  counts := Some c;
                  c
              in
              [ ("infected", fi c.(lane)) ]);
          state = (fun () -> !cur);
        });
  }

(* COBRA, sliced: the frontier matrix carries each lane's active set;
   every (vertex, lane) pair in a live frontier scatters its branching
   picks into the next frontier, the visited matrix accumulates, and a
   lane completes at cover. Frozen lanes keep their frontier verbatim
   so late observations match the scalar engine's stop-at-completion.
   Per-lane transmission counting would cost a popcount per scatter, so
   the lanes engine does not report ["transmissions"]. *)
let cobra =
  {
    name = "cobra";
    supports = (fun p -> Slice.supported p.Kernel.branching);
    create =
      (fun g params gen ->
        check_start g params.Kernel.start;
        let n = Graph.View.n_vertices g in
        let start = params.Kernel.start in
        let frontier = ref (Lanemat.create n) and nxt = ref (Lanemat.create n) in
        let visited = Lanemat.create n in
        Lanemat.unsafe_set_lo !frontier start full;
        Lanemat.unsafe_set_hi !frontier start full;
        Lanemat.unsafe_set_lo visited start full;
        Lanemat.unsafe_set_hi visited start full;
        let picker = Slice.picker g params.Kernel.branching in
        let cover = ref (Lanemat.fold_and visited) in
        let vcounts = ref None and fcounts = ref None in
        {
          step =
            (fun ~live_lo ~live_hi ->
              Lanemat.clear !nxt;
              for v = 0 to n - 1 do
                let base_lo = Lanemat.unsafe_lo !frontier v land live_lo in
                let base_hi = Lanemat.unsafe_hi !frontier v land live_hi in
                if base_lo lor base_hi <> 0 then
                  Slice.scatter picker gen ~v ~base_lo ~base_hi ~into:!nxt
              done;
              let cov_lo = ref full and cov_hi = ref full in
              for v = 0 to n - 1 do
                (* Frozen lanes keep their frontier; live lanes take the
                   scattered picks. Visited absorbs the new frontier
                   (frozen rows are already subsets of visited). *)
                let f_lo =
                  (Lanemat.unsafe_lo !nxt v land live_lo)
                  lor (Lanemat.unsafe_lo !frontier v land lnot live_lo)
                in
                let f_hi =
                  (Lanemat.unsafe_hi !nxt v land live_hi)
                  lor (Lanemat.unsafe_hi !frontier v land lnot live_hi)
                in
                Lanemat.unsafe_set_lo !nxt v f_lo;
                Lanemat.unsafe_set_hi !nxt v f_hi;
                let vis_lo = Lanemat.unsafe_lo visited v lor f_lo in
                let vis_hi = Lanemat.unsafe_hi visited v lor f_hi in
                Lanemat.unsafe_set_lo visited v vis_lo;
                Lanemat.unsafe_set_hi visited v vis_hi;
                cov_lo := !cov_lo land vis_lo;
                cov_hi := !cov_hi land vis_hi
              done;
              let old = !frontier in
              frontier := !nxt;
              nxt := old;
              cover := (!cov_lo, !cov_hi);
              vcounts := None;
              fcounts := None);
          done_mask = (fun () -> !cover);
          observe =
            (fun ~lane ->
              let v =
                match !vcounts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts visited in
                  vcounts := Some c;
                  c
              and f =
                match !fcounts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts !frontier in
                  fcounts := Some c;
                  c
              in
              [ ("visited", fi v.(lane)); ("frontier", fi f.(lane)) ]);
          state = (fun () -> !frontier);
        });
  }

(* Push, sliced: each informed (vertex, lane) pushes to one uniform
   neighbour per round; informed only grows, and a lane completes when
   its informed column fills. As with COBRA, per-lane transmission
   counts are not reported. *)
let push =
  {
    name = "push";
    supports = (fun _ -> true);
    create =
      (fun g params gen ->
        check_start g params.Kernel.start;
        let n = Graph.View.n_vertices g in
        let start = params.Kernel.start in
        let informed = Lanemat.create n in
        let newly = Lanemat.create n in
        Lanemat.unsafe_set_lo informed start full;
        Lanemat.unsafe_set_hi informed start full;
        let picker = Slice.single_picker g in
        let fullm = ref (Lanemat.fold_and informed) in
        let counts = ref None in
        {
          step =
            (fun ~live_lo ~live_hi ->
              Lanemat.clear newly;
              for u = 0 to n - 1 do
                let base_lo = Lanemat.unsafe_lo informed u land live_lo in
                let base_hi = Lanemat.unsafe_hi informed u land live_hi in
                if base_lo lor base_hi <> 0 then
                  Slice.scatter picker gen ~v:u ~base_lo ~base_hi ~into:newly
              done;
              let all_lo = ref full and all_hi = ref full in
              for u = 0 to n - 1 do
                let i_lo =
                  Lanemat.unsafe_lo informed u
                  lor (Lanemat.unsafe_lo newly u land live_lo)
                in
                let i_hi =
                  Lanemat.unsafe_hi informed u
                  lor (Lanemat.unsafe_hi newly u land live_hi)
                in
                Lanemat.unsafe_set_lo informed u i_lo;
                Lanemat.unsafe_set_hi informed u i_hi;
                all_lo := !all_lo land i_lo;
                all_hi := !all_hi land i_hi
              done;
              fullm := (!all_lo, !all_hi);
              counts := None);
          done_mask = (fun () -> !fullm);
          observe =
            (fun ~lane ->
              let c =
                match !counts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts informed in
                  counts := Some c;
                  c
              in
              [ ("informed", fi c.(lane)) ]);
          state = (fun () -> informed);
        });
  }

let all = [ cobra; bips; push ]
let find name = List.find_opt (fun t -> t.name = name) all
