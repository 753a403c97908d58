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
  (* The result cells of the last mask-producing call, read in place by
     the steppers. *)
  type cells = {
    mutable lo : int;
    mutable hi : int;
    mutable and_lo : int;
    mutable and_hi : int;
  }

  type picker = {
    graph : Graph.View.t;
    branching : Branching.t option; (* None: single uniform pick (push) *)
    nb : int array; (* the gathered vertex's neighbours, ascending *)
    clo : int array; (* their member cells, zero-padded to [1 lsl nbits] *)
    chi : int array;
    mutable deg : int; (* the gathered vertex's degree *)
    mutable nbits : int; (* [Prng.Lanes.bits_for deg] *)
    lp : int array; (* index bit-planes of the last draw, lo block *)
    hp : int array;
    glo : int array; (* mux / demux scratch, one cell per padded index *)
    ghi : int array;
    out : cells;
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
    let max_deg = max 1 (Graph.View.max_degree graph) in
    let nbits_max = Prng.Lanes.bits_for max_deg in
    let width = 1 lsl nbits_max in
    {
      graph;
      branching;
      nb = Array.make max_deg 0;
      clo = Array.make width 0;
      chi = Array.make width 0;
      deg = 0;
      nbits = 0;
      lp = Array.make (max 1 nbits_max) 0;
      hp = Array.make (max 1 nbits_max) 0;
      glo = Array.make width 0;
      ghi = Array.make width 0;
      out = { lo = 0; hi = 0; and_lo = 0; and_hi = 0 };
    }

  let picker graph branching = make graph (Some branching)
  let single_picker graph = make graph None
  let cells p = p.out

  (* [v]'s neighbour ids, copied once by one [Graph.View] call for all
     of [scatter]'s picks at [v]. *)
  let gather_ids p ~v =
    let deg = Graph.View.unsafe_neighbours_into p.graph v p.nb in
    if deg = 0 then invalid_arg "Lanes: isolated vertex";
    p.deg <- deg;
    p.nbits <- Prng.Lanes.bits_for deg

  (* Fused OR and AND over [v]'s neighbourhood, with the neighbours'
     [members] cells gathered into [clo]/[chi] for the picks: [lo]/[hi]
     get the OR, [and_lo]/[and_hi] the AND. A lane where the AND holds
     has every neighbour occupied, so any pick hits — deterministically,
     no draw needed; a lane where the OR fails cannot hit. The draw is
     only required for lanes strictly in between, which is what lets the
     steppers skip whole pick rounds once neighbourhoods saturate. *)
  let nb_or_and p (members : Lanemat.t) ~v =
    let deg = Graph.View.unsafe_neighbours_into p.graph v p.nb in
    let nb = p.nb and clo = p.clo and chi = p.chi in
    let or_lo = ref 0 and or_hi = ref 0 in
    let and_lo = ref full and and_hi = ref full in
    for d = 0 to deg - 1 do
      let w = Array.unsafe_get nb d in
      let mlo = Lanemat.unsafe_lo members w and mhi = Lanemat.unsafe_hi members w in
      Array.unsafe_set clo d mlo;
      Array.unsafe_set chi d mhi;
      or_lo := !or_lo lor mlo;
      or_hi := !or_hi lor mhi;
      and_lo := !and_lo land mlo;
      and_hi := !and_hi land mhi
    done;
    (* Rejection guarantees every lane's index is < deg, so the padding
       cells are never selected; zero keeps the fold cheap. *)
    let nbits = Prng.Lanes.bits_for deg in
    for d = deg to (1 lsl nbits) - 1 do
      Array.unsafe_set clo d 0;
      Array.unsafe_set chi d 0
    done;
    p.deg <- deg;
    p.nbits <- nbits;
    p.out.lo <- !or_lo;
    p.out.hi <- !or_hi;
    p.out.and_lo <- !and_lo;
    p.out.and_hi <- !and_hi

  (* One uniform pick for every lane at once from the gathered
     neighbourhood: draw the index planes, then mux-gather — fold the
     tree of gathered cells in half once per bit (LSB first), the first
     fold reading [clo]/[chi] so they survive for the next pick. Leaves
     bit [j] of the result (lane [j]'s chosen neighbour's membership)
     in [out.lo]/[out.hi]. *)
  let pick_member p gen =
    let nbits = p.nbits in
    Prng.Lanes.uniform_planes gen ~bound:p.deg ~nbits ~lo:p.lp ~hi:p.hp;
    if nbits = 0 then begin
      p.out.lo <- Array.unsafe_get p.clo 0;
      p.out.hi <- Array.unsafe_get p.chi 0
    end
    else begin
      let clo = p.clo and chi = p.chi and glo = p.glo and ghi = p.ghi in
      let pl = Array.unsafe_get p.lp 0 and ph = Array.unsafe_get p.hp 0 in
      for i = 0 to (1 lsl (nbits - 1)) - 1 do
        Array.unsafe_set glo i
          ((Array.unsafe_get clo (2 * i) land lnot pl)
          lor (Array.unsafe_get clo ((2 * i) + 1) land pl));
        Array.unsafe_set ghi i
          ((Array.unsafe_get chi (2 * i) land lnot ph)
          lor (Array.unsafe_get chi ((2 * i) + 1) land ph))
      done;
      for b = 1 to nbits - 1 do
        let pl = Array.unsafe_get p.lp b and ph = Array.unsafe_get p.hp b in
        for i = 0 to (1 lsl (nbits - 1 - b)) - 1 do
          Array.unsafe_set glo i
            ((Array.unsafe_get glo (2 * i) land lnot pl)
            lor (Array.unsafe_get glo ((2 * i) + 1) land pl));
          Array.unsafe_set ghi i
            ((Array.unsafe_get ghi (2 * i) land lnot ph)
            lor (Array.unsafe_get ghi ((2 * i) + 1) land ph))
        done
      done;
      p.out.lo <- Array.unsafe_get glo 0;
      p.out.hi <- Array.unsafe_get ghi 0
    end

  (* Per-lane hit mask of one full branching draw: bit [j] set iff at
     least one of lane [j]'s picks from [v]'s neighbourhood lands in
     [members] — the sliced core of the BIPS / SIS exposure rule. Picks
     from the cells the preceding [nb_or_and] gathered. *)
  let hit p gen =
    if p.deg = 0 then invalid_arg "Lanes: isolated vertex";
    match p.branching with
    | None | Some (Branching.Fixed 1) -> pick_member p gen
    | Some (Branching.Fixed k) ->
      let acc_lo = ref 0 and acc_hi = ref 0 in
      for _ = 1 to k do
        pick_member p gen;
        acc_lo := !acc_lo lor p.out.lo;
        acc_hi := !acc_hi lor p.out.hi
      done;
      p.out.lo <- !acc_lo;
      p.out.hi <- !acc_hi
    | Some (Branching.One_plus rho) ->
      Prng.Lanes.bernoulli gen rho;
      let two_lo = Prng.Lanes.lo gen and two_hi = Prng.Lanes.hi gen in
      pick_member p gen;
      (* The second pick exists only in the lanes whose 1+rho coin came
         up 2; draw it once for all of them, skip it when none did. *)
      if two_lo lor two_hi <> 0 then begin
        let first_lo = p.out.lo and first_hi = p.out.hi in
        pick_member p gen;
        p.out.lo <- first_lo lor (p.out.lo land two_lo);
        p.out.hi <- first_hi lor (p.out.hi land two_hi)
      end
    | Some (Branching.Distinct _) ->
      invalid_arg "Lanes: Distinct branching has no sliced stepper"

  (* One uniform pick scattered forward from the gathered neighbourhood:
     for every lane [j] in [base], lane [j]'s chosen neighbour of [v]
     gains lane [j] in [into]. The demux tree splits [base] by one index
     bit-plane per level (MSB first), so leaf [d] holds the lanes whose
     index is [d]: [2 * (1 lsl nbits)] words, then one OR per hit
     neighbour. *)
  let scatter_one p gen ~base_lo ~base_hi (into : Lanemat.t) =
    let nbits = p.nbits in
    Prng.Lanes.uniform_planes gen ~bound:p.deg ~nbits ~lo:p.lp ~hi:p.hp;
    let glo = p.glo and ghi = p.ghi in
    Array.unsafe_set glo 0 base_lo;
    Array.unsafe_set ghi 0 base_hi;
    for b = nbits - 1 downto 0 do
      let pl = Array.unsafe_get p.lp b and ph = Array.unsafe_get p.hp b in
      for i = (1 lsl (nbits - 1 - b)) - 1 downto 0 do
        let xl = Array.unsafe_get glo i and xh = Array.unsafe_get ghi i in
        Array.unsafe_set glo ((2 * i) + 1) (xl land pl);
        Array.unsafe_set glo (2 * i) (xl land lnot pl);
        Array.unsafe_set ghi ((2 * i) + 1) (xh land ph);
        Array.unsafe_set ghi (2 * i) (xh land lnot ph)
      done
    done;
    let nb = p.nb in
    for d = 0 to p.deg - 1 do
      let el = Array.unsafe_get glo d and eh = Array.unsafe_get ghi d in
      if el lor eh <> 0 then begin
        let w = Array.unsafe_get nb d in
        Lanemat.unsafe_set_lo into w (Lanemat.unsafe_lo into w lor el);
        Lanemat.unsafe_set_hi into w (Lanemat.unsafe_hi into w lor eh)
      end
    done

  (* One full branching draw scattered forward (COBRA's per-frontier
     transmissions): [base] lanes each push to [draws] chosen
     neighbours. [v]'s neighbourhood is read once, for every pick. *)
  let scatter p gen ~v ~base_lo ~base_hi ~(into : Lanemat.t) =
    gather_ids p ~v;
    match p.branching with
    | None | Some (Branching.Fixed 1) -> scatter_one p gen ~base_lo ~base_hi into
    | Some (Branching.Fixed k) ->
      for _ = 1 to k do
        scatter_one p gen ~base_lo ~base_hi into
      done
    | Some (Branching.One_plus rho) ->
      Prng.Lanes.bernoulli gen rho;
      let two_lo = Prng.Lanes.lo gen land base_lo in
      let two_hi = Prng.Lanes.hi gen land base_hi in
      scatter_one p gen ~base_lo ~base_hi into;
      if two_lo lor two_hi <> 0 then scatter_one p gen ~base_lo:two_lo ~base_hi:two_hi into
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
      finish.(Dstruct.Bitset.ctz bit) <- r;
      new_lo := !new_lo land lnot bit
    done;
    while !new_hi <> 0 do
      let bit = !new_hi land - !new_hi in
      finish.(32 + Dstruct.Bitset.ctz bit) <- r;
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
        let out = Slice.cells picker in
        let sat = ref (Lanemat.fold_and !cur) in
        let counts = ref None in
        {
          step =
            (fun ~live_lo ~live_hi ->
              let cm = !cur and nm = !nxt in
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
                  Slice.nb_or_and picker !cur ~v:u;
                  if
                    (out.lo land lnot out.and_lo land live_lo)
                    lor (out.hi land lnot out.and_hi land live_hi)
                    = 0
                  then begin
                    hit_lo := out.and_lo;
                    hit_hi := out.and_hi
                  end
                  else begin
                    Slice.hit picker gen;
                    hit_lo := out.lo;
                    hit_hi := out.hi
                  end
                end;
                let old_lo = Lanemat.unsafe_lo cm u and old_hi = Lanemat.unsafe_hi cm u in
                let new_lo = (!hit_lo land live_lo) lor (old_lo land lnot live_lo) in
                let new_hi = (!hit_hi land live_hi) lor (old_hi land lnot live_hi) in
                Lanemat.unsafe_set_lo nm u new_lo;
                Lanemat.unsafe_set_hi nm u new_hi;
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
              let fm = !frontier and nm = !nxt in
              for v = 0 to n - 1 do
                let base_lo = Lanemat.unsafe_lo fm v land live_lo in
                let base_hi = Lanemat.unsafe_hi fm v land live_hi in
                if base_lo lor base_hi <> 0 then
                  Slice.scatter picker gen ~v ~base_lo ~base_hi ~into:!nxt
              done;
              let cov_lo = ref full and cov_hi = ref full in
              for v = 0 to n - 1 do
                (* Frozen lanes keep their frontier; live lanes take the
                   scattered picks. Visited absorbs the new frontier
                   (frozen rows are already subsets of visited). *)
                let f_lo =
                  (Lanemat.unsafe_lo nm v land live_lo)
                  lor (Lanemat.unsafe_lo fm v land lnot live_lo)
                in
                let f_hi =
                  (Lanemat.unsafe_hi nm v land live_hi)
                  lor (Lanemat.unsafe_hi fm v land lnot live_hi)
                in
                Lanemat.unsafe_set_lo nm v f_lo;
                Lanemat.unsafe_set_hi nm v f_hi;
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
                  Lanemat.unsafe_lo informed u lor (Lanemat.unsafe_lo newly u land live_lo)
                in
                let i_hi =
                  Lanemat.unsafe_hi informed u lor (Lanemat.unsafe_hi newly u land live_hi)
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
