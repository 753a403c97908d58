(* Sliced SIS: the lane-engine stepper for the discrete SIS epidemic,
   built on Cobra.Lanes' batch driver and pick toolkit. Round order
   matches Sis.step — recovery first, then exposure of every
   now-susceptible vertex against the previous infected set — so with
   recovery = 1 and a persistent source the sliced process embeds BIPS
   exactly as the scalar one does. *)

module Lanemat = Dstruct.Lanemat
module Slice = Cobra.Lanes.Slice

let full = 0xFFFFFFFF
let fi = float_of_int

let sis =
  {
    Cobra.Lanes.name = "sis";
    supports = (fun p -> Slice.supported p.Cobra.Kernel.branching);
    create =
      (fun g params gen ->
        let n = Graph.View.n_vertices g in
        let start = params.Cobra.Kernel.start in
        if start < 0 || start >= n then invalid_arg "Lanes.sis: start out of range";
        let recovery = params.Cobra.Kernel.recovery in
        if recovery < 0.0 || recovery > 1.0 then
          invalid_arg "Lanes.sis: recovery outside [0, 1]";
        let pers = if params.Cobra.Kernel.persistent then start else -1 in
        let cur = ref (Lanemat.create n) and nxt = ref (Lanemat.create n) in
        let ever = Lanemat.create n in
        Lanemat.unsafe_set_lo !cur start full;
        Lanemat.unsafe_set_hi !cur start full;
        Lanemat.unsafe_set_lo ever start full;
        Lanemat.unsafe_set_hi ever start full;
        let picker = Slice.picker g params.Cobra.Kernel.branching in
        let out = Slice.cells picker in
        (* done = extinct OR everyone-ever-infected, per lane. *)
        let mask () =
          let or_lo, or_hi = Lanemat.fold_or !cur in
          let ev_lo, ev_hi = Lanemat.fold_and ever in
          ((lnot or_lo lor ev_lo) land full, (lnot or_hi lor ev_hi) land full)
        in
        let dmask = ref (mask ()) in
        let icounts = ref None and ecounts = ref None in
        {
          Cobra.Lanes.step =
            (fun ~live_lo ~live_hi ->
              let or_lo = ref 0 and or_hi = ref 0 in
              let evf_lo = ref full and evf_hi = ref full in
              let cm = !cur and nm = !nxt in
              for u = 0 to n - 1 do
                let old_lo = Lanemat.unsafe_lo cm u and old_hi = Lanemat.unsafe_hi cm u in
                let comp_lo = ref full and comp_hi = ref full in
                if u <> pers then begin
                  (* Recovery: one Bernoulli mask, applied only to the
                     infected lanes; skipped when no live lane has [u]
                     infected. *)
                  let stays_lo = ref old_lo and stays_hi = ref old_hi in
                  if (old_lo land live_lo) lor (old_hi land live_hi) <> 0 then begin
                    Prng.Lanes.bernoulli gen recovery;
                    stays_lo := old_lo land lnot (Prng.Lanes.lo gen);
                    stays_hi := old_hi land lnot (Prng.Lanes.hi gen)
                  end;
                  (* Exposure against A_t for the lanes not staying:
                     skipped when no live candidate lane has an
                     infected neighbour. *)
                  let hit_lo = ref 0 and hit_hi = ref 0 in
                  (* Candidate lanes whose whole neighbourhood is
                     infected hit for sure, ones with no infected
                     neighbour miss for sure; the pick draw only runs
                     when some candidate lane sits strictly in between
                     (skipped draws are fresh bits with a deterministic
                     outcome, so the distribution is unchanged). *)
                  Slice.nb_or_and picker !cur ~v:u;
                  if
                    (out.lo land lnot out.and_lo land lnot !stays_lo land live_lo)
                    lor (out.hi land lnot out.and_hi land lnot !stays_hi land live_hi)
                    = 0
                  then begin
                    hit_lo := out.and_lo;
                    hit_hi := out.and_hi
                  end
                  else begin
                    Slice.hit picker gen;
                    hit_lo := out.lo;
                    hit_hi := out.hi
                  end;
                  comp_lo := !stays_lo lor !hit_lo;
                  comp_hi := !stays_hi lor !hit_hi
                end;
                let new_lo = (!comp_lo land live_lo) lor (old_lo land lnot live_lo) in
                let new_hi = (!comp_hi land live_hi) lor (old_hi land lnot live_hi) in
                Lanemat.unsafe_set_lo nm u new_lo;
                Lanemat.unsafe_set_hi nm u new_hi;
                let ev_lo = Lanemat.unsafe_lo ever u lor new_lo in
                let ev_hi = Lanemat.unsafe_hi ever u lor new_hi in
                Lanemat.unsafe_set_lo ever u ev_lo;
                Lanemat.unsafe_set_hi ever u ev_hi;
                or_lo := !or_lo lor new_lo;
                or_hi := !or_hi lor new_hi;
                evf_lo := !evf_lo land ev_lo;
                evf_hi := !evf_hi land ev_hi
              done;
              let old = !cur in
              cur := !nxt;
              nxt := old;
              dmask :=
                ( (lnot !or_lo lor !evf_lo) land full,
                  (lnot !or_hi lor !evf_hi) land full );
              icounts := None;
              ecounts := None);
          done_mask = (fun () -> !dmask);
          observe =
            (fun ~lane ->
              let inf =
                match !icounts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts !cur in
                  icounts := Some c;
                  c
              and ev =
                match !ecounts with
                | Some c -> c
                | None ->
                  let c = Lanemat.counts ever in
                  ecounts := Some c;
                  c
              in
              [
                ("infected", fi inf.(lane));
                ("ever", fi ev.(lane));
                ("extinct", if inf.(lane) = 0 then 1.0 else 0.0);
              ]);
          state = (fun () -> !cur);
        });
  }

let all = [ sis ]
let find name = List.find_opt (fun t -> t.Cobra.Lanes.name = name) all
