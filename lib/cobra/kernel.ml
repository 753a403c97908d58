module Bitset = Dstruct.Bitset

type params = {
  branching : Branching.t;
  start : int;
  walkers : int;
  rate : float;
  horizon : float;
  recovery : float;
  persistent : bool;
  infectious_rounds : int;
  immune_rounds : int;
  latent_rounds : int;
  cap : int option;
}

let default_params =
  {
    branching = Branching.cobra_k2;
    start = 0;
    walkers = 1;
    rate = 0.5;
    horizon = 200.0;
    recovery = 0.3;
    persistent = false;
    infectious_rounds = 2;
    immune_rounds = 8;
    latent_rounds = 1;
    cap = None;
  }

type instance = {
  step : Prng.Rng.t -> unit;
  is_complete : unit -> bool;
  rounds : unit -> int;
  observe : unit -> (string * float) list;
}

type t = {
  name : string;
  doc : string;
  default_cap : Graph.View.t -> int;
  create : Graph.View.t -> params -> instance;
}

type outcome = {
  completed : bool;
  rounds : int;
  observations : (string * float) list;
}

let cap t g params = match params.cap with Some c -> c | None -> t.default_cap g

let run t g params rng =
  let cap = cap t g params in
  let i = t.create g params in
  while (not (i.is_complete ())) && i.rounds () < cap do
    i.step rng
  done;
  { completed = i.is_complete (); rounds = i.rounds (); observations = i.observe () }

let completion_time t g params rng =
  let o = run t g params rng in
  if o.completed then Some o.rounds else None

let observation o key = List.assoc_opt key o.observations

(* Record through the instance rather than beside [run]'s loop: the
   wrapped [step] reads [key] after each round, so [run] stays the only
   loop and a run without a trajectory pays nothing. *)
let trajectory t g params rng ~key =
  let read i =
    match List.assoc_opt key (i.observe ()) with
    | Some v -> v
    | None ->
      invalid_arg (Printf.sprintf "Kernel.trajectory: %s has no observable %S" t.name key)
  in
  let values = ref [] in
  let create g params =
    let i = t.create g params in
    values := [ read i ];
    {
      i with
      step =
        (fun rng ->
          i.step rng;
          values := read i :: !values);
    }
  in
  ignore (run { t with create } g params rng);
  Array.of_list (List.rev !values)

let fi = float_of_int

(* The steps below test and set membership with [Bitset]'s unchecked
   helpers, which inline here, and keep their counters in locals for the
   round. *)

(* Adds the members of [newly] missing from [set]; returns how many. *)
let absorb set newly =
  let added = ref 0 in
  for i = 0 to Dstruct.Intvec.length newly - 1 do
    if Bitset.unsafe_add_new set (Dstruct.Intvec.unsafe_get newly i) then incr added
  done;
  !added

let round_cap g = 10_000 + (100 * Graph.View.n_vertices g)

let cobra =
  {
    name = "cobra";
    doc = "COBRA coalescing-branching walk, run to cover";
    default_cap = round_cap;
    create =
      (fun g params ->
        let p = Process.create g ~branching:params.branching ~start:[ params.start ] in
        {
          step = (fun rng -> Process.step p rng);
          is_complete = (fun () -> Process.is_covered p);
          rounds = (fun () -> Process.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Process.round p));
                ("visited", fi (Process.visited_count p));
                ("frontier", fi (Process.frontier_size p));
                ("transmissions", fi (Process.transmissions p));
              ]);
        });
  }

let bips =
  {
    name = "bips";
    doc = "BIPS persistent-source epidemic, run to saturation";
    default_cap = round_cap;
    create =
      (fun g params ->
        let p = Bips.create g ~branching:params.branching ~source:params.start in
        {
          step = (fun rng -> Bips.step p rng);
          is_complete = (fun () -> Bips.is_saturated p);
          rounds = (fun () -> Bips.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Bips.round p));
                ("infected", fi (Bips.infected_count p));
              ]);
        });
  }

(* One step moves every walker along one uniform neighbour draw, in
   walker order. *)
let rwalk =
  {
    name = "rwalk";
    doc = "independent simple random walk(s), run to cover";
    default_cap = Rwalk.default_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        if params.start < 0 || params.start >= n then
          invalid_arg "Kernel.rwalk: start out of range";
        if params.walkers < 1 then invalid_arg "Kernel.rwalk: walkers >= 1";
        let seen = Bitset.create n in
        Bitset.add seen params.start;
        let positions = Array.make params.walkers params.start in
        let remaining = ref (n - 1) in
        let rounds = ref 0 in
        {
          step =
            (fun rng ->
              let left = ref !remaining in
              for w = 0 to Array.length positions - 1 do
                let next =
                  Graph.View.unsafe_random_neighbour g rng (Array.unsafe_get positions w)
                in
                Array.unsafe_set positions w next;
                if Bitset.unsafe_add_new seen next then decr left
              done;
              remaining := !left;
              incr rounds);
          is_complete = (fun () -> !remaining = 0);
          rounds = (fun () -> !rounds);
          observe =
            (fun () ->
              [ ("rounds", fi !rounds); ("visited", fi (n - !remaining)) ]);
        });
  }

(* One push round: every informed vertex, in increasing order (an
   increasing word scan, so sparse early rounds on a large universe skip
   empty words; each word is read once before its members push), pushes
   to one checked neighbour draw; informing applies synchronously after
   the scan, as in the COBRA round structure. *)
let push =
  {
    name = "push";
    doc = "push rumour spreading, run to full information";
    default_cap = round_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        if params.start < 0 || params.start >= n then
          invalid_arg "Kernel.push: start out of range";
        let informed = Bitset.create n in
        Bitset.add informed params.start;
        let newly = Dstruct.Intvec.create ~capacity:64 () in
        let count = ref 1 and rounds = ref 0 and transmissions = ref 0 in
        {
          step =
            (fun rng ->
              Dstruct.Intvec.clear newly;
              let words = informed.Bitset.words in
              for wi = 0 to Array.length words - 1 do
                let cell = ref (Array.unsafe_get words wi) in
                while !cell <> 0 do
                  let u = Bitset.member_at wi (Bitset.ctz !cell) in
                  let w = Graph.View.random_neighbour g rng u in
                  if not (Bitset.unsafe_mem informed w) then Dstruct.Intvec.push newly w;
                  cell := !cell land (!cell - 1)
                done
              done;
              transmissions := !transmissions + !count;
              count := !count + absorb informed newly;
              incr rounds);
          is_complete = (fun () -> !count = n);
          rounds = (fun () -> !rounds);
          observe =
            (fun () ->
              [
                ("rounds", fi !rounds);
                ("informed", fi !count);
                ("transmissions", fi !transmissions);
              ]);
        });
  }

(* One pull round: only uninformed vertices draw, in increasing vertex
   order; informed vertices stay silent. Synchronous apply, as in push. *)
let pull =
  {
    name = "pull";
    doc = "pull rumour spreading, run to full information";
    default_cap = round_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        if params.start < 0 || params.start >= n then
          invalid_arg "Kernel.pull: start out of range";
        let informed = Bitset.create n in
        Bitset.add informed params.start;
        let newly = Dstruct.Intvec.create ~capacity:64 () in
        let count = ref 1 and rounds = ref 0 and transmissions = ref 0 in
        {
          step =
            (fun rng ->
              Dstruct.Intvec.clear newly;
              for u = 0 to n - 1 do
                if not (Bitset.unsafe_mem informed u) then begin
                  let w = Graph.View.random_neighbour g rng u in
                  if Bitset.unsafe_mem informed w then Dstruct.Intvec.push newly u
                end
              done;
              transmissions := !transmissions + (n - !count);
              count := !count + absorb informed newly;
              incr rounds);
          is_complete = (fun () -> !count = n);
          rounds = (fun () -> !rounds);
          observe =
            (fun () ->
              [
                ("rounds", fi !rounds);
                ("informed", fi !count);
                ("transmissions", fi !transmissions);
              ]);
        });
  }

(* One push-pull round: every vertex contacts one random neighbour in
   increasing order and information crosses the contact both ways; the
   newly informed apply synchronously after the scan. *)
let push_pull =
  {
    name = "push-pull";
    doc = "push-pull rumour spreading, run to full information";
    default_cap = round_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        if params.start < 0 || params.start >= n then
          invalid_arg "Kernel.push_pull: start out of range";
        let informed = Bitset.create n in
        Bitset.add informed params.start;
        let newly = Dstruct.Intvec.create ~capacity:64 () in
        let count = ref 1 and rounds = ref 0 and transmissions = ref 0 in
        {
          step =
            (fun rng ->
              Dstruct.Intvec.clear newly;
              for u = 0 to n - 1 do
                let w = Graph.View.random_neighbour g rng u in
                let iu = Bitset.unsafe_mem informed u in
                let iw = Bitset.unsafe_mem informed w in
                if iu && not iw then Dstruct.Intvec.push newly w
                else if iw && not iu then Dstruct.Intvec.push newly u
              done;
              transmissions := !transmissions + n;
              count := !count + absorb informed newly;
              incr rounds);
          is_complete = (fun () -> !count = n);
          rounds = (fun () -> !rounds);
          observe =
            (fun () ->
              [
                ("rounds", fi !rounds);
                ("informed", fi !count);
                ("transmissions", fi !transmissions);
              ]);
        });
  }

(* Coalescing time is bounded by pairwise meeting times, which scale like
   the walk's cover time: the walk's generous cap. *)
let coalesce =
  {
    name = "coalesce";
    doc = "coalescing random walks with voting, run to consensus";
    default_cap = Rwalk.default_cap;
    create =
      (fun g params ->
        let p = Coalesce.create g ~walkers:params.walkers ~start:params.start in
        {
          step = (fun rng -> Coalesce.step p rng);
          is_complete = (fun () -> Coalesce.is_consensus p);
          rounds = (fun () -> Coalesce.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Coalesce.round p));
                ("clusters", fi (Coalesce.clusters p));
                ("walkers", fi (Coalesce.walkers p));
                ("merged", fi (Coalesce.merged p));
              ]);
        });
  }

(* The unvisited-edge walk is never slower in expectation than the simple
   walk on the graphs studied here: the walk's cap. *)
let explore =
  {
    name = "explore";
    doc = "unvisited-edge-preferring walk, run to cover";
    default_cap = Rwalk.default_cap;
    create =
      (fun g params ->
        let p = Explore.create g ~start:params.start in
        {
          step = (fun rng -> Explore.step p rng);
          is_complete = (fun () -> Explore.is_covered p);
          rounds = (fun () -> Explore.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Explore.round p));
                ("visited", fi (Explore.visited_count p));
                ("edges", fi (Explore.edges_traversed p));
              ]);
        });
  }
