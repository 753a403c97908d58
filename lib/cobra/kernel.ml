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

let fi = float_of_int

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
              for w = 0 to params.walkers - 1 do
                let next = Graph.View.unsafe_random_neighbour g rng positions.(w) in
                positions.(w) <- next;
                if not (Bitset.unsafe_mem seen next) then begin
                  Bitset.unsafe_add seen next;
                  decr remaining
                end
              done;
              incr rounds);
          is_complete = (fun () -> !remaining = 0);
          rounds = (fun () -> !rounds);
          observe =
            (fun () ->
              [ ("rounds", fi !rounds); ("visited", fi (n - !remaining)) ]);
        });
  }

(* One push round: every informed vertex, in increasing order
   ([Bitset.iter] is the increasing word scan, so sparse early rounds on
   a large universe skip empty words), pushes to one checked neighbour
   draw; informing applies synchronously after the scan, as in the COBRA
   round structure. *)
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
              Bitset.iter
                (fun u ->
                  incr transmissions;
                  let w = Graph.View.random_neighbour g rng u in
                  if not (Bitset.unsafe_mem informed w) then
                    Dstruct.Intvec.push newly w)
                informed;
              Dstruct.Intvec.iter
                (fun w ->
                  if not (Bitset.unsafe_mem informed w) then begin
                    Bitset.unsafe_add informed w;
                    incr count
                  end)
                newly;
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
                if not (Bitset.mem informed u) then begin
                  incr transmissions;
                  let w = Graph.View.random_neighbour g rng u in
                  if Bitset.unsafe_mem informed w then Dstruct.Intvec.push newly u
                end
              done;
              Dstruct.Intvec.iter
                (fun w ->
                  if not (Bitset.unsafe_mem informed w) then begin
                    Bitset.unsafe_add informed w;
                    incr count
                  end)
                newly;
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
   newly informed apply synchronously, in list-prepend order. *)
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
        let count = ref 1 and rounds = ref 0 and transmissions = ref 0 in
        {
          step =
            (fun rng ->
              let newly = ref [] in
              for u = 0 to n - 1 do
                incr transmissions;
                let w = Graph.View.random_neighbour g rng u in
                let iu = Bitset.mem informed u and iw = Bitset.mem informed w in
                if iu && not iw then newly := w :: !newly
                else if iw && not iu then newly := u :: !newly
              done;
              List.iter
                (fun w ->
                  if not (Bitset.mem informed w) then begin
                    Bitset.add informed w;
                    incr count
                  end)
                !newly;
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
