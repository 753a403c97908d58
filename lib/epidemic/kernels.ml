module K = Cobra.Kernel

let fi = float_of_int

let sis =
  {
    K.name = "sis";
    doc = "discrete SIS epidemic, run to extinction or full exposure";
    default_cap = K.round_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        let p =
          Sis.create g
            { Sis.contacts = params.K.branching; recovery = params.K.recovery }
            ~persistent:(if params.K.persistent then Some params.K.start else None)
            ~start:(if params.K.persistent then [] else [ params.K.start ])
        in
        {
          K.step = (fun rng -> Sis.step p rng);
          is_complete =
            (fun () -> Sis.is_extinct p || Sis.ever_infected_count p = n);
          rounds = (fun () -> Sis.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Sis.round p));
                ("infected", fi (Sis.infected_count p));
                ("ever", fi (Sis.ever_infected_count p));
                ("extinct", if Sis.is_extinct p then 1.0 else 0.0);
              ]);
        });
  }

(* The contact process is event-driven with no round structure: one
   kernel step performs the entire simulation (to absorption or the
   horizon) on the given stream, consuming exactly [Contact.run]'s
   draws; further steps are draw-free no-ops. [Still_active] maps to
   "capped", matching the discrete kernels' censoring semantics.
   [rounds] counts step invocations — not the single run — so the
   driver loop's [rounds < cap] test reaches any caller-supplied cap
   and terminates even when a [Still_active] outcome keeps
   [is_complete] false. *)
let contact =
  {
    K.name = "contact";
    doc = "continuous-time contact process (one step = whole run)";
    default_cap = (fun _ -> 1);
    create =
      (fun g params ->
        let result = ref None in
        let steps = ref 0 in
        let persistent = if params.K.persistent then Some params.K.start else None in
        let start = if params.K.persistent then [] else [ params.K.start ] in
        {
          K.step =
            (fun rng ->
              incr steps;
              if !result = None then
                result :=
                  Some
                    (Contact.run ~horizon:params.K.horizon g
                       ~infection_rate:params.K.rate ~persistent ~start rng));
          is_complete =
            (fun () ->
              match !result with
              | Some { Contact.outcome = Contact.Died_out _ | Contact.Fully_exposed _; _ }
                ->
                true
              | Some { Contact.outcome = Contact.Still_active _; _ } | None -> false);
          rounds = (fun () -> !steps);
          observe =
            (fun () ->
              match !result with
              | None -> [ ("rounds", 0.0) ]
              | Some r ->
                let code, time =
                  match r.Contact.outcome with
                  | Contact.Died_out t -> (0.0, t)
                  | Contact.Fully_exposed t -> (1.0, t)
                  | Contact.Still_active t -> (2.0, t)
                in
                [
                  ("rounds", fi !steps);
                  ("outcome", code);
                  ("time", time);
                  ("ever", fi r.Contact.ever_infected);
                  ("events", fi r.Contact.events);
                ]);
        });
  }

let seir =
  {
    K.name = "seir";
    doc = "discrete SEIR epidemic with fixed latencies, run to absorption";
    default_cap = K.round_cap;
    create =
      (fun g params ->
        let p =
          Seir.create g
            {
              Seir.contacts = params.K.branching;
              latent_rounds = params.K.latent_rounds;
              infectious_rounds = params.K.infectious_rounds;
            }
            ~index_cases:[ params.K.start ]
        in
        let n = Graph.View.n_vertices g in
        {
          K.step = (fun rng -> Seir.step p rng);
          is_complete = (fun () -> Seir.is_absorbed p);
          rounds = (fun () -> Seir.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Seir.round p));
                ("ever", fi (Seir.ever_infected_count p));
                ("attack", fi (Seir.ever_infected_count p) /. fi n);
                ("peak", fi (Seir.peak_infectious p));
                ("gen_r", Seir.generational_r p);
                ("extinct", if Seir.is_absorbed p then 1.0 else 0.0);
              ]);
        });
  }

let herd =
  {
    K.name = "herd";
    doc = "BVDV-style herd model, run to full exposure or extinction";
    default_cap = K.round_cap;
    create =
      (fun g params ->
        let n = Graph.View.n_vertices g in
        let hp =
          {
            Herd.contacts = params.K.branching;
            infectious_rounds = params.K.infectious_rounds;
            immune_rounds = params.K.immune_rounds;
          }
        in
        let pi = if params.K.persistent then [ params.K.start ] else [] in
        let index_cases = if params.K.persistent then [] else [ params.K.start ] in
        let h = Herd.create g hp ~pi ~index_cases in
        {
          K.step = (fun rng -> Herd.step h rng);
          is_complete =
            (fun () -> Herd.ever_exposed_count h = n || Herd.is_extinct h);
          rounds = (fun () -> Herd.round h);
          observe =
            (fun () ->
              [
                ("rounds", fi (Herd.round h));
                ("ever", fi (Herd.ever_exposed_count h));
                ("infectious", fi (Herd.infectious_count h));
                ("extinct", if Herd.is_extinct h then 1.0 else 0.0);
              ]);
        });
  }
