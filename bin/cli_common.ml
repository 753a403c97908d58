(* Shared cmdliner vocabulary for every cobra_cli subcommand: one
   converter and one documented term per recurring option, so flags
   spell, parse and document identically across the whole CLI. *)

open Cmdliner

(* ---------- argument converters ---------- *)

let graph_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Graph.Spec.parse s) in
  let print ppf spec = Format.pp_print_string ppf (Graph.Spec.to_string spec) in
  Arg.conv (parse, print)

let backend_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Graph.View.backend_of_string s) in
  let print ppf b = Format.pp_print_string ppf (Graph.View.backend_to_string b) in
  Arg.conv (parse, print)

let branching_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Cobra.Branching.of_string s) in
  let print ppf b = Format.pp_print_string ppf (Cobra.Branching.to_arg b) in
  Arg.conv (parse, print)

let scale_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Simkit.Scale.of_string s) in
  Arg.conv (parse, Simkit.Scale.pp)

(* ---------- common terms ---------- *)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let trials_t =
  Arg.(value & opt int 20 & info [ "trials" ] ~docv:"N" ~doc:"Number of trials.")

let graph_t =
  Arg.(
    required
    & opt (some graph_conv) None
    & info [ "g"; "graph" ] ~docv:"GRAPH" ~doc:("Graph description. " ^ Graph.Spec.syntax_help))

let backend_t =
  Arg.(
    value
    & opt backend_conv `Heap
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Topology backend: heap (materialised CSR, the default), bigarray \
           (off-heap int32 CSR; closed-form families stream in without heap \
           materialisation), or implicit (closed-form families only, O(1) \
           memory). All backends draw bit-identical RNG streams for the same \
           topology.")

let branching_t =
  Arg.(
    value
    & opt branching_conv Cobra.Branching.cobra_k2
    & info [ "b"; "branching" ] ~docv:"BRANCHING"
        ~doc:"Branching factor: k=<int>, 1+<rho>, or distinct=<int> (default k=2).")

let cap_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cap" ] ~docv:"ROUNDS" ~doc:"Give up after this many rounds.")

let start_t =
  Arg.(value & opt int 0 & info [ "start" ] ~docv:"V" ~doc:"Start vertex.")

let u_t =
  Arg.(value & opt int 0 & info [ "u" ] ~docv:"U" ~doc:"COBRA start vertex.")

let v_t =
  Arg.(value & opt int 1 & info [ "v" ] ~docv:"V" ~doc:"Hitting target / BIPS source.")

let t_t ~default =
  Arg.(value & opt int default & info [ "t" ] ~docv:"T" ~doc:"Horizon (rounds).")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the raw per-trial values as CSV.")

let out_t ~default ~doc =
  Arg.(value & opt string default & info [ "out" ] ~docv:"DIR" ~doc)

(* ---------- shared helpers ---------- *)

let build_graph ?(backend = `Heap) spec ~seed =
  let rng = Simkit.Seeds.tagged_rng ~master:seed ~tag:"cli:graph" in
  match Graph.Spec.build_view spec ~backend rng with
  | Ok g -> g
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

let print_graph_line g spec =
  Printf.printf "graph %s: %s\n" (Graph.Spec.to_string spec)
    (Format.asprintf "%a" Graph.View.pp g)

let summarize_trials name values censored =
  let s = Stats.Summary.of_array values in
  Printf.printf "%s: mean=%.2f" name (Stats.Summary.mean s);
  if Stats.Summary.count s >= 2 then begin
    let ci = Stats.Ci.mean_ci s in
    Printf.printf " ci95=[%.2f, %.2f] sd=%.2f" ci.Stats.Ci.lo ci.Stats.Ci.hi
      (Stats.Summary.stddev s)
  end;
  Printf.printf " min=%.0f max=%.0f n=%d" (Stats.Summary.min s)
    (Stats.Summary.max s) (Stats.Summary.count s);
  if censored > 0 then Printf.printf " censored=%d" censored;
  print_newline ()

let write_trials_csv path values =
  let rows =
    Array.to_list
      (Array.mapi
         (fun i v ->
           [ string_of_int i; (match v with Some x -> string_of_int x | None -> "") ])
         values)
  in
  Simkit.Csvout.write_file path ~header:[ "trial"; "value" ] rows;
  Printf.printf "wrote %s\n" path

(* ---------- kernel trials ---------- *)

(* Every single-shot subcommand runs its trials through [collect], trial
   i on salt i. A kernel, or the trial runner, rejecting an argument (a
   start vertex out of range, no walkers, no trials) raises
   [Invalid_argument]: a usage error, reported like a bad --graph rather
   than as an uncaught exception. *)
let collect ~seed ~trials measure =
  try Simkit.Trial.collect_par ~trials ~master:seed ~salt0:0 measure
  with Invalid_argument msg ->
    flush stdout;
    Printf.eprintf "error: %s\n" msg;
    exit 2

let run_process_trials ?csv ~seed ~trials ~name kernel g params =
  let raw = collect ~seed ~trials (Cobra.Kernel.completion_time kernel g params) in
  Option.iter (fun path -> write_trials_csv path raw) csv;
  let values = Array.of_list (List.filter_map Fun.id (Array.to_list raw)) in
  if Array.length values = 0 then print_endline "every trial hit the cap"
  else
    summarize_trials name
      (Array.map Float.of_int values)
      (trials - Array.length values)

let observation_exn o key =
  match Cobra.Kernel.observation o key with
  | Some v -> v
  | None -> failwith ("kernel observation missing: " ^ key)
