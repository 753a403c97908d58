(* perfbench — the campaign benchmark.

   usage: bench.exe --cobra PATH --workload NAME --seed N --seconds S
                    --trace 0|1 [--commit SHA]

   perfbench/run.sh builds the CLI and this program and passes --cobra.
   With --trace 0 the run drives the CLI as a user would and reports the
   end-to-end metrics; with --trace 1 it reports the per-layer metrics
   (see layers.ml). The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}; a human table goes to stderr;
   the same metrics, with host metadata, are written as a cobra.bench/1
   file under .bench_build/results/ (rows e2e/<workload>/<metric> and
   layer/<workload>/<metric>), which bench/compare.exe can diff. *)

open Proc
module Json = Simkit.Json

(* The pool size every process of the benchmark runs with, whatever the
   host: the workloads stay the same work everywhere, and nproc is
   recorded next to the results. *)
let domains = 2

let results_dir = ".bench_build/results"

let usage () =
  Printf.eprintf
    "usage: bench.exe --cobra PATH --workload (%s) --seed N --seconds S --trace 0|1 \
     [--commit SHA]\n"
    (String.concat "|" (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

(* A digest of the library and CLI sources, identifying the code measured
   when the checkout carries no git metadata. *)
let source_md5 () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let host ~seed ~commit ~workload ~trace =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("cobra_domains", Json.Int domains);
      ("git_commit", Json.String commit);
      ("source_md5", Json.String (source_md5 ()));
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
    ]

let e2e_metrics (s : E2e.samples) =
  let rtt_ms = List.map (fun x -> 1e3 *. x) s.rtt in
  let p95, v95 = Arith.tail_percentile ~want:95 rtt_ms in
  let metrics =
    [
      Layers.m "wall_s" "s" (Arith.median s.wall);
      Layers.m "cached_s" "s" (Arith.median s.cached);
      Layers.m "setup_s" "s" (Arith.median s.setup);
      Layers.m "peak_rss_mib" "MiB" (Arith.median s.rss_kib /. 1024.0);
    ]
  in
  let notes =
    [
      ("iterations", Json.Int (List.length s.wall));
      ("wall_samples", Json.List (List.rev_map (fun x -> Json.Float x) s.wall));
      ("cached_samples", Json.List (List.rev_map (fun x -> Json.Float x) s.cached));
      ("setup_samples", Json.List (List.rev_map (fun x -> Json.Float x) s.setup));
      ("rpc_samples", Json.Int (List.length rtt_ms));
      ("rpc_p50_ms", Json.Float (Arith.median rtt_ms));
      ("rpc_p95_ms", Json.Float v95);
      ("rpc_p95_percentile_used", Json.Int p95);
    ]
  in
  (metrics, notes)

let () =
  let cobra = ref "" and workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--cobra" :: v :: rest -> cobra := v; parse rest
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed, seconds, trace =
    match (Workloads.find !workload, !seed, !seconds, !trace) with
    | Some w, Some seed, Some seconds, Some trace when !cobra <> "" && seconds > 0.0 ->
      (w, seed, seconds, trace)
    | _ -> usage ()
  in
  let work =
    Printf.sprintf ".bench_build/work/%s-s%d-p%d" w.Workloads.name seed (Unix.getpid ())
  in
  let ctx = { cobra = !cobra; master = seed; domains; work; env = child_env ~domains } in
  (* Every child is killed and reaped and the scratch removed however
     the run ends, including on SIGTERM/SIGINT. *)
  at_exit (fun () ->
      kill_all ();
      rm_rf work;
      settle_fs ());
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rm_rf work;
  mkdir_p work;
  mkdir_p results_dir;
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name seed (if trace then 1 else 0) in
  let t = tally () in
  let metrics, notes, section =
    if trace then
      ( Layers.measure ctx t w ~spans_path:(Filename.concat results_dir (tag ^ ".spans.jsonl")),
        [],
        "layer" )
    else
      let m, n = e2e_metrics (E2e.measure ctx t w ~seconds) in
      (m, n, "e2e")
  in
  let correct = t.failed = 0 && List.for_all (fun x -> Float.is_finite x.Layers.value) metrics in
  List.iter
    (fun x ->
      Printf.eprintf "%-36s %14.6g %s\n" x.Layers.name x.Layers.value x.Layers.unit_)
    metrics;
  Printf.eprintf "attempted %d, failed %d (failed_frac %.6f)\n" t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted));
  let rows =
    List.map
      (fun x ->
        Json.Obj
          [
            ("name", Json.String (Printf.sprintf "%s/%s/%s" section w.name x.Layers.name));
            ("ns", Json.Float x.Layers.value);
          ])
      metrics
  in
  Out_channel.with_open_bin
    (Filename.concat results_dir (tag ^ ".json"))
    (fun oc ->
      output_string oc
        (Json.to_string ~pretty:true
           (Json.Obj
              ([
                 ("schema", Json.String Simkit.Benchfile.schema);
                 ("host", host ~seed ~commit:!commit ~workload:w.name ~trace);
                 ("attempted", Json.Int t.attempted);
                 ("failed", Json.Int t.failed);
               ]
              @ notes
              @ [ ("rows", Json.List rows) ])));
      output_char oc '\n');
  let value x = if Float.is_finite x then Json.Float x else Json.Null in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 t.attempted));
            ("failed", Json.Int t.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.Layers.name,
                       Json.Obj [ ("value", value x.Layers.value); ("unit", Json.String x.Layers.unit_) ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
