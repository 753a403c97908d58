type t = {
  start : Artifact.meta -> unit;
  event : Artifact.event -> unit;
  finish : Artifact.t -> unit;
}

let null =
  { start = (fun _ -> ()); event = (fun _ -> ()); finish = (fun _ -> ()) }

let console () =
  { start = Report.start; event = Report.render_event; finish = (fun _ -> ()) }

let tee sinks =
  {
    start = (fun meta -> List.iter (fun s -> s.start meta) sinks);
    event = (fun e -> List.iter (fun s -> s.event e) sinks);
    finish = (fun a -> List.iter (fun s -> s.finish a) sinks);
  }

(* Create [dir] (and its parents) if missing. *)
let ensure_dir dir =
  Fsutil.mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Sink: %s exists and is not a directory" dir)

let write_text path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let json ~dir =
  {
    start = (fun _ -> ());
    event = (fun _ -> ());
    finish =
      (fun artifact ->
        ensure_dir dir;
        let path =
          Filename.concat dir (Artifact.basename artifact.Artifact.meta ^ ".json")
        in
        write_text path (Json.to_string ~pretty:true (Artifact.to_json artifact));
        Printf.printf "wrote %s\n" path);
  }

let csv ~dir =
  {
    start = (fun _ -> ());
    event = (fun _ -> ());
    finish =
      (fun artifact ->
        ensure_dir dir;
        let stem = Artifact.basename artifact.Artifact.meta in
        List.iteri
          (fun i (tb : Artifact.table) ->
            let path =
              Filename.concat dir (Printf.sprintf "%s.t%d.csv" stem (i + 1))
            in
            let rows =
              List.map
                (fun row -> List.map Artifact.cell_to_raw_string row)
                tb.Artifact.rows
            in
            Csvout.write_file path ~header:tb.Artifact.columns rows;
            Printf.printf "wrote %s\n" path)
          (Artifact.tables artifact));
  }

let manifest_schema_version = "cobra.run-manifest/1"

let write_manifest ~dir artifacts =
  ensure_dir dir;
  let experiments =
    List.map
      (fun (a : Artifact.t) ->
        Json.Obj
          [
            ("id", Json.String a.Artifact.meta.Artifact.id);
            ("slug", Json.String a.Artifact.meta.Artifact.slug);
            ("file", Json.String (Artifact.basename a.Artifact.meta ^ ".json"));
            ("pass", Json.Bool (Artifact.passed a));
            ("elapsed_s", Json.Float a.Artifact.elapsed_s);
          ])
      artifacts
  in
  let scale, master, domains =
    match artifacts with
    | a :: _ ->
      ( Json.String a.Artifact.meta.Artifact.scale,
        Json.Int a.Artifact.meta.Artifact.master,
        Json.Int a.Artifact.meta.Artifact.domains )
    | [] -> (Json.Null, Json.Null, Json.Null)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String manifest_schema_version);
        ("scale", scale);
        ("master_seed", master);
        ("domains", domains);
        ("pass", Json.Bool (List.for_all Artifact.passed artifacts));
        ("experiments", Json.List experiments);
      ]
  in
  let path = Filename.concat dir "manifest.json" in
  write_text path (Json.to_string ~pretty:true doc);
  path
