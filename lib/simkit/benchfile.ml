type row = { name : string; ns : float }
type t = { rows : row list }

let schema = "cobra.bench/1"

let section_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj [ ("name", Json.String r.name); ("ns", Json.Float r.ns) ])
             t.rows) );
    ]

let decode_row j =
  match
    ( Option.bind (Json.member "name" j) Json.to_string_opt,
      Option.bind (Json.member "ns" j) Json.to_number )
  with
  | Some name, Some ns -> Ok { name; ns }
  | _ -> Error "Benchfile: row must be {\"name\": string, \"ns\": number}"

let rec collect_rows acc = function
  | [] -> Ok (List.rev acc)
  | j :: rest -> (
    match decode_row j with
    | Ok r -> collect_rows (r :: acc) rest
    | Error _ as e -> e)

let of_json j =
  match j with
  | Json.Obj _ -> (
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema -> (
      match Option.bind (Json.member "rows" j) Json.to_list with
      | None -> Error "Benchfile: missing \"rows\" list"
      | Some rows -> (
        match collect_rows [] rows with
        | Ok rows -> Ok { rows }
        | Error _ as e -> e))
    | Some (Json.String s) -> Error (Printf.sprintf "Benchfile: unknown schema %S" s)
    | Some _ -> Error "Benchfile: \"schema\" must be a string"
    | None -> Error "Benchfile: missing \"schema\"")
  | _ -> Error "Benchfile: document must be an object"

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (to_json t));
      output_char oc '\n')

let load path = Result.bind (Json.of_file path) of_json

type section_verdict = {
  section : string;
  ratios : (string * float) list;
  median_ratio : float;
  regressed : bool;
}

type compare_result = {
  sections : section_verdict list;
  missing_sections : string list;
  threshold : float;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then Float.nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let compare ?(threshold = 1.25) ~old_ ~new_ () =
  let lookup_new = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace lookup_new r.name r.ns) new_.rows;
  (* Old-file section order, first appearance wins. *)
  let order = ref [] in
  let by_section = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let s = section_of r.name in
      if not (Hashtbl.mem by_section s) then begin
        Hashtbl.add by_section s (ref []);
        order := s :: !order
      end;
      let cell = Hashtbl.find by_section s in
      cell := r :: !cell)
    old_.rows;
  let sections = ref [] and missing = ref [] in
  List.iter
    (fun s ->
      let olds = List.rev !(Hashtbl.find by_section s) in
      let ratios =
        List.filter_map
          (fun r ->
            if r.ns <= 0.0 then None
            else
              match Hashtbl.find_opt lookup_new r.name with
              | Some ns_new -> Some (r.name, ns_new /. r.ns)
              | None -> None)
          olds
      in
      if ratios = [] then missing := s :: !missing
      else begin
        let m = median (List.map snd ratios) in
        sections :=
          { section = s; ratios; median_ratio = m; regressed = m > threshold }
          :: !sections
      end)
    (List.rev !order);
  {
    sections = List.rev !sections;
    missing_sections = List.rev !missing;
    threshold;
  }

let exit_code r =
  if List.exists (fun s -> s.regressed) r.sections then 1
  else if r.missing_sections <> [] then 2
  else 0
