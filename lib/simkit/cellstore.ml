type t = {
  dir : string;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_puts : int Atomic.t;
}

type stats = { hits : int; misses : int; puts : int }

let schema = "cobra.cellstore/1"
let checkpoint_schema = "cobra.campaign-cell/1"

let open_ ~dir =
  Fsutil.mkdir_p dir;
  {
    dir;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_puts = Atomic.make 0;
  }

let dir store = store.dir

let key ~master id =
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d\n%s" master (Cellid.to_string id)))

let path store ~master id =
  let k = key ~master id in
  Filename.concat (Filename.concat store.dir (String.sub k 0 2)) (k ^ ".json")

let record_doc ~master id payload =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("master", Json.Int master);
      ("address", Json.String (Cellid.address id));
      ("meta_digest", Json.String (Cellid.digest id));
      ("salt", Json.Int (Cellid.salt id));
      ("digest", Json.String (Json.digest payload));
      ("payload", payload);
    ]

(* Every identity field is re-checked on read: an MD5 key collision, a
   tampered record or torn bytes all degrade to a miss (and a recompute)
   rather than a wrong answer. The two schemas differ only in where the
   meta digest comes from: a payload-only record stores it, a checkpoint
   stores the meta itself. *)
let validate ~master id doc =
  let str k = Option.bind (Json.member k doc) Json.to_string_opt in
  let int k = match Json.member k doc with Some (Json.Int i) -> Some i | _ -> None in
  let meta_digest =
    match str "schema" with
    | Some s when s = schema -> str "meta_digest"
    | Some s when s = checkpoint_schema -> Option.map Json.digest (Json.member "meta" doc)
    | _ -> None
  in
  meta_digest = Some (Cellid.digest id)
  && int "master" = Some master
  && str "address" = Some (Cellid.address id)
  && int "salt" = Some (Cellid.salt id)
  &&
  match (str "digest", Json.member "payload" doc) with
  | Some d, Some payload -> Json.digest payload = d
  | _ -> false

let find store ~master id =
  let result =
    match Json.of_file (path store ~master id) with
    | Error _ -> None
    | Ok doc -> if validate ~master id doc then Json.member "payload" doc else None
  in
  (match result with
  | Some _ -> Atomic.incr store.n_hits
  | None -> Atomic.incr store.n_misses);
  result

type 'a lookup = Own of 'a | Foreign of Json.t | Miss

(* A checkpoint-shaped record that renders back to its own bytes needs
   no field-by-field check: every identity field and the payload digest
   are part of the rendering. Anything else gets the full validation,
   and only another campaign's record, or a payload-only one, is a hit
   then: this campaign's own record with other bytes is a miss, which
   the put replaces. A hit is counted before [own] links the record. *)
let lookup store ~master id ~campaign ~index ~render own =
  let hit () = Atomic.incr store.n_hits in
  let found =
    Fsutil.read (path store ~master id) (fun bytes record ->
        match Json.of_string bytes with
        | Error _ -> Miss
        | Ok doc -> (
          let str k = Option.bind (Json.member k doc) Json.to_string_opt in
          match Json.member "payload" doc with
          | Some payload when str "schema" = Some checkpoint_schema && render payload = bytes ->
            hit ();
            Own (own bytes record)
          | Some payload
            when validate ~master id doc
                 && (str "schema" = Some schema
                    || str "campaign" <> Some campaign
                    || Json.member "index" doc <> Some (Json.Int index)) ->
            hit ();
            Foreign payload
          | _ -> Miss))
  in
  match found with
  | Ok ((Own _ | Foreign _) as found) -> found
  | Ok Miss | Error _ ->
    Atomic.incr store.n_misses;
    Miss

let put_record store ~master id record f =
  let p = path store ~master id in
  Fsutil.mkdir_p (Filename.dirname p);
  (* Concurrent puts of one key each write their own temp file; the
     survivor is a complete record with the same payload either way. *)
  Fsutil.write_held p record (fun held ->
      Atomic.incr store.n_puts;
      f held)

let put store ~master id payload =
  put_record store ~master id
    (Json.to_string ~pretty:true (record_doc ~master id payload) ^ "\n")
    ignore

let stats store =
  {
    hits = Atomic.get store.n_hits;
    misses = Atomic.get store.n_misses;
    puts = Atomic.get store.n_puts;
  }

let entries store =
  let count = ref 0 in
  let shard d =
    let dir = Filename.concat store.dir d in
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter
        (fun f -> if Filename.check_suffix f ".json" then incr count)
        (Sys.readdir dir)
  in
  if Sys.file_exists store.dir && Sys.is_directory store.dir then
    Array.iter shard (Sys.readdir store.dir);
  !count
