type t = {
  dir : string;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_puts : int Atomic.t;
}

type stats = { hits : int; misses : int; puts : int }

let schema = "cobra.cellstore/1"

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
   rather than a wrong answer. *)
let validate ~master id doc =
  let str k = Option.bind (Json.member k doc) Json.to_string_opt in
  let int k = match Json.member k doc with Some (Json.Int i) -> Some i | _ -> None in
  str "schema" = Some schema
  && int "master" = Some master
  && str "address" = Some (Cellid.address id)
  && str "meta_digest" = Some (Cellid.digest id)
  && int "salt" = Some (Cellid.salt id)
  &&
  match (str "digest", Json.member "payload" doc) with
  | Some d, Some payload -> Json.digest payload = d
  | _ -> false

let find store ~master id =
  let p = path store ~master id in
  let result =
    if not (Sys.file_exists p) then None
    else
      match Json.of_file p with
      | Error _ -> None
      | Ok doc ->
        if validate ~master id doc then Json.member "payload" doc else None
  in
  (match result with
  | Some _ -> Atomic.incr store.n_hits
  | None -> Atomic.incr store.n_misses);
  result

let put store ~master id payload =
  let p = path store ~master id in
  Fsutil.mkdir_p (Filename.dirname p);
  (* Concurrent puts of one key each write their own temp file; the
     survivor is a complete record with the same bytes either way. *)
  Fsutil.write_atomic p (Json.to_string ~pretty:true (record_doc ~master id payload) ^ "\n");
  Atomic.incr store.n_puts

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
