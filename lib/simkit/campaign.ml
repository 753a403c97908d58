type cell = {
  index : int;
  address : string;
  meta : (string * Json.t) list;
  run : master:int -> salt:int -> Json.t;
}

type event =
  | Started of {
      name : string;
      total : int;
      pending : int;
      reused : int;
      corrupted : int;
    }
  | Cell_done of {
      index : int;
      address : string;
      cached : bool;
      done_ : int;
      of_ : int;
      elapsed_s : float;
      cells_per_s : float;
      eta_s : float;
    }
  | Corrupt_rerun of {
      index : int;
      address : string;
      path : string;
      reason : string;
    }
  | Finished of {
      ran : int;
      cached : int;
      reused : int;
      corrupted : int;
      remaining : int;
      manifest : string option;
    }

type config = {
  dir : string;
  master : int;
  resume : bool;
  max_cells : int option;
  domains : int option;
  cache : Cellstore.t option;
  progress : event -> unit;
}

type report = {
  total : int;
  ran : int;
  cached : int;
  reused : int;
  corrupted : int;
  remaining : int;
  manifest : string option;
}

let grid_schema = "cobra.campaign-grid/2"
let cell_schema = Cellstore.checkpoint_schema
let manifest_schema = "cobra.campaign/1"

let cellid c = Cellid.make ~address:c.address ~meta:c.meta

let salt_of_address a = Seeds.salt_of_tag ("campaign:" ^ a)

(* ---------- events ---------- *)

let event_to_json = function
  | Started { name; total; pending; reused; corrupted } ->
    Json.Obj
      [
        ("event", Json.String "started");
        ("campaign", Json.String name);
        ("total", Json.Int total);
        ("pending", Json.Int pending);
        ("reused", Json.Int reused);
        ("corrupted", Json.Int corrupted);
      ]
  | Cell_done { index; address; cached; done_; of_; elapsed_s; cells_per_s; eta_s }
    ->
    Json.Obj
      [
        ("event", Json.String "cell");
        ("index", Json.Int index);
        ("address", Json.String address);
        ("cached", Json.Bool cached);
        ("done", Json.Int done_);
        ("of", Json.Int of_);
        ("elapsed_s", Json.Float elapsed_s);
        ("cells_per_s", Json.Float cells_per_s);
        ("eta_s", Json.Float eta_s);
      ]
  | Corrupt_rerun { index; address; path; reason } ->
    Json.Obj
      [
        ("event", Json.String "corrupt");
        ("index", Json.Int index);
        ("address", Json.String address);
        ("path", Json.String path);
        ("reason", Json.String reason);
      ]
  | Finished { ran; cached; reused; corrupted; remaining; manifest } ->
    Json.Obj
      [
        ("event", Json.String "finished");
        ("ran", Json.Int ran);
        ("cached", Json.Int cached);
        ("reused", Json.Int reused);
        ("corrupted", Json.Int corrupted);
        ("remaining", Json.Int remaining);
        ( "manifest",
          match manifest with Some p -> Json.String p | None -> Json.Null );
      ]

let event_of_json doc =
  let ( let* ) = Result.bind in
  let str k =
    match Option.bind (Json.member k doc) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "event: missing string field %S" k)
  in
  let int k =
    match Json.member k doc with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "event: missing int field %S" k)
  in
  let flt k =
    match Option.bind (Json.member k doc) Json.to_number with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "event: missing number field %S" k)
  in
  let* kind = str "event" in
  match kind with
  | "started" ->
    let* name = str "campaign" in
    let* total = int "total" in
    let* pending = int "pending" in
    let* reused = int "reused" in
    let* corrupted = int "corrupted" in
    Ok (Started { name; total; pending; reused; corrupted })
  | "cell" ->
    let* index = int "index" in
    let* address = str "address" in
    let cached = Json.member "cached" doc = Some (Json.Bool true) in
    let* done_ = int "done" in
    let* of_ = int "of" in
    let* elapsed_s = flt "elapsed_s" in
    let* cells_per_s = flt "cells_per_s" in
    let* eta_s = flt "eta_s" in
    Ok (Cell_done { index; address; cached; done_; of_; elapsed_s; cells_per_s; eta_s })
  | "corrupt" ->
    let* index = int "index" in
    let* address = str "address" in
    let* path = str "path" in
    let* reason = str "reason" in
    Ok (Corrupt_rerun { index; address; path; reason })
  | "finished" ->
    let* ran = int "ran" in
    let* cached = int "cached" in
    let* reused = int "reused" in
    let* corrupted = int "corrupted" in
    let* remaining = int "remaining" in
    let manifest =
      match Json.member "manifest" doc with
      | Some (Json.String p) -> Some p
      | _ -> None
    in
    Ok (Finished { ran; cached; reused; corrupted; remaining; manifest })
  | k -> Error (Printf.sprintf "event: unknown kind %S" k)

let event_to_string = function
  | Started { name; total; pending; reused; corrupted } ->
    Printf.sprintf "campaign %s: running %d of %d cells (%d reused, %d corrupt re-queued)"
      name pending total reused corrupted
  | Cell_done { index; address; cached; done_; of_; elapsed_s; cells_per_s; eta_s }
    ->
    Printf.sprintf "[%d/%d] cell #%d %s%s (%.1f cells/s, elapsed %.1fs, eta %.1fs)"
      done_ of_ index address
      (if cached then " [cached]" else "")
      cells_per_s elapsed_s eta_s
  | Corrupt_rerun { address; path; reason; _ } ->
    Printf.sprintf "corrupt checkpoint %s: %s — re-running cell %S" path reason
      address
  | Finished { ran; cached; reused; corrupted; remaining; manifest } ->
    Printf.sprintf
      "finished: %d ran, %d cached, %d reused, %d corrupt re-run, %d remaining%s"
      ran cached reused corrupted remaining
      (match manifest with Some p -> "; manifest " ^ p | None -> "")

(* ---------- filesystem layout ----------

   Every record is written with [Fsutil.write_with] or linked with
   [Fsutil.link_atomic]: a kill leaves either no record, the old one or
   a complete new one, never a half-written record masquerading as a
   checkpoint. *)

let cell_file_name index = Printf.sprintf "cell_%05d.json" index

let cell_rel_path index = Filename.concat "cells" (cell_file_name index)

(* The campaign-wide documents ([grid.json], [manifest.json]) grow with
   the cell count, so they stream into their temp file instead of being
   rendered as one string: the same bytes as
   [Json.to_string ~pretty:true doc ^ "\n"]. *)
let write_document path doc =
  Fsutil.write_with path
    (fun oc ->
      Json.output ~pretty:true oc doc;
      output_char oc '\n')
    ignore

(* ---------- record shapes ---------- *)

(* Each cell's [meta] is part of the campaign identity: addresses alone
   encode only the grid axes, so without the meta a resume after changing
   e.g. trial counts or base parameters would silently reuse stale
   checkpoints. *)
let grid_doc ~name ~master cells =
  Json.Obj
    [
      ("schema", Json.String grid_schema);
      ("campaign", Json.String name);
      ("master", Json.Int master);
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("index", Json.Int c.index);
                   ("address", Json.String c.address);
                   ("meta", Json.Obj c.meta);
                 ])
             cells) );
    ]

let cell_doc ~name ~master cell payload =
  Json.Obj
    [
      ("schema", Json.String cell_schema);
      ("campaign", Json.String name);
      ("master", Json.Int master);
      ("index", Json.Int cell.index);
      ("address", Json.String cell.address);
      ("salt", Json.Int (salt_of_address cell.address));
      ("meta", Json.Obj cell.meta);
      ("digest", Json.String (Json.digest payload));
      ("payload", payload);
    ]

(* ---------- checkpoint validation ---------- *)

(* A record's [bytes] are trusted only if every identity field matches
   the grid and the stored digest matches the payload re-rendered:
   truncation and parse corruption fail the parse, content corruption
   fails the digest or a field comparison. *)
let validate_cell ~name ~master cell bytes =
  let field key doc = Json.member key doc in
  let check_string key expected doc =
    match Option.bind (field key doc) Json.to_string_opt with
    | Some s when s = expected -> Ok ()
    | Some s -> Error (Printf.sprintf "%s %S does not match expected %S" key s expected)
    | None -> Error (Printf.sprintf "missing %s" key)
  in
  let check_int key expected doc =
    match field key doc with
    | Some (Json.Int i) when i = expected -> Ok ()
    | Some (Json.Int i) ->
      Error (Printf.sprintf "%s %d does not match expected %d" key i expected)
    | _ -> Error (Printf.sprintf "missing %s" key)
  in
  let ( let* ) = Result.bind in
  match Json.of_string bytes with
  | Error msg -> Error msg
  | Ok doc ->
    let* () = check_string "schema" cell_schema doc in
    let* () = check_string "campaign" name doc in
    let* () = check_int "master" master doc in
    let* () = check_int "index" cell.index doc in
    let* () = check_string "address" cell.address doc in
    let* () = check_int "salt" (salt_of_address cell.address) doc in
    let* () =
      (* Structural comparison is sound because [Json.to_string]/[of_file]
         round-trip value-preservingly (floats keep their tag). *)
      match field "meta" doc with
      | Some m when m = Json.Obj cell.meta -> Ok ()
      | Some _ -> Error "meta does not match the expected cell meta"
      | None -> Error "missing meta"
    in
    (match (field "digest" doc, field "payload" doc) with
    | Some (Json.String digest), Some payload ->
      if Json.digest payload = digest then Ok ()
      else Error "payload digest mismatch"
    | _ -> Error "missing digest or payload")

(* ---------- the plan / execute / finalize layers ---------- *)

(* The MD5 of the checkpoint of each cell the campaign placed or reused,
   16 bytes per cell index, and whether that slot is filled. A slot is
   written by [plan] or by the one lane that executed its cell; the
   daemon lock, or [Pool.run]'s completion barrier, orders that write
   before [finalize] reads it. *)
type digests = { md5 : Bytes.t; filled : Bytes.t }

let note digests index bytes =
  Bytes.blit_string (Digest.string bytes) 0 digests.md5 (16 * index) 16;
  Bytes.set digests.filled index '\001'

let noted digests index = Bytes.get digests.filled index <> '\000'

type plan = {
  p_name : string;
  p_config : config;
  p_cells : cell list;
  p_pending : cell list;
  p_reused : int;
  p_corrupt : (cell * string * string) list;
  p_digests : digests;
}

let check_cells cells =
  let seen = Hashtbl.create 64 in
  let rec go i = function
    | [] -> Ok ()
    | c :: rest ->
      if c.index <> i then
        Error (Printf.sprintf "cell %d has index %d: indices must be positional" i c.index)
      else if c.address = "" then Error (Printf.sprintf "cell %d: empty address" i)
      else if Hashtbl.mem seen c.address then
        Error (Printf.sprintf "duplicate cell address %S" c.address)
      else begin
        Hashtbl.add seen c.address ();
        go (i + 1) rest
      end
  in
  go 0 cells

let load_or_init_grid config ~name ~cells =
  let path = Filename.concat config.dir "grid.json" in
  let desired = grid_doc ~name ~master:config.master cells in
  if Sys.file_exists path then
    if not config.resume then
      Error
        (Printf.sprintf
           "campaign directory %s is already initialised; pass --resume to \
            continue it or choose a fresh --out directory"
           config.dir)
    else
      match Json.of_file path with
      | Error msg -> Error (Printf.sprintf "unreadable %s: %s" path msg)
      | Ok existing ->
        if existing = desired then Ok ()
        else
          Error
            (Printf.sprintf
               "%s belongs to a different campaign (name, master seed, cell \
                grid or cell parameters differ); refusing to mix checkpoints"
               path)
  else begin
    write_document path desired;
    Ok ()
  end

let plan config ~name ~cells =
  let ( let* ) = Result.bind in
  let* () = check_cells cells in
  Fsutil.mkdir_p config.dir;
  Fsutil.mkdir_p (Filename.concat config.dir "cells");
  let* () = load_or_init_grid config ~name ~cells in
  let* listing =
    try Ok (Sys.readdir (Filename.concat config.dir "cells"))
    with Sys_error msg -> Error ("cannot list the checkpoints: " ^ msg)
  in
  (* Classify every cell: a valid checkpoint is reused, anything else
     (missing, or corrupt — which is reported, never silently skipped)
     queues for execution. One listing of cells/ says which checkpoints
     exist; any entry under a checkpoint's name, even one that cannot be
     read, is validated. *)
  let present = Hashtbl.create (Array.length listing) in
  Array.iter (fun f -> Hashtbl.replace present f ()) listing;
  let n = List.length cells in
  let digests = { md5 = Bytes.create (16 * n); filled = Bytes.make n '\000' } in
  let reused = ref 0 and corrupt = ref [] in
  let pending =
    List.filter
      (fun c ->
        if not (Hashtbl.mem present (cell_file_name c.index)) then true
        else
          let path = Filename.concat config.dir (cell_rel_path c.index) in
          let valid =
            Fsutil.read path (fun bytes _ ->
                Result.map
                  (fun () -> note digests c.index bytes)
                  (validate_cell ~name ~master:config.master c bytes))
          in
          match Result.join valid with
          | Ok () ->
            incr reused;
            false
          | Error reason ->
            corrupt := (c, path, reason) :: !corrupt;
            true)
      cells
  in
  Ok
    {
      p_name = name;
      p_config = config;
      p_cells = cells;
      p_pending = pending;
      p_reused = !reused;
      p_corrupt = List.rev !corrupt;
      p_digests = digests;
    }

(* The checkpoint is rendered once. With a cache, a miss stores exactly
   those bytes as the cell's record (before the checkpoint exists, so a
   kill in between loses nothing), and on a hit or a miss the record is
   then hard-linked into [cells/] while it is held open; the checkpoint
   is written as a file of its own only when the link fails or the
   record holds other bytes. Either way the checkpoint holds the
   rendered bytes, and their digest goes into the plan's table. *)
let execute_cell plan cell =
  let config = plan.p_config and master = plan.p_config.master in
  let id = cellid cell in
  let render payload =
    Json.to_string ~pretty:true (cell_doc ~name:plan.p_name ~master cell payload) ^ "\n"
  in
  let compute () = cell.run ~master ~salt:(Cellid.salt id) in
  let checkpoint = Filename.concat config.dir (cell_rel_path cell.index) in
  let write bytes =
    Fsutil.write_atomic checkpoint bytes;
    bytes
  in
  let link bytes record = if Fsutil.link_atomic record checkpoint then bytes else write bytes in
  let bytes, provenance =
    match config.cache with
    | None -> (write (render (compute ())), `Ran)
    | Some store -> (
      match
        Cellstore.lookup store ~master id ~campaign:plan.p_name ~index:cell.index ~render
          link
      with
      | Cellstore.Own bytes -> (bytes, `Cached)
      | Cellstore.Foreign payload -> (write (render payload), `Cached)
      | Cellstore.Miss ->
        let bytes = render (compute ()) in
        (Cellstore.put_record store ~master id bytes (link bytes), `Ran))
  in
  note plan.p_digests cell.index bytes;
  provenance

let remaining plan =
  List.length (List.filter (fun c -> not (noted plan.p_digests c.index)) plan.p_cells)

let finalize plan =
  if remaining plan > 0 then None
  else begin
    let config = plan.p_config and md5 = plan.p_digests.md5 in
    let entries =
      List.map
        (fun c ->
          Json.Obj
            [
              ("index", Json.Int c.index);
              ("address", Json.String c.address);
              ("salt", Json.Int (salt_of_address c.address));
              ("file", Json.String (cell_rel_path c.index));
              ("digest", Json.String (Digest.to_hex (Bytes.sub_string md5 (16 * c.index) 16)));
            ])
        plan.p_cells
    in
    let doc =
      Json.Obj
        [
          ("schema", Json.String manifest_schema);
          ("campaign", Json.String plan.p_name);
          ("master", Json.Int config.master);
          ("cells", Json.List entries);
        ]
    in
    let path = Filename.concat config.dir "manifest.json" in
    write_document path doc;
    Some path
  end

(* ---------- the batch driver ---------- *)

let run config ~name ~cells =
  match plan config ~name ~cells with
  | Error _ as e -> e
  | Ok p ->
    let total = List.length cells in
    let corrupted = List.length p.p_corrupt in
    let to_run =
      match config.max_cells with
      | None -> Array.of_list p.p_pending
      | Some m -> Array.of_list (List.filteri (fun i _ -> i < m) p.p_pending)
    in
    let n_run = Array.length to_run in
    let mutex = Mutex.create () in
    let events = Eventlog.open_ ~path:(Filename.concat config.dir "events.jsonl") in
    let emit e =
      Eventlog.append events (event_to_json e);
      config.progress e
    in
    emit
      (Started { name; total; pending = n_run; reused = p.p_reused; corrupted });
    List.iter
      (fun (c, path, reason) ->
        emit (Corrupt_rerun { index = c.index; address = c.address; path; reason }))
      p.p_corrupt;
    let t0 = Unix.gettimeofday () in
    let finished = ref 0 and ran = ref 0 and cached = ref 0 in
    let run_cell i =
      let c = to_run.(i) in
      let provenance = execute_cell p c in
      Mutex.lock mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mutex)
        (fun () ->
          incr finished;
          (match provenance with `Ran -> incr ran | `Cached -> incr cached);
          let done_ = !finished in
          let elapsed = Unix.gettimeofday () -. t0 in
          let rate = if elapsed > 0.0 then float_of_int done_ /. elapsed else 0.0 in
          let eta =
            if rate > 0.0 then float_of_int (n_run - done_) /. rate else 0.0
          in
          emit
            (Cell_done
               {
                 index = c.index;
                 address = c.address;
                 cached = (provenance = `Cached);
                 done_;
                 of_ = n_run;
                 elapsed_s = elapsed;
                 cells_per_s = rate;
                 eta_s = eta;
               }))
    in
    let outcome =
      try
        (match config.domains with
        | Some d -> Pool.with_pool ~domains:d (fun pool -> Pool.run pool ~n:n_run run_cell)
        | None -> Pool.run (Pool.default ()) ~n:n_run run_cell);
        Ok ()
      with exn ->
        Error
          (Printf.sprintf "cell execution failed: %s (completed cells are \
                           checkpointed; re-run with --resume)"
             (Printexc.to_string exn))
    in
    (match outcome with
    | Error _ as e ->
      Eventlog.close events;
      e
    | Ok () ->
      let remaining = List.length p.p_pending - n_run in
      let manifest = if remaining = 0 then finalize p else None in
      let report =
        {
          total;
          ran = !ran;
          cached = !cached;
          reused = p.p_reused;
          corrupted;
          remaining;
          manifest;
        }
      in
      emit
        (Finished
           {
             ran = !ran;
             cached = !cached;
             reused = p.p_reused;
             corrupted;
             remaining;
             manifest;
           });
      Eventlog.close events;
      Ok report)
