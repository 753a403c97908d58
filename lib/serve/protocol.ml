module Json = Simkit.Json

let version = "cobra.rpc/1"

let max_frame = 1 lsl 20

type submit = {
  client : string;
  grid : [ `Inline of string | `Doc of Json.t ];
  out : string;
  master : int;
  resume : bool;
}

type request =
  | Submit of submit
  | Status of { job : string }
  | Events of { job : string }
  | Cancel of { job : string }
  | Stats
  | Shutdown

type error_kind =
  | Bad_request
  | Unknown_job
  | Quota_exceeded
  | Busy
  | Grid_error
  | Server_error

let error_kind_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_job -> "unknown-job"
  | Quota_exceeded -> "quota-exceeded"
  | Busy -> "busy"
  | Grid_error -> "grid-error"
  | Server_error -> "server-error"

let error_kind_of_string = function
  | "bad-request" -> Ok Bad_request
  | "unknown-job" -> Ok Unknown_job
  | "quota-exceeded" -> Ok Quota_exceeded
  | "busy" -> Ok Busy
  | "grid-error" -> Ok Grid_error
  | "server-error" -> Ok Server_error
  | s -> Error (Printf.sprintf "unknown error kind %S" s)

let request_to_json = function
  | Submit s ->
    let grid_field =
      match s.grid with
      | `Inline g -> ("grid", Json.String g)
      | `Doc d -> ("grid_json", d)
    in
    Json.Obj
      [
        ("op", Json.String "submit");
        ("client", Json.String s.client);
        ("out", Json.String s.out);
        ("master", Json.Int s.master);
        ("resume", Json.Bool s.resume);
        grid_field;
      ]
  | Status { job } -> Json.Obj [ ("op", Json.String "status"); ("job", Json.String job) ]
  | Events { job } -> Json.Obj [ ("op", Json.String "events"); ("job", Json.String job) ]
  | Cancel { job } -> Json.Obj [ ("op", Json.String "cancel"); ("job", Json.String job) ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let str_field doc k =
  match Option.bind (Json.member k doc) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let job_field doc = str_field doc "job"

let request_of_json doc =
  match doc with
  | Json.Obj _ -> (
    match str_field doc "op" with
    | Error e -> Error e
    | Ok "submit" ->
      let ( let* ) = Result.bind in
      let* client = str_field doc "client" in
      let* out = str_field doc "out" in
      let* master =
        match Json.member "master" doc with
        | Some (Json.Int m) -> Ok m
        | _ -> Error "missing or non-integer field \"master\""
      in
      let resume =
        match Option.bind (Json.member "resume" doc) Json.to_bool_opt with
        | Some b -> b
        | None -> false
      in
      let* grid =
        match (Json.member "grid" doc, Json.member "grid_json" doc) with
        | Some (Json.String g), None -> Ok (`Inline g)
        | None, Some d -> Ok (`Doc d)
        | Some _, Some _ -> Error "both \"grid\" and \"grid_json\" given"
        | _ -> Error "submit needs \"grid\" (inline string) or \"grid_json\""
      in
      Ok (Submit { client; grid; out; master; resume })
    | Ok "status" -> Result.map (fun job -> Status { job }) (job_field doc)
    | Ok "events" -> Result.map (fun job -> Events { job }) (job_field doc)
    | Ok "cancel" -> Result.map (fun job -> Cancel { job }) (job_field doc)
    | Ok "stats" -> Ok Stats
    | Ok "shutdown" -> Ok Shutdown
    | Ok op -> Error (Printf.sprintf "unknown op %S" op))
  | _ -> Error "request must be a JSON object"

let ok_response fields =
  Json.Obj (("rpc", Json.String version) :: ("ok", Json.Bool true) :: fields)

let error_response kind message =
  Json.Obj
    [
      ("rpc", Json.String version);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("kind", Json.String (error_kind_to_string kind));
            ("message", Json.String message);
          ] );
    ]

let is_response doc = Json.member "rpc" doc <> None

let response_error doc =
  match Option.bind (Json.member "ok" doc) Json.to_bool_opt with
  | Some true -> None
  | _ ->
    let err = Json.member "error" doc in
    let kind =
      match
        Option.bind err (fun e ->
            Option.bind (Json.member "kind" e) Json.to_string_opt)
      with
      | Some k -> (
        match error_kind_of_string k with Ok k -> k | Error _ -> Server_error)
      | None -> Server_error
    in
    let message =
      match
        Option.bind err (fun e ->
            Option.bind (Json.member "message" e) Json.to_string_opt)
      with
      | Some m -> m
      | None -> "malformed error response"
    in
    Some (kind, message)
