(** The [cobra.rpc/1] wire protocol of the campaign service.

    Transport: a Unix-domain stream socket carrying line-delimited JSON
    — every request and every response is one complete JSON object on
    one ['\n']-terminated line, UTF-8, no embedded newlines (the
    {!Simkit.Json} printer never emits one). A connection carries one
    request and its response(s); clients reconnect per call. A request
    line longer than {!max_frame} bytes is answered with [bad-request]
    and the connection closed.

    {2 Requests}

    Every request is an object with an ["op"] field:

    - [{"op":"submit","client":C,"out":DIR,"master":M,"resume":B,
       "grid":INLINE}] — or ["grid_json":DOC] carrying a full
      [cobra.sweep-grid/1] document instead of the inline string.
      Submits a sweep campaign: the grid is expanded to cells, run by
      the daemon's dispatch lanes, checkpointed under [DIR] exactly
      as the batch [cobra sweep] path would (byte-identical records and
      manifest).
    - [{"op":"status","job":J}] — one snapshot of the job.
    - [{"op":"events","job":J}] — streamed: the server replays the
      job's [events.jsonl] lines (see {!Simkit.Campaign.event_to_json})
      and keeps tailing until the job reaches a terminal state, then
      sends one ordinary response line. Event lines carry no ["rpc"]
      field — that is how clients tell them from the terminal response.
    - [{"op":"cancel","job":J}] — stop scheduling the job's remaining
      cells (in-flight cells finish and are checkpointed; the job can
      later be resubmitted with [resume]).
    - [{"op":"stats"}] — daemon-wide snapshot: jobs, quotas, cache
      hit/miss/put counters.
    - [{"op":"shutdown"}] — stop accepting work and exit once in-flight
      cells finish (documented extension beyond the five core ops).

    {2 Responses}

    Every response carries [{"rpc":"cobra.rpc/1","ok":true,...}] on
    success or [{"rpc":"cobra.rpc/1","ok":false,"error":{"kind":K,
    "message":S}}] on failure, where [K] is one of [bad-request],
    [unknown-job], [quota-exceeded], [busy], [grid-error],
    [server-error] (see {!error_kind}). *)

val version : string
(** ["cobra.rpc/1"] *)

val max_frame : int
(** Longest request line the daemon reads, newline excluded: 1 MiB. *)

type submit = {
  client : string;  (** quota accounting identity *)
  grid : [ `Inline of string | `Doc of Simkit.Json.t ];
  out : string;  (** campaign checkpoint/output directory *)
  master : int;  (** master seed *)
  resume : bool;  (** allow continuing an initialised directory *)
}

type request =
  | Submit of submit
  | Status of { job : string }
  | Events of { job : string }
  | Cancel of { job : string }
  | Stats
  | Shutdown

(** Typed refusals. [Quota_exceeded] and [Busy] are the admission
    control surface: per-client limits and daemon saturation
    respectively. *)
type error_kind =
  | Bad_request  (** malformed request line or missing field *)
  | Unknown_job  (** no such job id *)
  | Quota_exceeded  (** per-client cell or in-flight quota *)
  | Busy  (** daemon saturated, directory in use, or shutting down *)
  | Grid_error  (** grid failed to parse/validate, or plan was refused *)
  | Server_error  (** unexpected internal failure *)

val error_kind_to_string : error_kind -> string
val error_kind_of_string : string -> (error_kind, string) result

val request_to_json : request -> Simkit.Json.t

(** [request_of_json doc] parses a request line; inverse of
    {!request_to_json} on its image. *)
val request_of_json : Simkit.Json.t -> (request, string) result

(** [ok_response fields] is [{"rpc":version,"ok":true}] extended with
    [fields]. *)
val ok_response : (string * Simkit.Json.t) list -> Simkit.Json.t

val error_response : error_kind -> string -> Simkit.Json.t

(** [is_response doc] — does [doc] carry the ["rpc"] marker? Event
    lines streamed by the [events] op do not. *)
val is_response : Simkit.Json.t -> bool

(** [response_error doc] extracts the typed error of a failed response;
    [None] when [doc.ok] is [true]. *)
val response_error : Simkit.Json.t -> (error_kind * string) option
