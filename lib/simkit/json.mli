(** Minimal JSON document model, emitter and parser.

    The structured results pipeline ({!Artifact} / {!Sink}) serialises
    experiment artifacts as JSON so that verdicts, tables and fits can be
    machine-read, regression-diffed and gated in CI without external
    dependencies. The parser exists so the test suite (and [make check])
    can validate that every emitted document parses back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty v] renders a document. [Float] values use the
    shortest decimal form that round-trips: integral values below 1e15
    as [%.1f], otherwise [%.12g] when that parses back to the same
    float, else [%.17g]; NaN renders as [null] and the infinities as
    [±1e999] (out-of-range literals that parse back to infinities).
    Every token is written straight into one buffer — no buffer per
    string, no [Printf] per number — and the bytes are exactly those of
    the earlier emitter that did both, which checkpoints, digests and
    manifests depend on ([test/simkit] keeps that emitter as the
    reference). *)
val to_string : ?pretty:bool -> t -> string

(** [output ?pretty oc v] writes the bytes of [to_string ?pretty v] to
    [oc] without building them as one string: the same emitter fills a
    buffer of a few KiB, which goes to [oc] between list elements
    whenever it is full. A document of any length costs that buffer
    (grown only to hold a list element longer than it), so a campaign's
    [grid.json] or [manifest.json] streams into its temp file instead of
    being built in the major heap. *)
val output : ?pretty:bool -> out_channel -> t -> unit

(** [digest v] is the hex MD5 of [to_string v] (the compact form): the
    content digest of campaign records, cache records and cell meta. *)
val digest : t -> string

(** [escape_string s] is the quoted, escaped JSON form of [s]. *)
val escape_string : string -> string

(** [float_repr x] is the number token {!to_string} emits for [x]. *)
val float_repr : float -> string

(** [of_string s] parses a complete document; trailing non-whitespace is
    an error. Numbers without [./e/E] parse as [Int] when they fit and
    as [Float] when they do not; text that is no number at all ([1-2],
    [+], [--5]) is an [Error], like any other malformed input. Total:
    it never raises. *)
val of_string : string -> (t, string) result

(** [of_file path] reads ({!Fsutil.read}) and parses [path]. Total: a
    path that cannot be opened or read (absent, a directory, no
    permission) is an [Error] carrying the system message, like a parse
    failure. *)
val of_file : string -> (t, string) result

(** [member key v] looks a field up in an [Obj] ([None] otherwise). *)
val member : string -> t -> t option

(** [to_list v] is the payload of a [List] ([None] otherwise). *)
val to_list : t -> t list option

(** [to_number v] widens [Int]/[Float] to float ([None] otherwise). *)
val to_number : t -> float option

(** [to_string_opt v] is the payload of a [String]. *)
val to_string_opt : t -> string option

(** [to_bool_opt v] is the payload of a [Bool]. *)
val to_bool_opt : t -> bool option
