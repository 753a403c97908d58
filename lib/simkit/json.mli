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
    shortest decimal form that round-trips; NaN renders as [null] and the
    infinities as [±1e999] (out-of-range literals that parse back to
    infinities). *)
val to_string : ?pretty:bool -> t -> string

(** [digest v] is the hex MD5 of [to_string v] (the compact form): the
    content digest of campaign records, cache records and cell meta. *)
val digest : t -> string

(** [escape_string s] is the quoted, escaped JSON form of [s]. *)
val escape_string : string -> string

(** [float_repr x] is the number token {!to_string} emits for [x]. *)
val float_repr : float -> string

(** [of_string s] parses a complete document; trailing non-whitespace is
    an error. Numbers without [./e/E] parse as [Int] when they fit. *)
val of_string : string -> (t, string) result

(** [of_file path] reads and parses [path]. *)
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
