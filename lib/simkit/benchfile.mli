(** Versioned benchmark result files and the regression comparator.

    [bench/main.exe --json] writes a [cobra.bench/1] document: a list of
    named rows, each a nanoseconds-per-run estimate. Rows are grouped
    into sections by the prefix before the first ['/'] in their name
    (["E1/cover-3reg-n1024"] is in section ["E1"]; a name without ['/']
    is its own section). [make bench-compare OLD=a.json NEW=b.json]
    diffs two such files section by section and fails CI when the median
    new/old ratio of any shared section exceeds the regression
    threshold, or when a section disappears. *)

(** One benchmark estimate: [ns] nanoseconds per run. *)
type row = { name : string; ns : float }

type t = { rows : row list }

(** ["cobra.bench/1"]. *)
val schema : string

(** Section key of a row name: the prefix before the first ['/'], or the
    whole name when there is none. *)
val section_of : string -> string

(** Versioned document: [{"schema": "cobra.bench/1", "rows": [{"name":
    ..., "ns": ...}, ...]}]. *)
val to_json : t -> Json.t

(** Accepts the versioned form only. A missing or unknown schema and a
    malformed row are errors. *)
val of_json : Json.t -> (t, string) result

(** [write path t] saves the versioned document, pretty-printed. *)
val write : string -> t -> unit

(** [load path] reads and {!of_json}-decodes a file. *)
val load : string -> (t, string) result

(** Per-section comparison verdict. [ratios] maps each row name shared
    by both files to its new/old time ratio; [median_ratio] is the
    median of those (ratio > 1 means the new file is slower);
    [regressed] is [median_ratio > threshold]. Sections with no shared
    rows are reported in {!compare_result.missing_sections} instead. *)
type section_verdict = {
  section : string;
  ratios : (string * float) list;
  median_ratio : float;
  regressed : bool;
}

type compare_result = {
  sections : section_verdict list; (* shared sections, by name *)
  missing_sections : string list; (* in old, no shared rows in new *)
  threshold : float;
}

(** [compare ~old_ ~new_] diffs two files. [threshold] defaults to
    [1.25]: a section regresses when its median new/old ratio exceeds
    +25%. Rows with non-positive old time are skipped (no meaningful
    ratio). *)
val compare : ?threshold:float -> old_:t -> new_:t -> unit -> compare_result

(** Exit status for a comparison, as used by [bench/compare.exe]:
    [0] no regression; [1] at least one section regressed; [2] at least
    one section of the old file has no shared rows in the new file.
    (Parse and usage failures are exit [3], handled by the driver.)
    Regression takes precedence over missing sections. *)
val exit_code : compare_result -> int
