(** Filesystem helpers shared by campaign checkpoints ({!Campaign}), the
    result cache ({!Cellstore}), the event log ({!Eventlog}) and the
    campaign daemon. *)

(** [mkdir_p path] creates [path] and any missing parents. A directory
    that appears concurrently (another writer won the race) is not an
    error. *)
val mkdir_p : string -> unit

(** [write_atomic path content] writes [content] to a temp file beside
    [path] and renames it over [path]: a kill leaves either the old file
    or the complete new one, never a torn record. The temp name is
    unique to the writer (process id plus a process-wide counter), so
    two writers putting the same path at once never share a half-written
    file; the last rename wins with a complete record. No fsync: the
    record survives a process kill, not a power loss. *)
val write_atomic : string -> string -> unit
