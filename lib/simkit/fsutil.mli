(** Filesystem helpers shared by campaign checkpoints ({!Campaign}), the
    result cache ({!Cellstore}), the event log ({!Eventlog}) and the
    campaign daemon.

    The one writer ({!write_with}, and its string forms) and the linker
    ({!link_atomic}) build the new file under a temp name beside the
    target and rename it over the target; neither ever modifies an
    existing file in place. The temp name is unique to the writer
    (process id plus a process-wide counter), so two writers putting the
    same path at once never share a half-written file, and the last
    rename wins with a complete file. When a write fails, the temp file
    is removed before the exception propagates: a failed write leaves
    nothing behind. No fsync: a file survives a process kill, not a
    power loss. *)

(** [mkdir_p path] creates [path] and any missing parents. A directory
    that appears concurrently (another writer won the race) is not an
    error. *)
val mkdir_p : string -> unit

(** A file held open, with the path it was opened under and its
    identity [(st_dev, st_ino)]. While the file is held its inode cannot
    be freed, so no other file can take its identity: a name that still
    shows this identity still names these bytes, because no writer
    modifies a published file in place. *)
type held

(** [write_with path emit f] is the one atomic writer: [emit] writes the
    new contents into a channel on a temp file beside [path], the temp
    file is renamed over [path], and [f] runs on the file just
    published, held open until [f] returns. A kill leaves either the old
    file or the complete new one, never a torn record. [emit] may write
    in as many pieces as it likes ({!Json.output} streams a document of
    any size through a few KiB); the channel buffers them. Raises if
    [emit] raises, or [Sys_error] if the write or the rename fails (for
    example when [path] is a non-empty directory), after removing the
    temp file. *)
val write_with : string -> (out_channel -> unit) -> (held -> 'a) -> 'a

(** [write_held path content f] is {!write_with} given
    [output_string _ content]. *)
val write_held : string -> string -> (held -> 'a) -> 'a

(** [write_atomic path content] is [write_held path content ignore]. *)
val write_atomic : string -> string -> unit

(** [read path f] opens [path], reads all of it, and runs [f] on its
    bytes and the file, held open until [f] returns. Total in the read:
    a path that cannot be opened or read (absent, a directory, no
    permission, truncated while read) is an [Error] carrying the system
    message; exceptions from [f] propagate. *)
val read : string -> (string -> held -> 'a) -> ('a, string) result

(** [link_atomic src path] makes [path] a hard link to the held file
    [src]: it links [src]'s path to a temp name beside [path], checks
    that the link has [src]'s identity, and renames it over [path].
    Returns [true] when [path] now shares [src]'s inode.

    Returns [false], leaving [path] untouched and no temp file behind,
    when the link fails ([src]'s path absent, [EXDEV] across
    filesystems, [EPERM] under [fs.protected_hardlinks], [EMLINK]) or
    when [src]'s path names another file by then (a concurrent rename
    replaced it), so the caller can fall back to {!write_atomic}. The
    identity check needs no read: [src] is held, so its identity is not
    reused, and its bytes are the ones the caller read or wrote. Raises
    (after removing the temp file) only if the rename fails. *)
val link_atomic : held -> string -> bool
