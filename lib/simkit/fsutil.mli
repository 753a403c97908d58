(** Filesystem helpers shared by campaign checkpoints ({!Campaign}), the
    result cache ({!Cellstore}), the event log ({!Eventlog}) and the
    campaign daemon.

    No file is ever modified in place. The one writer ({!write_with},
    and its string forms) builds the new file under a temp name beside
    the target and renames it over the target. The temp name is unique
    to the writer (process id plus a process-wide counter), so two
    writers putting the same path at once never share a half-written
    file, and the last rename wins with a complete file. When a write
    fails, the temp file is removed before the exception propagates: a
    failed write leaves nothing behind. The linker ({!link_atomic})
    makes one [link(2)] straight onto the target name, whose inode
    already holds a complete file.

    What a kill leaves at a name: its old file, nothing (between the
    linker's removal of an old name and its link), or a complete new
    file; never a torn one. No fsync: a file survives a process kill,
    not a power loss. *)

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

(** [read path f] opens [path], takes its size and identity from one
    [fstat], reads exactly that many bytes, and runs [f] on them and the
    file, held open until [f] returns. Only a regular file is read: the
    open does not block (a FIFO with no writer is opened at once), and
    anything else is refused. Total in the read: a path that cannot be
    opened or read (absent, a directory, a FIFO or any other file that
    is not regular, no permission, truncated while read) is an [Error]
    naming the path and the reason; exceptions from [f] propagate. *)
val read : string -> (string -> held -> 'a) -> ('a, string) result

(** [link_atomic src path] makes [path] a hard link to the held file
    [src] with one [link(2)] of [src]'s path onto [path]. When a name
    already exists at [path] (a corrupt checkpoint, a dangling symlink,
    or a link to [src] itself), it is removed and the link made once
    more. Then [path] is [lstat]ed: returns [true] when it shares
    [src]'s identity.

    Returns [false] when the link fails ([src]'s path absent, [EXDEV]
    across filesystems, [EPERM] under [fs.protected_hardlinks],
    [EMLINK], or a name again in the way), leaving [path] as it was or
    absent; and when [src]'s path names another file by then (a
    concurrent rename replaced it), after removing that link, so [path]
    is absent. Either way the caller can fall back to {!write_atomic}.
    The identity check needs no read: [src] is held, so its identity is
    not reused, and its bytes are the ones the caller read or wrote.
    Raises [Sys_error] only if an old name cannot be removed (a
    directory at [path]).

    A kill leaves [path] with its old file, absent (a pending cell to a
    campaign's resume), or a link to a complete record. *)
val link_atomic : held -> string -> bool
