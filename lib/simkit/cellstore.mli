(** Content-addressed result cache for campaign cells.

    A store maps [(master seed, cell identity)] — where the identity is
    a {!Cellid.t}, i.e. [(canonical address, meta digest)] — to the
    cell's payload. Because a cell's payload is a pure function of
    [(master, salt)] and its salt is a pure function of the address,
    while the meta digest pins every other identity-bearing parameter
    (trials, base params, engine, backend), a stored payload is
    {e provably byte-identical} to what a recompute would produce. This
    is what makes the cache safe to share across users, campaigns and
    daemon restarts: a hit is never an approximation.

    Layout: one record per entry under [dir/<kk>/<key>.json] where
    [key] is the MD5 of [(master, cell id)] and [<kk>] its first two hex
    characters (a 256-way fan-out so directories stay small at millions
    of entries). A record has one of two schemas, and {!find} accepts
    both:
    - {!schema} ([cobra.cellstore/1]), written by the payload-only
      {!put}: address, meta digest, salt, payload and payload digest;
    - {!checkpoint_schema} ([cobra.campaign-cell/1]), written by
      {!Campaign} through {!put_record}: the campaign checkpoint of the
      cell, byte for byte — campaign name, index, address, salt, the
      meta itself, payload and payload digest.
    {!find} validates every identity field and the payload digest; the
    only difference between the schemas is where the meta digest comes
    from (stored, or the digest of the stored meta). A corrupt or
    colliding record is treated as a miss (reported through the miss
    counter) rather than trusted.

    Writes are atomic (unique temp file + rename, {!Fsutil.write_atomic}):
    concurrent writers — daemon dispatch lanes, or a daemon and a batch
    sweep sharing the store — can race on the same key and the survivor
    is a complete record with the same payload either way.

    Checkpoints linked to records: because a checkpoint-shaped record is
    exactly the bytes the campaign writes to [cells/], the campaign
    hard-links it into its directory ({!Fsutil.link_atomic}) instead of
    creating a new file, on a hit ({!lookup}) and after the put of a
    miss ({!put_record}): one [link(2)] straight onto the checkpoint's
    name, which replaces an old checkpoint there (a corrupt one, or a
    link to this record). A kill leaves the name absent, with its old
    file, or linked to a complete record. The checkpoint and its record
    then share one inode. No writer modifies a file in place (every
    write is a temp file renamed over the path), so neither side can
    change the other; an external in-place edit shows up on both sides
    and is caught by validation on both (the cache misses, a resume
    re-runs the cell as corrupt), never as a wrong hit. The campaign
    writes a fresh checkpoint instead when the link fails (the cache on
    another filesystem, [fs.protected_hardlinks], the link limit) or
    when the record's bytes are not its own rendering: a
    [cobra.cellstore/1] record, a record from a campaign with another
    name or index, or a record another campaign's concurrent put
    replaced.

    One read per hit: {!lookup} reads the record once and keeps it open
    while the campaign links it. A record that is this campaign's
    checkpoint, rendered again from its own payload, byte for byte, is
    valid by that equality alone, since the rendering carries every
    identity field and the payload digest; other records get the
    field-by-field validation of {!find}. The link is checked by the
    record's identity [(st_dev, st_ino)], not by reading it back: the
    record is held open, so its inode number cannot be reused in
    between, and a record replaced between the read and the link has
    another inode, so the link is refused and the checkpoint written as
    a file of its own. A put holds its new record open the same way.

    Hit/miss/put counters are atomic and process-wide per store handle,
    suitable for daemon [stats] reporting. *)

type t

val schema : string
(** ["cobra.cellstore/1"], the payload-only record {!put} writes *)

val checkpoint_schema : string
(** ["cobra.campaign-cell/1"], a campaign checkpoint
    ({!Campaign.cell_schema}) stored as the record through
    {!put_record} *)

(** [open_ ~dir] opens (creating if needed) the store rooted at [dir]. *)
val open_ : dir:string -> t

val dir : t -> string

(** [key ~master id] is the 32-hex-character store key. *)
val key : master:int -> Cellid.t -> string

(** [path store ~master id] is the record path for the entry. *)
val path : t -> master:int -> Cellid.t -> string

(** [find store ~master id] is the validated payload of a record of
    either schema, or [None] on a miss (absent, unreadable, not a
    regular file, or failing any identity/digest check). Updates the
    hit/miss counters. *)
val find : t -> master:int -> Cellid.t -> Json.t option

(** [put store ~master id payload] writes a {!schema} record for the
    entry atomically, overwriting any previous record for the key. *)
val put : t -> master:int -> Cellid.t -> Json.t -> unit

(** How {!lookup} found the entry's record. *)
type 'a lookup =
  | Own of 'a
      (** the record is the campaign's own checkpoint of the cell, byte
          for byte: the result of the callback, run with the record
          held open *)
  | Foreign of Json.t
      (** a valid record with other bytes — a {!schema} record, or the
          checkpoint of a campaign with another name or index: its
          payload *)
  | Miss
      (** absent, unreadable (a FIFO or anything else that is not a
          regular file, read without blocking) or invalid, or the
          campaign's own checkpoint with bytes other than its
          rendering *)

(** [lookup store ~master id ~campaign ~index ~render own] reads the
    entry's record once, for the cell [index] of the campaign named
    [campaign], whose checkpoint of a payload [p] is [render p]. A
    {!checkpoint_schema} record whose payload renders back to exactly
    its bytes is [Own (own bytes record)], with [record] held open
    while [own] runs; anything else is validated like {!find}. Counts a
    hit for [Own] and [Foreign] and a miss for [Miss]. *)
val lookup :
  t ->
  master:int ->
  Cellid.t ->
  campaign:string ->
  index:int ->
  render:(Json.t -> string) ->
  (string -> Fsutil.held -> 'a) ->
  'a lookup

(** [put_record store ~master id record f] writes [record] verbatim as
    the entry's record, atomically, overwriting any previous record for
    the key, then runs [f] on the new record, held open. {!Campaign}
    passes the rendered checkpoint of the cell (schema
    {!checkpoint_schema}) and links the record onto the checkpoint's
    name in [f] ({!Fsutil.link_atomic}). Bytes that do not validate as
    either schema only make later lookups miss. *)
val put_record : t -> master:int -> Cellid.t -> string -> (Fsutil.held -> 'a) -> 'a

type stats = {
  hits : int;  (** successful {!find}s and {!lookup}s *)
  misses : int;  (** {!find}s and {!lookup}s that missed *)
  puts : int;  (** records written *)
}

val stats : t -> stats

(** [entries store] counts the records currently on disk (a directory
    walk; intended for observability, not hot paths). *)
val entries : t -> int
