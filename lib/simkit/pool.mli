(** A reusable fixed-size domain pool for embarrassingly parallel batches.

    The pool owns [domains - 1] worker domains (the caller participates as
    the final lane). A batch [run pool ~n f] evaluates [f i] for every
    [i = 0 .. n - 1] exactly once, distributing contiguous index chunks
    over the lanes with an atomic cursor. Because work is identified by
    index — not by arrival order — callers that write result [i] into slot
    [i] of a pre-allocated array obtain {e bit-for-bit deterministic}
    output regardless of the number of domains or the scheduling of
    chunks. This is the property {!Trial.collect} builds on.

    Exceptions raised by [f] do not deadlock the batch: the first one is
    captured, the remaining chunks are drained without running [f], and
    the exception is re-raised in the caller once every lane has
    finished. *)

type t

(** [create ~domains] spawns a pool with [domains] total lanes
    ([domains - 1] worker domains plus the caller). Raises
    [Invalid_argument] unless [domains >= 1]. [domains = 1] spawns no
    workers; [run] then degenerates to an exact sequential loop. *)
val create : domains:int -> t

(** [size pool] is the total number of lanes (including the caller). *)
val size : t -> int

(** [run pool ~n f] evaluates [f i] for [i = 0 .. n - 1], each exactly
    once, across the pool's lanes. Returns when every call has finished.
    Re-raises the first exception raised by any [f i] (after all lanes
    have stopped). [f] must be safe to call from any domain; distinct
    indices must not race on shared mutable state. *)
val run : t -> n:int -> (int -> unit) -> unit

(** [shutdown pool] joins the worker domains. The pool must not be used
    afterwards. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] with a transient pool, always
    shutting it down (even on exceptions). *)
val with_pool : domains:int -> (t -> 'a) -> 'a

(** [domains_of_string s] parses a domain count: a positive integer.
    Errors are human-readable (used to reject bad [COBRA_DOMAINS]
    values). *)
val domains_of_string : string -> (int, string) result

(** [default_domains ()] is the domain count selected by the
    [COBRA_DOMAINS] environment variable, defaulting to
    [Domain.recommended_domain_count ()]. Raises [Invalid_argument] with
    a clear message if the variable is set to garbage. *)
val default_domains : unit -> int

(** [default ()] is the lazily-created process-wide pool, sized by
    {!default_domains}. Shared by every [Trial] runner call that does not
    pass an explicit domain count. *)
val default : unit -> t
