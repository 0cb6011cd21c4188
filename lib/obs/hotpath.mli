(** Domain-local hot-path counters for the inference kernels.

    Unlike spans these are always on: each counter bump is a plain
    mutable-field increment on a domain-local record — no lock, no
    atomic, no branch on an enabled flag — cheap enough for the factor
    kernels (one bump per {e kernel call}, never per table entry).

    Counters accumulate monotonically per domain.  {!measure} takes a
    snapshot around a callback and returns the delta; its
    allocation-free halves, {!begin_delta} and {!end_delta}, are how the
    server attributes kernel work to one request and rolls it into
    service-level metrics. *)

type t = {
  mutable factor_ops : int;  (** kernel invocations (product / sum-out / marginalize) *)
  mutable entries_touched : int;  (** table entries read or written by kernels *)
  mutable max_factor_entries : int;  (** largest intermediate factor table built *)
  mutable program_hits : int;
      (** plan program-memo hits (a warm request ran an already-compiled
          bytecode program for its restricted-variable set) *)
  mutable program_misses : int;
      (** program-memo misses (a bytecode program was compiled for a new
          restricted-variable set before running) *)
}

val get : unit -> t
(** The calling domain's live counter record. *)

val kernel : entries:int -> out:int -> unit
(** Bump [factor_ops], add [entries] to [entries_touched], and raise the
    [max_factor_entries] high-water mark to [out] if larger. *)

val program_hit : unit -> unit
val program_miss : unit -> unit

val measure : (unit -> 'a) -> 'a * t
(** [measure f] runs [f] and returns the counter deltas it caused on
    this domain.  [max_factor_entries] in the delta is the high-water
    mark reached {e during} [f] (the surrounding mark is restored
    afterwards).  Work done by other domains (e.g. pool workers) is not
    included — measure inside the worker, not around the dispatch. *)

val create : unit -> t
(** A zeroed record — the target for {!begin_delta}/{!end_delta}. *)

val begin_delta : t -> unit
(** [begin_delta d] records this domain's counters into [d] and scopes
    the [max_factor_entries] high-water mark, like entering
    {!measure}.  Allocation-free: a request path keeps one [d] per
    shard. *)

val end_delta : t -> unit
(** Turn [d] into the deltas since its {!begin_delta} on this domain
    (same semantics as {!measure}'s result, the enclosing mark
    restored).  Allocation-free. *)

val to_pairs : t -> (string * int) list
(** Stable [name, value] listing, for STATS / EXPLAIN rendering. *)
