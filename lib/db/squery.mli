(** Zero-copy request parsing for the serve front-end.

    Lexes the textual query syntax (see {!Qparse}) directly out of a
    request buffer into a reusable scratch query, in one forward scan
    per section: every symbol is hashed while it is scanned and probed
    against a per-schema {!Symtab.t}, a value's label hash and its
    integer form come out of the same pass, predicates land in growable
    int arrays, and nothing on the warm path allocates.  Acceptance and
    error messages agree with the reference pipeline
    ([Protocol.split_sections], [Qparse.parse], {!Query.create},
    [Exec.validate]) — same verdict, same message, same precedence — and
    [to_query] materializes exactly the reference's canonical query. *)

(** Interned schema symbols: table / attribute / foreign-key / value
    ids resolvable from byte slices without allocating.  Immutable;
    build once per schema and share across domains. *)
module Symtab : sig
  type t

  val of_schema : Schema.t -> t
  val table_name : t -> int -> string
end

type t
(** Reusable scratch query.  Not thread-safe: one per shard. *)

val create : Symtab.t -> t
val symtab : t -> Symtab.t

val parse : t -> Bytes.t -> off:int -> len:int -> unit
(** Parse [buf[off..off+len)] as a query body ([tvars ; joins ;
    selects]) into the scratch, replacing its previous contents.  The
    buffer is borrowed: slices into it stay live until the next
    [parse].  Raises [Failure] with the reference's message on any
    syntax or schema error, checked in the reference's order (section
    count, empty tuple-variable section, join syntax, each select in
    order, then {!Query.create}'s checks, then [Exec.validate]'s), and
    [Not_found] where the reference does (a select on a tuple variable
    bound to an unknown table).  Allocation-free on success. *)

val load_query : t -> Query.t -> unit
(** Load a materialized query into the scratch in place of a parsed
    body — EXPLAINPLAN's sub-queries, so they are canonicalized and
    keyed exactly like EST bodies.  Allocates (the tuple-variable
    names are copied into a fresh buffer).  Raises [Not_found] on a
    symbol the schema lacks and [Invalid_argument] on a value outside
    its domain. *)

val canon : t -> unit
(** Canonicalize in place ({!Canon.normalize} semantics): set values
    sort + dedup, singleton sets and one-point ranges collapse to Eq,
    tuple variables sort by name, joins and selects sort + dedup (on
    one packed int key per item, ordered by interned ids).
    Allocation-free once the scratch has warmed up. *)

val hash : t -> int
(** 63-bit FNV hash of the canonical content (call after [canon]).
    Equal canonical queries hash equal; never negative. *)

(** Immutable canonical snapshot of a scratch, stored beside cache
    entries so hash hits can be verified without allocating. *)
module Vec : sig
  type scratch = t
  type t

  val of_scratch : scratch -> t
  (** Allocates the snapshot itself, one exact-size string of
      variable-length ints (most ids take one byte) and the
      tuple-variable names; call on the miss path after [canon]. *)

  val empty : t
  (** Matches no scratch — a placeholder for cache sentinels. *)

  val matches : t -> scratch -> bool
  (** Full-key equality against a canonicalized scratch (its encoding,
      written into a reusable buffer, compared byte for byte).
      Allocation-free once the scratch has warmed up. *)

  val load : t -> scratch -> unit
  (** The inverse of {!of_scratch}: decode the snapshot into the
      scratch, replacing its contents with the canonical query it was
      taken from — [of_scratch], [hash], [skeleton_hash] and [to_query]
      then answer as they did for that query, with no [canon] needed.
      The scratch borrows the snapshot for its tuple-variable names
      until the next [parse] or [load].  Raises [Invalid_argument] on a
      string no [of_scratch] returned (e.g. {!empty}). *)

  val equal : t -> t -> bool
  (** Structural equality of two snapshots.  Allocation-free. *)

  val bytes : t -> int
  (** Approximate heap footprint, for cache accounting. *)
end

(** {2 The skeleton}

    Tuple variables with their tables, the joins, and the {e distinct}
    selected (tuple variable, attribute) pairs — predicate values
    excluded — read straight off a canonicalized scratch's interned ids.
    Queries with equal skeletons can share one compiled plan; the
    plan-cache key ({!Selest_serve.Canon.Skel}) is built from these. *)

val skeleton_hash : t -> int -> int
(** Fold the skeleton into a hash seed (FNV over its ids and
    tuple-variable names, as {!skeleton_snapshot} encodes them); 63-bit,
    never negative.  Allocation-free once the scratch has warmed up. *)

val skeleton_snapshot : t -> string
(** The skeleton as one compact string ({!Vec}'s encoding); allocates
    it. *)

val snapshot_hash : string -> int -> int
(** [snapshot_hash snap seed]: {!skeleton_hash} of the scratch whose
    {!skeleton_snapshot} is [snap], without the scratch. *)

val skeleton_matches : t -> string -> int -> bool
(** [skeleton_matches s key off]: does [key] hold exactly this
    skeleton's snapshot from [off] to its end?  Allocation-free once
    the scratch has warmed up. *)

(** {2 The canonical selects}

    The [k]-th select of the canonicalized scratch, [0 <= k <
    n_selects], in canonical (interned-id) order: its tuple variable
    (position in name order, i.e. the index into [to_query]'s [tvars]),
    attribute index, kind (0 Eq, 1 Range, 2 set), and operands — Eq's
    value in [sel_lo]; Range's bounds in [sel_lo]/[sel_hi]; a set's
    values at [pool s (sel_lo s k + i)] for [i < sel_hi s k], sorted
    and distinct. *)

val n_selects : t -> int
val sel_tv : t -> int -> int
val sel_attr : t -> int -> int
val sel_kind : t -> int -> int
val sel_lo : t -> int -> int
val sel_hi : t -> int -> int
val pool : t -> int -> int

val sel_pred : t -> int -> Query.pred
(** The [k]-th select's predicate (allocates it). *)

val to_query : t -> Query.t
(** Materialize the canonical query (call after [canon]).  Equals
    [Canon.normalize (Qparse.parse ...)] of the same body, including
    list orderings.  The server's estimate path does not call this per
    miss: it keys and loads evidence straight off the scratch, and
    materializes only to compile a cold skeleton's plan and for EXPLAIN,
    EXPLAINPLAN and the SLOWLOG replay. *)
