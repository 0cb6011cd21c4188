(** Zero-copy request parsing for the serve front-end.

    Lexes the textual query syntax (see {!Qparse}) directly out of a
    request buffer into a reusable scratch query: symbols are interned
    against a per-schema {!Symtab.t}, predicates land in growable int
    arrays, and nothing on the warm path allocates.  Acceptance agrees
    with the reference pipeline ([Qparse.parse], {!Query.create},
    [Exec.validate]): a body parses here iff the reference accepts it,
    and [to_query] materializes exactly the reference's canonical
    query. *)

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
    [parse].  Raises [Failure] with a descriptive message on any
    syntax or schema error (same acceptance as the reference
    pipeline).  Allocation-free on success. *)

val canon : t -> unit
(** Canonicalize in place ({!Canon.normalize} semantics): set values
    sort + dedup, singleton sets and one-point ranges collapse to Eq,
    tuple variables sort by name, joins and selects sort + dedup.
    Allocation-free once the scratch has warmed up. *)

val hash : t -> int
(** 63-bit FNV hash of the canonical content (call after [canon]).
    Equal canonical queries hash equal; never negative. *)

val n_selects : t -> int

(** Immutable canonical snapshot of a scratch, stored beside cache
    entries so hash hits can be verified without allocating. *)
module Vec : sig
  type scratch = t
  type t

  val of_scratch : scratch -> t
  (** Allocates; call on the miss path after [canon]. *)

  val empty : t
  (** Matches no scratch — a placeholder for cache sentinels. *)

  val matches : t -> scratch -> bool
  (** Full-key equality against a canonicalized scratch.
      Allocation-free. *)

  val equal : t -> t -> bool
  (** Structural equality of two snapshots.  Allocation-free. *)

  val bytes : t -> int
  (** Approximate heap footprint, for cache accounting. *)
end

val to_query : t -> Query.t
(** Materialize the canonical query (call after [canon]).  Equals
    [Canon.normalize (Qparse.parse ...)] of the same body, including
    list orderings.  The server's estimate path no longer calls this
    per miss: it keys and binds straight off the scratch
    ({!add_skeleton}, the [select_*] readers), and materializes only to
    compile a cold skeleton's plan and for EXPLAIN, EXPLAINPLAN and the
    SLOWLOG replay. *)

(** {2 The miss path, read off the scratch}

    Everything below reads a canonicalized scratch (call after
    [canon]) in exactly [to_query]'s orderings — tuple variables by
    name, joins by (child, foreign-key {e name}), selects by (tuple
    variable, attribute {e name}, predicate) — using the symtab's
    precomputed name ranks, so no string is compared and no [Query.t]
    is built.  The name order is computed once per [canon] (insertion
    sorts into scratch permutations) on the first call. *)

val add_skeleton : Buffer.t -> t -> unit
(** Append the query's skeleton — [tv:table;...|child.fk=parent;...|
    tv.attr;...] over the {e distinct} selected attributes — byte for
    byte as [Canon.Skel.make] renders it after its [name#version|]
    prefix for [to_query]'s result. *)

val select_tv : t -> int -> int
(** [select_tv s k]: the tuple-variable position (in name order, i.e.
    the index into [to_query]'s [tvars]) of the [k]-th select of
    [to_query]'s select list, [0 <= k < n_selects s]. *)

val select_attr : t -> int -> int
(** The [k]-th select's attribute index in its table's schema. *)

val select_pred : t -> int -> Query.pred
(** The [k]-th select's predicate (allocates it). *)
