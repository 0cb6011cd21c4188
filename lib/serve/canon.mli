(** Canonical cache keys for select–keyjoin queries.

    An optimizer probes the estimation service many times with queries that
    are written differently but mean the same thing: predicates in a
    different order, a set predicate listing its values differently, a
    degenerate range [a..a] instead of an equality.  The estimate cache
    ({!Lru}) keys on the {e canonical form} so all of them hit the same
    entry.

    Canonicalization is purely syntactic over the already-coded query: it
    sorts the tuple-variable bindings, joins and selects, and normalizes
    each predicate ([In_set] values sorted and deduplicated, singleton sets
    and one-point ranges collapsed to [Eq]).  It never renames tuple
    variables, so [p=patient] and [q=patient] remain distinct keys — that
    is deliberate: the query text reaching the service already fixes the
    variable names, and alpha-equivalence detection would cost more than
    the duplicate inference it saves. *)

val normalize : Selest_db.Query.t -> Selest_db.Query.t
(** Same query with sorted clause lists and normalized predicates.
    Idempotent; the result is semantically equivalent to the input (same
    {!Selest_db.Query.pred_holds} behaviour on every clause). *)

val key : Selest_db.Query.t -> string
(** Deterministic rendering of {!normalize}: equal for any two queries that
    canonicalize identically.  The key does not identify the model; the
    server prefixes it with the model name and version. *)

val skeleton_key : Selest_db.Query.t -> string
(** The {!Selest_plan.Plan.skeleton_key} of the {e normalized} query — the
    binding-independent half of the key split: queries differing only in
    predicate values share this key (and hence one cached plan), while
    {!key} still distinguishes them for the estimate cache. *)

(** Plan-cache keys.  {!Plan_cache} indexes on the hash; the key is
    stored beside the entry and compared only to verify a hash hit.
    {!make} renders a materialized query's key by name in one buffer
    pass, [name#version|tvars|joins|select-attrs] — the layered path
    replayed by the served benchmark.  The server keys a canonicalized
    scratch by its interned ids instead ({!scratch_hash}). *)
module Skel : sig
  type t = { hash : int;  (** 63-bit non-negative FNV-1a of [key] *)
             key : string }

  val make : name:string -> version:int -> Selest_db.Query.t -> t
  (** [q] must already be canonical ({!normalize}): its select order is
      what collapses duplicate attributes in one pass. *)

  val scratch_hash : name:string -> version:int -> Selest_db.Squery.t -> int
  (** The served plan-cache hash of a canonicalized scratch, folded from
      its interned ids ({!Selest_db.Squery.skeleton_hash}) and the model
      name and version.  Allocation-free once the scratch has warmed
      up.  EST bodies and EXPLAINPLAN's
      sub-queries ({!Selest_db.Squery.load_query}) both key through it,
      so they share one key space; it is a different key space from
      {!make}'s. *)

  val scratch_key : name:string -> version:int -> Selest_db.Squery.t -> string
  (** The key stored beside a plan compiled for the scratch's skeleton:
      model name and version plus the skeleton's snapshot.  Allocates;
      built only when a plan is compiled. *)

  val scratch_matches : string -> name:string -> version:int -> Selest_db.Squery.t -> bool
  (** Does a stored key belong to this model version and the scratch's
      skeleton?  What verifies a {!scratch_hash} hit.  Allocation-free
      once the scratch has warmed up. *)

  val rekey : name:string -> version:int -> string -> t
  (** [rekey ~name ~version key]: the {!scratch_hash} and {!scratch_key}
      under [version] of the skeleton that [key], a {!scratch_key} of
      another version of [name], stores.  What carries a plan across a
      model publish without a scratch. *)
end
