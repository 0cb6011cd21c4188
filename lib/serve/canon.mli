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

(** The plan-cache key, built in a single buffer pass with its FNV-1a
    hash: [name#version|tvars|joins|select-attrs].  {!Plan_cache}
    indexes on the hash; the rendered key is stored beside the entry
    and compared only to disambiguate a hash collision. *)
module Skel : sig
  type t = { hash : int;  (** 63-bit non-negative FNV-1a of [key] *)
             key : string }

  val make : name:string -> version:int -> Selest_db.Query.t -> t
  (** [q] must already be canonical ({!normalize}): its select order is
      what collapses duplicate attributes in one pass. *)

  val of_scratch : name:string -> version:int -> Selest_db.Squery.t -> t
  (** The same key rendered straight from a canonicalized scratch
      ({!Selest_db.Squery.add_skeleton}) — what the server's estimate
      path uses on a cache miss.  [key] and [hash] are byte-identical to
      [make ~name ~version (Squery.to_query s)], so EST, EXPLAINPLAN
      (which keys sub-queries with {!make}) and any caller of {!make}
      share one plan-cache key space. *)
end
