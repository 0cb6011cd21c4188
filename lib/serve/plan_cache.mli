(** LRU cache of compiled plans, keyed by (model version × query
    skeleton).

    The estimation service answers streams of bindings over a small set
    of skeletons; compiling a {!Selest_plan.Plan.t} per request would
    redo the upward closure, factor construction and schedule seeding
    every time.  This cache holds one plan per hot skeleton.  The model
    version is part of the caller's key, so a hot-reload naturally
    invalidates: new version, new keys, and the old entries age out of
    the LRU.

    Not thread-safe, by design: every executor shard owns a private
    cache, so the request hot path probes and compiles without any
    lock.  Never share one instance across domains.  What the shards
    share is each model version's {!Shared} set: the plans {!carry}
    compiled for the version before it was published, and the record of
    the skeletons requests fetched under it. *)

type t

(** One model version's plans, shared by every shard's cache (the
    registry entry holds it).  The carried table is filled before the
    version is published and only read after; the fetched record is
    appended lock-free, one compare-and-set per compile or adoption,
    never on a hit. *)
module Shared : sig
  type t

  val create : unit -> t
  (** Nothing carried, an empty record: a version published without a
      predecessor's plans. *)

  val carried : t -> int
  (** Plans compiled for this version before its publish. *)

  val carried_plan : t -> hash:int -> verify:(string -> 'a -> bool) -> 'a -> Selest_plan.Plan.t
  (** The plan carried under [hash] whose stored key [verify] accepts;
      raises [Not_found] when there is none.  Reads the carried table
      only: nothing is compiled, cached, counted or recorded. *)
end

val create : ?capacity:int -> unit -> t
(** [capacity] is an entry count (plans are small — factors are shared
    with the model's CPDs); default 256. *)

val probe :
  t ->
  Shared.t ->
  hash:int ->
  verify:(string -> 'a -> bool) ->
  key:('a -> string) ->
  compile:('a -> Selest_plan.Plan.t) ->
  'a ->
  Selest_plan.Plan.t * [ `Hit | `Miss ]
(** [probe t shared ~hash ~verify ~key ~compile x]: the one lookup.  The
    table indexes on [hash]; a resident entry with that hash is returned
    when [verify stored_key x] holds.  Otherwise the version's [shared]
    set is asked: a carried plan whose key verifies is adopted — cached
    here and counted as a hit, with nothing compiled.  Failing that,
    [compile x] runs and its plan is cached under [hash] with [key x]
    stored beside it — a miss.  Either way the least-recently-used
    entry is evicted when full, and the skeleton joins [shared]'s
    fetched record.  A resident whose stored key fails verification — a
    true collision — is counted, evicted, and fetched as above.  The
    server probes with {!Canon.Skel.scratch_hash} and verifies with
    {!Canon.Skel.scratch_matches}, so a hit builds no key. *)

val peek : t -> Shared.t -> hash:int -> verify:(string -> 'a -> bool) -> 'a -> Selest_plan.Plan.t
(** The plan {!probe} would return without compiling — resident, else
    carried in [shared] — with nothing promoted, counted, cached or
    recorded; raises [Not_found] when there is none. *)

val find_or_compile :
  t -> hash:int -> key:string -> compile:(unit -> Selest_plan.Plan.t) ->
  Selest_plan.Plan.t * [ `Hit | `Miss ]
(** {!probe} for a rendered key ({!Canon.Skel.make}) outside any
    version's shared set: verification is string equality, nothing is
    adopted or recorded. *)

val carry :
  t ->
  Shared.t ->
  rekey:(string -> int * string) ->
  compile:(Selest_plan.Plan.t -> Selest_plan.Plan.t) ->
  Shared.t
(** [carry t prev ~rekey ~compile]: the shared set of a new version,
    before it is published.  Every skeleton in [prev]'s fetched record,
    up to this cache's capacity, is recompiled — [compile] gets the
    previous version's plan, whose {!Selest_plan.Plan.query} is the
    compile query — and carried under [rekey]'s (hash, key) for the new
    version.  A skeleton whose compile (or rekey) raises is left out; it
    compiles on demand when a request fetches it.  Each attempt counts
    as a miss of [t] (a compile), each carried plan in {!carried}.  The
    new set's record starts empty, so a skeleton no request fetches
    under the new version is not carried to the next one. *)

val capacity : t -> int
(** The entry count the cache holds, which also caps what a reload
    carries. *)

val stats : t -> int * int * int
(** (hits, misses, evictions) since creation.  Misses count every
    compile this cache ran, {!carry}'s included; hits include adopted
    carried plans. *)

val carried : t -> int
(** Plans {!carry} compiled on this cache since creation. *)

val collisions : t -> int
(** Probes whose hash matched a different full key (evicted and
    recompiled); 0 in any realistic workload. *)

val length : t -> int

val clear : t -> unit
(** Drop every entry (hot-reload, tests).  Counters are kept. *)
