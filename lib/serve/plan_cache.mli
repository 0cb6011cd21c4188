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
    lock.  Never share one instance across domains. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is an entry count (plans are small — factors are shared
    with the model's CPDs); default 256. *)

val probe :
  t ->
  hash:int ->
  verify:(string -> 'a -> bool) ->
  key:('a -> string) ->
  compile:('a -> Selest_plan.Plan.t) ->
  'a ->
  Selest_plan.Plan.t * [ `Hit | `Miss ]
(** [probe t ~hash ~verify ~key ~compile x]: the one lookup.  The table
    indexes on [hash]; a resident entry with that hash is returned when
    [verify stored_key x] holds.  Otherwise [compile x] runs and its
    plan is cached under [hash] with [key x] stored beside it (evicting
    the least-recently-used entry when full).  A resident whose stored
    key fails verification — a true collision — counts a miss, is
    evicted, and the new plan takes its place.  The server probes with
    {!Canon.Skel.scratch_hash} and verifies with
    {!Canon.Skel.scratch_matches}, so a hit builds no key. *)

val find_or_compile :
  t -> hash:int -> key:string -> compile:(unit -> Selest_plan.Plan.t) ->
  Selest_plan.Plan.t * [ `Hit | `Miss ]
(** {!probe} for a rendered key ({!Canon.Skel.make}): verification is
    string equality. *)

val stats : t -> int * int * int
(** (hits, misses, evictions) since creation. *)

val collisions : t -> int
(** Probes whose hash matched a different full key (evicted and
    recompiled); 0 in any realistic workload. *)

val length : t -> int

val clear : t -> unit
(** Drop every entry (hot-reload, tests).  Counters are kept. *)
