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

val find_or_compile :
  t -> hash:int -> key:string -> compile:(unit -> Selest_plan.Plan.t) ->
  Selest_plan.Plan.t * [ `Hit | `Miss ]
(** Return the cached plan for the key, or run [compile], cache and
    return it (evicting the least-recently-used entry when full).  The
    table indexes on [hash] (precompute it with {!Canon.Skel} — one
    buffer pass, one FNV fold); [key] is the full rendered key, stored
    beside the entry and string-compared only when a probe's hash
    matches.  A probe whose hash matches a {e different} resident key —
    a true collision — counts a miss, evicts the resident and caches
    the new plan. *)

val stats : t -> int * int * int
(** (hits, misses, evictions) since creation. *)

val collisions : t -> int
(** Probes whose hash matched a different full key (evicted and
    recompiled); 0 in any realistic workload. *)

val length : t -> int

val clear : t -> unit
(** Drop every entry (hot-reload, tests).  Counters are kept. *)
