(** Named, versioned PRM models held by a running estimation service,
    published as immutable epoch-stamped snapshots.

    The paper's architecture learns models offline and consults them
    online; a long-lived server therefore needs a place where models
    arrive, get replaced by fresher ones learned from newer data (hot
    reload), and are looked up per request.  Every model is checked
    against the registry's schema on the way in ({!Selest_prm.Serialize}
    validates the stored fingerprint), so a request can never be answered
    by a model learned for a different database layout.

    {b Concurrency model.}  The registry holds one {e immutable}
    snapshot behind an [Atomic.t].  Readers pin the current snapshot
    with a single atomic load ({!Epoch.pin}) and then work entirely on
    immutable data — EST/ESTBATCH never take a lock, and the
    (name, version, fingerprint, model) tuple they see can never tear,
    because it was published as one value.  Writers (LOAD / register)
    serialize on an internal mutex {e off} the request path, build the
    successor snapshot, and publish it with one atomic store.  Requests
    still holding the previous snapshot finish against it; the old
    generation is reclaimed by the GC once the last pinned reference
    drops (the grace period is implicit in snapshot lifetime).

    Replacing a name bumps its version.  Versions matter beyond
    book-keeping: the server builds cache keys as
    [name#version|canonical-query], so reloading a model implicitly
    invalidates all of its cached estimates — stale entries can never be
    returned and simply age out of each shard's LRU. *)

type entry = {
  model : Selest_prm.Model.t;
  source : string;  (** file path, or ["<memory>"] for registered models *)
  version : int;  (** 1 on first load of a name, +1 on each replacement *)
  fingerprint : string;
      (** The {e schema} fingerprint
          ({!Selest_prm.Serialize.schema_fingerprint}), the same for every
          entry: it names the database layout the model was learned on.
          It is not the model's structure fingerprint
          ({!Selest_prm.Model.fingerprint}), which compiled plans carry
          and the plan explain output ([Plan.pp],
          [selest estimate --explain]) prints as ["model fingerprint"]. *)
  plans : Plan_cache.Shared.t;
      (** This version's shared plans: those carried over from the
          previous version before publish, and the record of skeletons
          requests fetch under this one (what the next {!load} carries). *)
  estimates : Lru.Carried.t;
      (** This version's carried answers: the estimates the reload that
          published it computed, on this version, for the queries the
          reloading shard's cache held under the previous one.  Every
          shard adopts them on its first miss of each query. *)
}

type t

val create : schema:Selest_db.Schema.t -> t

val schema_fingerprint : t -> string
(** The fingerprint every loadable model must carry
    ({!Selest_prm.Serialize.schema_fingerprint} of the registry schema). *)

(** Epoch-published snapshot access — the lock-free read plane. *)
module Epoch : sig
  type snapshot
  (** One immutable registry generation.  Everything reachable from a
      snapshot is frozen at publication time. *)

  val pin : t -> snapshot
  (** The current generation: one [Atomic.get], no lock.  A request
      pins once and resolves names against the pinned value so its view
      cannot change mid-request. *)

  val epoch : snapshot -> int
  (** Generation number: 0 for the empty registry, +1 per publish. *)

  val current_epoch : t -> int
  (** [epoch (pin t)]. *)

  val find : snapshot -> string -> entry option
  val default : snapshot -> (string * entry) option
  val names : snapshot -> string list
  val size : snapshot -> int

  val entries : snapshot -> (string * entry) list
  (** All entries, most recently (re)loaded first. *)
end

val load :
  ?carry:
    (entry -> version:int -> Selest_prm.Model.t -> Plan_cache.Shared.t * Lru.Carried.t) ->
  t ->
  name:string ->
  path:string ->
  entry
(** Load (or hot-reload) a model file under [name].  Raises
    {!Selest_prm.Serialize.Error} on an unreadable, malformed or
    schema-mismatched file; the published snapshot is unchanged in that
    case.

    A reload publishes in three steps: deserialize, then [carry prev
    ~version model] builds the new version's shared plans and carried
    answers from the entry it replaces (the server compiles the
    skeletons requests fetched under [prev], {!Plan_cache.carry}, then
    re-answers the queries its cache holds under [prev] on those plans,
    {!Lru.carry}), then one atomic store installs the entry.  [carry]
    runs under the writer lock; readers keep answering on [prev], with
    its warm plans and answers, until the store.  Without [carry], or on
    a first load, the entry starts with nothing carried. *)

val register : t -> name:string -> Selest_prm.Model.t -> entry
(** Install an in-memory model (e.g. learned at server start-up) under
    [name], with the same versioning rules as {!load}.  Raises
    [Invalid_argument] when the model's schema fingerprint differs from
    the registry's. *)

val find : t -> string -> entry option
(** [Epoch.find (Epoch.pin t)] — fine for one-shot lookups; requests
    that touch the registry more than once should pin explicitly. *)

val default : t -> (string * entry) option
(** The most recently loaded or registered name — what an [EST] request
    without an explicit model name is answered from. *)

val names : t -> string list
(** Registered names, most recently (re)loaded first. *)

val size : t -> int
