(** Byte-budgeted LRU cache of query estimates, indexed on the 63-bit
    canonical query hash.

    Optimizers re-cost the same predicates against many join orders, so
    a serving layer sees heavy repetition; a hit answers in one integer
    hashtable probe and hands back {e pre-rendered} responses — the
    text line and the binary value frame were formatted when the entry
    was filled, so the warm path writes bytes straight to the socket.
    Keys are the hashes the zero-copy front-end
    ({!Selest_db.Squery.hash} mixed with model name and version)
    computes without allocating; each entry carries the canonical query
    snapshot ({!Selest_db.Squery.Vec}) plus its model identity so the
    server can verify a hash hit against the live scratch — full-key
    comparison only ever runs on a hash match, never to {e build} a
    key.  A verification failure is a {!collision}: the caller recounts
    the probe as a miss and overwrites the entry on {!add}.

    Every warm operation is allocation-free: the recency list is a
    sentinel ring of direct node pointers, a miss raises the
    preallocated [Not_found], and byte accounting is plain field
    arithmetic.  Capacity is expressed in bytes under the library-wide
    storage accounting ({!Selest_util.Bytesize}): each entry is charged
    its vec snapshot, both rendered responses, the model name and one
    stored parameter.  When an insertion pushes the total over the
    budget, least-recently-used entries are evicted until it fits.

    Hit, miss, eviction and collision counts are tracked here so
    {!Metrics} can report them without wrapping every call site. *)

type entry = {
  est : float;  (** the estimate *)
  text : string;  (** full text response, trailing newline included *)
  bin : string;  (** full encoded binary value frame *)
  vec : Selest_db.Squery.Vec.t;  (** canonical query snapshot *)
  model : string;  (** model name the estimate was computed under *)
  version : int;  (** model version ditto *)
}

type t

val create : capacity_bytes:int -> t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val find : t -> int -> entry
(** Look up a hash; a hit promotes the entry to most-recently-used and
    is counted, a miss counts and raises [Not_found].  Allocation-free
    either way.  The caller must verify the entry against its request
    ([Squery.Vec.matches] + model name/version) and call {!collision}
    if the verification fails. *)

val find_exact : t -> int -> entry -> bool
(** [find_exact t hash entry]: does [hash] still map to this very
    [entry] (physically)?  If so, promote and count it as a {!find} hit;
    if not, count nothing.  Allocation-free.  The server's raw-body memo
    answers a repeated body with it: the entry was verified when the
    memo took it, and an eviction, an overwrite or a {!clear} since
    makes the check fail. *)

val collision : t -> unit
(** Recount the last {!find} hit as a miss: the hash matched but the
    full key did not.  Also bumps the collision counter. *)

val add : t -> int -> entry -> unit
(** Insert or overwrite the entry under a hash (overwriting is how a
    collision resolves — newest query wins), promote it, then evict
    from the cold end until the byte budget holds. *)

val mem : t -> int -> bool
(** Pure query: no promotion, no counter update. *)

val length : t -> int
val bytes : t -> int
val capacity_bytes : t -> int

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val collisions : t -> int
(** Hash hits whose full-key verification failed; 0 in any realistic
    workload (63-bit FNV). *)

val hashes_hot_first : t -> int list
(** Keys in recency order, most recent first (for tests and
    debugging). *)

(** One model version's carried answers: estimates a reload computed
    on the new version, before publishing it, for the queries a shard's
    cache held under the version it replaced.  Keyed like the cache (by
    the new version's hash); filled before the publish, only read
    after, so every shard reads it without a lock. *)
module Carried : sig
  type t

  val create : unit -> t
  (** Nothing carried: a version published without a predecessor's
      answers. *)

  val find : t -> int -> entry
  (** Raises [Not_found] (preallocated) when nothing is carried under
      the hash; the caller verifies the entry like a {!find} hit. *)

  val length : t -> int
end

val carry :
  t -> cap:int -> keep:(entry -> bool) -> answer:(entry -> int * entry) -> Carried.t
(** [carry t ~cap ~keep ~answer]: walk the cache from its hottest entry
    to its coldest, without promoting or counting anything, take the
    first [cap] entries [keep] accepts, and carry [answer e]'s (hash,
    entry) for each.  An entry whose [answer] raises is left out: it is
    answered on demand, as an uncarried query is.  [answer] must not
    touch [t]. *)

val adopt : t -> int -> entry -> unit
(** {!add} a carried entry after the {!find} that missed it, and
    recount that miss as a hit: the request is answered without
    inference, as a hit is. *)

val clear : t -> unit
(** Drops all entries; counters are preserved. *)
