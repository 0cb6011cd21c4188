(* Entry-count LRU of compiled plans, indexed on the caller's
   precomputed 63-bit key hash.  The key is stored beside each entry and
   checked — by the caller's [verify] — only when a probe's hash
   matches, so verification happens once per lookup and never as part
   of building a key.  A true collision (equal hashes, different keys)
   evicts the resident entry: with 63-bit FNV this is a theoretical
   case, and one entry per hash keeps the probe branch-free.

   Recency is a per-entry stamp rather than a linked list: a hit writes
   one int, and the least recently used entry is found by a scan only
   when an insertion overflows the capacity — i.e. beside a compile,
   which costs far more.

   No lock: each executor shard owns a private instance, so the request
   path probes and compiles without one.  What shards share is a model
   version's {!Shared} set, which is immutable but for one atomic
   record. *)

(* A compiled plan under its key: immutable, so one value can sit in
   every shard's cache and in a version's shared set at once. *)
type entry = { hash : int; key : string; plan : Selest_plan.Plan.t }

type node = {
  entry : entry;
  mutable used : int;  (* [clock] at the last probe that returned it *)
}

(* The hashes are already mixed: index on them as they are, without
   the polymorphic hash. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

module Shared = struct
  type record = { count : int; items : entry list (* most recent first *) }

  type t = {
    carried : entry Tbl.t;  (* filled before publish, only read after *)
    fetched : record Atomic.t;
  }

  let create () = { carried = Tbl.create 1; fetched = Atomic.make { count = 0; items = [] } }

  (* Outside any version: nothing carried, and a record that is always
     full, so nothing is ever appended to it. *)
  let none = { carried = Tbl.create 1; fetched = Atomic.make { count = max_int; items = [] } }

  let carried t = Tbl.length t.carried

  let carried_plan t ~hash ~verify x =
    match Tbl.find t.carried hash with
    | e when verify e.key x -> e.plan
    | _ -> raise Not_found

  (* Append [e] unless the record already holds its key or is full.
     Runs only beside a compile or an adoption, never on a hit. *)
  let rec note t ~cap e =
    let cur = Atomic.get t.fetched in
    if
      cur.count < cap
      && not (List.exists (fun x -> x.hash = e.hash && String.equal x.key e.key) cur.items)
      && not
           (Atomic.compare_and_set t.fetched cur
              { count = cur.count + 1; items = e :: cur.items })
    then note t ~cap e
end

type t = {
  capacity : int;
  tbl : node Tbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable collisions : int;
  mutable carried : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Tbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    collisions = 0;
    carried = 0;
  }

let remove t n =
  Tbl.remove t.tbl n.entry.hash;
  t.evictions <- t.evictions + 1

let evict_lru t =
  let oldest =
    Tbl.fold
      (fun _ n acc -> match acc with Some o when o.used <= n.used -> acc | _ -> Some n)
      t.tbl None
  in
  Option.iter (remove t) oldest

(* A local miss: adopt the version's carried plan for this skeleton
   when it has one (a hit: nothing compiles), else compile (a miss).
   Either way the skeleton joins the version's fetched record. *)
let fetch t (shared : Shared.t) ~hash ~verify ~key ~compile x =
  let e, status =
    match Tbl.find shared.Shared.carried hash with
    | e when verify e.key x ->
      t.hits <- t.hits + 1;
      (e, `Hit)
    | _ | (exception Not_found) ->
      t.misses <- t.misses + 1;
      let plan = compile x in
      ({ hash; key = key x; plan }, `Miss)
  in
  Tbl.replace t.tbl hash { entry = e; used = t.clock };
  while Tbl.length t.tbl > t.capacity do
    evict_lru t
  done;
  Shared.note shared ~cap:t.capacity e;
  (e.plan, status)

let probe t shared ~hash ~verify ~key ~compile x =
  t.clock <- t.clock + 1;
  match Tbl.find t.tbl hash with
  | n when verify n.entry.key x ->
    t.hits <- t.hits + 1;
    n.used <- t.clock;
    (n.entry.plan, `Hit)
  | n ->
    (* hash collision: evict the resident entry, fetch ours *)
    t.collisions <- t.collisions + 1;
    remove t n;
    fetch t shared ~hash ~verify ~key ~compile x
  | exception Not_found -> fetch t shared ~hash ~verify ~key ~compile x

let peek t shared ~hash ~verify x =
  match Tbl.find t.tbl hash with
  | n when verify n.entry.key x -> n.entry.plan
  | _ | (exception Not_found) -> Shared.carried_plan shared ~hash ~verify x

let find_or_compile t ~hash ~key ~compile =
  probe t Shared.none ~hash ~verify:String.equal ~key:Fun.id
    ~compile:(fun _ -> compile ())
    key

let carry t (prev : Shared.t) ~rekey ~compile =
  let carried = Tbl.create 64 in
  List.iter
    (fun e ->
      if Tbl.length carried < t.capacity then begin
        t.misses <- t.misses + 1;
        match (rekey e.key, compile e.plan) with
        | (hash, key), plan ->
          Tbl.replace carried hash { hash; key; plan };
          t.carried <- t.carried + 1
        | exception _ -> () (* the skeleton compiles on demand instead *)
      end)
    (Atomic.get prev.Shared.fetched).Shared.items;
  { (Shared.create ()) with Shared.carried }

let capacity t = t.capacity
let stats t = (t.hits, t.misses, t.evictions)
let carried t = t.carried
let collisions t = t.collisions
let length t = Tbl.length t.tbl
let clear t = Tbl.reset t.tbl
