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
   path probes and compiles without one. *)

type node = {
  hash : int;
  key : string;  (* full key, for hit verification *)
  plan : Selest_plan.Plan.t;
  mutable used : int;  (* [clock] at the last probe that returned it *)
}

(* The hashes are already mixed: index on them as they are, without
   the polymorphic hash. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

type t = {
  capacity : int;
  tbl : node Tbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable collisions : int;
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
  }

let remove t n =
  Tbl.remove t.tbl n.hash;
  t.evictions <- t.evictions + 1

let evict_lru t =
  let oldest =
    Tbl.fold
      (fun _ n acc -> match acc with Some o when o.used <= n.used -> acc | _ -> Some n)
      t.tbl None
  in
  Option.iter (remove t) oldest

let insert t ~hash ~key ~compile x =
  t.misses <- t.misses + 1;
  let plan = compile x in
  Tbl.replace t.tbl hash { hash; key = key x; plan; used = t.clock };
  while Tbl.length t.tbl > t.capacity do
    evict_lru t
  done;
  (plan, `Miss)

let probe t ~hash ~verify ~key ~compile x =
  t.clock <- t.clock + 1;
  match Tbl.find t.tbl hash with
  | n when verify n.key x ->
    t.hits <- t.hits + 1;
    n.used <- t.clock;
    (n.plan, `Hit)
  | n ->
    (* hash collision: evict the resident entry, compile ours *)
    t.collisions <- t.collisions + 1;
    remove t n;
    insert t ~hash ~key ~compile x
  | exception Not_found -> insert t ~hash ~key ~compile x

let find_or_compile t ~hash ~key ~compile =
  probe t ~hash ~verify:String.equal ~key:Fun.id ~compile:(fun _ -> compile ()) key

let stats t = (t.hits, t.misses, t.evictions)
let collisions t = t.collisions
let length t = Tbl.length t.tbl
let clear t = Tbl.reset t.tbl
