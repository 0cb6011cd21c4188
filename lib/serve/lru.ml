open Selest_util
open Selest_db

(* An int-keyed chained table + sentinel-ring recency list, indexed on
   the 63-bit canonical query hash the zero-copy front-end computes.
   The hash is already well mixed, so its low bits pick the bucket: no
   polymorphic hashing, and the chains thread through the nodes
   themselves, so an insertion allocates nothing beyond its node.  Every
   warm operation is allocation-free: the ring uses direct node pointers
   (no [option] boxing on promote), a hit returns the resident [entry]
   record, and a miss raises the preallocated [Not_found].  Entries
   carry pre-rendered text and binary responses plus the canonical
   snapshot ({!Selest_db.Squery.Vec}) the server verifies hash hits
   against — full-key comparison happens only when a probe's hash
   matches, so the fast path never rebuilds a key string. *)

type entry = {
  est : float;
  text : string;  (* full text response, trailing newline included *)
  bin : string;  (* full encoded binary value frame *)
  vec : Squery.Vec.t;  (* canonical query, for collision verification *)
  model : string;
  version : int;
}

type node = {
  mutable hash : int;
  mutable entry : entry;
  mutable prev : node;  (* towards the hot (most recent) end *)
  mutable next : node;  (* towards the cold end *)
  mutable chain : node;  (* next node in the same bucket; [head] ends it *)
}

type t = {
  capacity : int;
  mutable buckets : node array;  (* power-of-two length; chains end at [head] *)
  mutable count : int;
  head : node;  (* sentinel: [head.next] hottest, [head.prev] coldest *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable collisions : int;
}

let dummy_entry =
  { est = 0.0; text = ""; bin = ""; vec = Squery.Vec.empty; model = "";
    version = 0 }

let create ~capacity_bytes =
  if capacity_bytes <= 0 then
    invalid_arg "Lru.create: capacity_bytes must be positive";
  let rec head =
    { hash = min_int; entry = dummy_entry; prev = head; next = head; chain = head }
  in
  {
    capacity = capacity_bytes;
    buckets = Array.make 256 head;
    count = 0;
    head;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    collisions = 0;
  }

let bucket t hash = hash land (Array.length t.buckets - 1)

(* The node holding [hash], or [head].  Top-level recursion: no
   closure. *)
let rec chain_find head n hash =
  if n == head || n.hash = hash then n else chain_find head n.chain hash

let lookup t hash = chain_find t.head t.buckets.(bucket t hash) hash

let chain_remove t n =
  let b = bucket t n.hash in
  if t.buckets.(b) == n then t.buckets.(b) <- n.chain
  else begin
    let p = ref t.buckets.(b) in
    while !p.chain != n do
      p := !p.chain
    done;
    !p.chain <- n.chain
  end;
  t.count <- t.count - 1

let chain_push t n =
  let b = bucket t n.hash in
  n.chain <- t.buckets.(b);
  t.buckets.(b) <- n

(* Double the bucket array once the chains average two nodes. *)
let chain_add t n =
  if t.count >= 2 * Array.length t.buckets then begin
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) t.head;
    Array.iter
      (fun first ->
        let n = ref first in
        while !n != t.head do
          let next = !n.chain in
          chain_push t !n;
          n := next
        done)
      old
  end;
  chain_push t n;
  t.count <- t.count + 1

(* Byte accounting: the hash key is one word; the payload is the vec
   snapshot, the two rendered responses, the model name, and one stored
   parameter for the estimate itself. *)
let entry_bytes e =
  Squery.Vec.bytes e.vec + String.length e.text + String.length e.bin
  + String.length e.model + Bytesize.per_param

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_hot t n =
  n.next <- t.head.next;
  n.prev <- t.head;
  t.head.next.prev <- n;
  t.head.next <- n

let evict_cold t =
  let n = t.head.prev in
  if n != t.head then begin
    unlink n;
    chain_remove t n;
    t.bytes <- t.bytes - entry_bytes n.entry;
    t.evictions <- t.evictions + 1
  end

let find t hash =
  let n = lookup t hash in
  if n != t.head then begin
    t.hits <- t.hits + 1;
    unlink n;
    push_hot t n;
    n.entry
  end
  else begin
    t.misses <- t.misses + 1;
    raise Not_found
  end

let find_exact t hash entry =
  let n = lookup t hash in
  n != t.head
  && n.entry == entry
  &&
  (t.hits <- t.hits + 1;
   unlink n;
   push_hot t n;
   true)

let collision t =
  t.hits <- t.hits - 1;
  t.misses <- t.misses + 1;
  t.collisions <- t.collisions + 1

let add t hash entry =
  let n = lookup t hash in
  if n != t.head then begin
    t.bytes <- t.bytes - entry_bytes n.entry + entry_bytes entry;
    n.entry <- entry;
    unlink n;
    push_hot t n
  end
  else begin
    (* A full cache evicts its coldest entry for this one: reuse that
       node rather than allocate another. *)
    let n =
      if t.bytes + entry_bytes entry > t.capacity && t.head.prev != t.head then begin
        let c = t.head.prev in
        evict_cold t;
        c.hash <- hash;
        c.entry <- entry;
        c
      end
      else { hash; entry; prev = t.head; next = t.head; chain = t.head }
    in
    chain_add t n;
    push_hot t n;
    t.bytes <- t.bytes + entry_bytes entry
  end;
  while t.bytes > t.capacity && t.head.prev != t.head do
    evict_cold t
  done

let mem t hash = lookup t hash != t.head
let length t = t.count
let bytes t = t.bytes
let capacity_bytes t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let collisions t = t.collisions

let hashes_hot_first t =
  let rec go acc n = if n == t.head then List.rev acc else go (n.hash :: acc) n.next in
  go [] t.head.next

(* Adoption: the probe that just missed is served by a carried answer,
   so it is recounted as the hit it answers like. *)
let adopt t hash entry =
  add t hash entry;
  t.misses <- t.misses - 1;
  t.hits <- t.hits + 1

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

module Carried = struct
  type t = entry Tbl.t

  let create () = Tbl.create 1
  let find = Tbl.find
  let length = Tbl.length
end

(* A hot-first walk of the ring that reads entries without promoting or
   counting them; [answer] never touches this cache. *)
let carry t ~cap ~keep ~answer =
  let out = Tbl.create 64 in
  let rec go n taken =
    if n != t.head && taken < cap then
      if keep n.entry then begin
        (match answer n.entry with
         | hash, e -> Tbl.replace out hash e
         | exception _ -> () (* answered on demand instead *));
        go n.next (taken + 1)
      end
      else go n.next taken
  in
  go t.head.next 0;
  out

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) t.head;
  t.count <- 0;
  t.head.next <- t.head;
  t.head.prev <- t.head;
  t.bytes <- 0
