(* Everything but the entries lives outside the OCaml heap, in two
   bigarrays: the GC never scans them, and a page of the ring becomes
   resident only once a body is written to it.  A
   slot is three ints: the body hash (-1: empty), the body's ring
   record, and the estimate-cache hash of its entry.  A ring record is
   the body's absolute ring offset (bytes written before it, counting
   the padding skipped at a wrap) shifted past its length, so a slot is
   intact while fewer than [ring_bytes] bytes were written after its
   start. *)

open Bigarray

let ways = 8
let sets = 256
let ring_bytes = 128 * 1024
let max_body = 2048
let len_bits = 12 (* max_body < 1 lsl len_bits *)
let len_mask = (1 lsl len_bits) - 1

(* Absolute offsets stay below this, so a record fits a 63-bit int; a
   memo that gets there starts over empty. *)
let max_written = 1 lsl 48

type ring = (char, int8_unsigned_elt, c_layout) Array1.t

external key_untagged :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "selest_memo_hash" "selest_memo_hash_untagged"
[@@noalloc]

external equal_untagged :
  ring ->
  (int[@untagged]) ->
  bytes ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "selest_memo_equal" "selest_memo_equal_untagged"
[@@noalloc]

external store_untagged :
  ring -> (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "selest_memo_store" "selest_memo_store_untagged"
[@@noalloc]

type t = {
  slots : (int, int_elt, c_layout) Array1.t;
  entries : Lru.entry array;
  victim : Bytes.t;  (* per set: the way to replace next *)
  ring : ring;
  mutable written : int;
}

let dummy_entry =
  { Lru.est = 0.0; text = ""; bin = ""; vec = Selest_db.Squery.Vec.empty; model = "";
    version = 0 }

let empty_all slots =
  for s = 0 to (sets * ways) - 1 do
    Array1.unsafe_set slots (3 * s) (-1)
  done

let create () =
  let slots = Array1.create int c_layout (3 * sets * ways) in
  empty_all slots;
  {
    slots;
    entries = Array.make (sets * ways) dummy_entry;
    victim = Bytes.make sets '\000';
    ring = Array1.create char c_layout ring_bytes;
    written = 0;
  }

let key_of t s = Array1.unsafe_get t.slots (3 * s)
let rec_of t s = Array1.unsafe_get t.slots ((3 * s) + 1)

let key buf ~off ~len = if len > max_body then 0 else key_untagged buf off len
let entry t s = t.entries.(s)
let lru_hash t s = Array1.unsafe_get t.slots ((3 * s) + 2)
let intact t s = t.written <= (rec_of t s lsr len_bits) + ring_bytes

let holds t s key buf off len =
  let r = rec_of t s in
  key_of t s = key
  && r land len_mask = len
  && intact t s
  && equal_untagged t.ring ((r lsr len_bits) mod ring_bytes) buf off len <> 0

(* Top-level recursion, so a probe builds no closure. *)
let rec find_way t base w key buf off len =
  if w = ways then -1
  else if holds t (base + w) key buf off len then base + w
  else find_way t base (w + 1) key buf off len

let set_base key = (key land (sets - 1)) * ways

let find t key buf ~off ~len =
  if len > max_body then -1 else find_way t (set_base key) 0 key buf off len

let rec free_way t base w =
  if w = ways then -1
  else if key_of t (base + w) < 0 || not (intact t (base + w)) then base + w
  else free_way t base (w + 1)

(* Copy the body to the ring, wrapping to its start when it does not fit
   before the end, and take a slot for it. *)
let store t key buf off len =
  if t.written + (2 * ring_bytes) > max_written then begin
    empty_all t.slots;
    t.written <- 0
  end;
  let p = t.written mod ring_bytes in
  let a = if p + len > ring_bytes then t.written + ring_bytes - p else t.written in
  store_untagged t.ring (a mod ring_bytes) buf off len;
  t.written <- a + len;
  let base = set_base key in
  let s =
    match free_way t base 0 with
    | -1 ->
      let set = base / ways in
      let w = Char.code (Bytes.unsafe_get t.victim set) in
      Bytes.unsafe_set t.victim set (Char.unsafe_chr ((w + 1) mod ways));
      base + w
    | s -> s
  in
  Array1.unsafe_set t.slots (3 * s) key;
  Array1.unsafe_set t.slots ((3 * s) + 1) ((a lsl len_bits) lor len);
  s

let add t ~slot key buf ~off ~len ~hash entry =
  if len <= max_body then begin
    let s = if slot >= 0 then slot else store t key buf off len in
    Array1.unsafe_set t.slots ((3 * s) + 2) hash;
    t.entries.(s) <- entry
  end
