(** A shard's raw-body memo: the exact bytes of an [EST] body mapped to
    the estimate-cache entry that last answered them.

    For one model version the answer to a body never changes, so a body
    the server has already answered by a verified cache hit can be
    answered again from its bytes alone, without lexing, canonicalizing
    or hashing it.  The memo only remembers; the caller decides whether
    a remembered entry still stands (same model name and version, and
    {!Lru.find_exact} finds it still resident under the remembered
    estimate-cache hash).

    Fixed size, allocated once: 2,048 slots in 8-way sets indexed by a
    word-at-a-time hash of the body with a 64-bit finalizer, and a
    128 KiB ring that holds the bodies themselves.  The slots' integers
    and the ring live in bigarrays, outside the OCaml heap, so only the
    entry pointers (16 KiB) count towards the GC's heap, and a ring page
    becomes resident only when a body is written to it.  A body longer
    than {!max_body} is never stored.  A slot whose ring bytes were
    written over is never matched.  Probes and insertions allocate
    nothing. *)

type t

val max_body : int
(** The longest body the memo stores (2,048 bytes). *)

val create : unit -> t

val key : bytes -> off:int -> len:int -> int
(** The body hash that picks a slot (non-negative; not computed for a
    body longer than {!max_body}). *)

val find : t -> int -> bytes -> off:int -> len:int -> int
(** [find t key buf ~off ~len]: the slot holding exactly the bytes
    [buf[off..off+len)] under [key], or [-1] (always for a body longer
    than {!max_body}). *)

val entry : t -> int -> Lru.entry
(** The entry a {!find} slot remembers. *)

val lru_hash : t -> int -> int
(** The estimate-cache hash that entry was found under. *)

val add :
  t -> slot:int -> int -> bytes -> off:int -> len:int -> hash:int -> Lru.entry -> unit
(** [add t ~slot key buf ~off ~len ~hash entry]: remember that the body
    was answered by [entry], resident in the estimate cache under
    [hash].  [slot] is what {!find} returned for this body, with no
    {!add} in between: a stored body has that slot refreshed in place;
    otherwise ([-1]) the body is copied into the ring and takes a free
    slot of its set, or else the set's oldest. *)
