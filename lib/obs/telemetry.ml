(* Per-domain, lock-free telemetry shards merged on read.

   Every domain that touches a [t] gets its own shard via [Domain.DLS]:
   a hashtable of named monotonic counters and one of named latency
   histograms.  The hot path (incr / record_ns) runs entirely on the
   caller's shard — a domain-local hashtable probe plus an int bump or a
   Histogram.record — and never takes a lock or a contended cache line,
   so N writer domains scale where a mutex-guarded recorder flatlines.

   The per-shard mutex guards only the *name-map structure*: it is taken
   on the rare slow path that first creates a named slot in a shard, and
   by readers while they list a shard's slots.  Name lookups and value
   bumps on the owner's shard are unlocked — the owner is the only
   mutator of its tables, and readers never mutate them.

   Read side: [snapshot] lists every shard's slots under the shard lock,
   then merges values into fresh accumulators.  Value reads are racy by
   design — single-word, so they never tear, and monotone, so a snapshot
   is a consistent lower bound; totals are exact once writers quiesce or
   a happens-before edge exists (Domain.join, a mutex, an Atomic).
   Each snapshot carries a monotonically increasing epoch, and
   [Snapshot.delta] subtracts two snapshots into the window between
   their epochs — the primitive HEALTH's burn-rate windows stand on. *)

type shard = {
  lock : Mutex.t; (* name-map structure only; never held on the hot path *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  qerrors : (string, Qerror.t) Hashtbl.t;
  (* Handle-indexed fast slots, grown lazily to cover the largest handle
     this shard has bumped.  The owner is the only writer; growth swaps
     the array under [lock] (values copied over), so a racy reader sees
     either array — both consistent lower bounds. *)
  mutable fastc : int array;
  mutable fasth : Histogram.t array;
}

(* The instance-wide handle registry: handle id -> name, append-only.
   Registration is a startup-time operation (callers hoist handles out
   of the request path), so a mutex plus linear dedup scan is fine. *)
type registry = {
  rlock : Mutex.t;
  mutable cnames : string array;
  mutable ccount : int;
  mutable hnames : string array;
  mutable hcount : int;
}

type counter_handle = int
type hist_handle = int

type t = {
  shards : shard list Atomic.t; (* every shard ever created, push-only *)
  key : shard Domain.DLS.key;
  epoch : int Atomic.t;
  reg : registry;
}

let create () =
  let shards = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s =
          {
            lock = Mutex.create ();
            counters = Hashtbl.create 16;
            hists = Hashtbl.create 8;
            qerrors = Hashtbl.create 4;
            fastc = [||];
            fasth = [||];
          }
        in
        let rec push () =
          let cur = Atomic.get shards in
          if not (Atomic.compare_and_set shards cur (s :: cur)) then push ()
        in
        push ();
        s)
  in
  {
    shards;
    key;
    epoch = Atomic.make 0;
    reg =
      {
        rlock = Mutex.create ();
        cnames = [||];
        ccount = 0;
        hnames = [||];
        hcount = 0;
      };
  }

let shard t = Domain.DLS.get t.key

(* Find-or-create a slot in one of the caller's shard tables.  The
   unlocked probe is safe: only the owner adds to its tables, so the
   probe cannot race a resize; the locked add serializes against readers
   listing the shard.  The probe is [Hashtbl.find], not [find_opt]: a
   warm bump must not allocate an option, or every writer domain stops
   for the minor collections it causes. *)
let slot sh tbl name create =
  match Hashtbl.find tbl name with
  | v -> v
  | exception Not_found ->
    Mutex.lock sh.lock;
    let v =
      match Hashtbl.find tbl name with
      | v -> v
      | exception Not_found ->
        let v = create () in
        Hashtbl.add tbl name v;
        v
    in
    Mutex.unlock sh.lock;
    v

let counter_ref sh name = slot sh sh.counters name (fun () -> ref 0)
let hist sh name = slot sh sh.hists name Histogram.create

(* Per-shard q-error tables are created [~sync:false]: only the owner
   domain records into them, and cross-domain readers go through
   [qerrors_merged], whose racy reads are never torn (ints + unboxed
   floats). *)
let qerror_slot sh name = slot sh sh.qerrors name (fun () -> Qerror.create ~sync:false ())

let incr ?(by = 1) t name =
  let r = counter_ref (shard t) name in
  r := !r + by

let record_ns t name v = Histogram.record (hist (shard t) name) v

(* ---- handle API ------------------------------------------------------------
   Registration appends the name to the instance registry and returns
   its index; the hot path indexes a per-shard flat array with that id —
   a bounds check and an int bump / Histogram.record, no hashing, no
   option boxing, no allocation. *)

let reg_find names count name =
  let rec go i = if i >= count then -1 else if names.(i) = name then i else go (i + 1) in
  go 0

let counter_handle t name =
  let r = t.reg in
  Mutex.lock r.rlock;
  let id =
    match reg_find r.cnames r.ccount name with
    | -1 ->
      let n = r.ccount in
      if n = Array.length r.cnames then begin
        let grown = Array.make (max 8 (2 * n)) "" in
        Array.blit r.cnames 0 grown 0 n;
        r.cnames <- grown
      end;
      r.cnames.(n) <- name;
      r.ccount <- n + 1;
      n
    | i -> i
  in
  Mutex.unlock r.rlock;
  id

let hist_handle t name =
  let r = t.reg in
  Mutex.lock r.rlock;
  let id =
    match reg_find r.hnames r.hcount name with
    | -1 ->
      let n = r.hcount in
      if n = Array.length r.hnames then begin
        let grown = Array.make (max 8 (2 * n)) "" in
        Array.blit r.hnames 0 grown 0 n;
        r.hnames <- grown
      end;
      r.hnames.(n) <- name;
      r.hcount <- n + 1;
      n
    | i -> i
  in
  Mutex.unlock r.rlock;
  id

(* Cold paths: grow this shard's fast arrays to cover handle [h].  The
   swap happens under the shard lock so readers listing slots see a
   stable array; values are copied so the old array stays a valid lower
   bound for any racy unlocked reader. *)
let grow_fastc sh h =
  Mutex.lock sh.lock;
  if h >= Array.length sh.fastc then begin
    let cap = ref (max 8 (2 * Array.length sh.fastc)) in
    while !cap <= h do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap 0 in
    Array.blit sh.fastc 0 grown 0 (Array.length sh.fastc);
    sh.fastc <- grown
  end;
  Mutex.unlock sh.lock

let grow_fasth sh h =
  Mutex.lock sh.lock;
  if h >= Array.length sh.fasth then begin
    let old = sh.fasth in
    let len = Array.length old in
    let cap = ref (max 8 (2 * len)) in
    while !cap <= h do
      cap := 2 * !cap
    done;
    let grown =
      Array.init !cap (fun i -> if i < len then old.(i) else Histogram.create ())
    in
    sh.fasth <- grown
  end;
  Mutex.unlock sh.lock

let hincr_by t h n =
  let sh = shard t in
  if h >= Array.length sh.fastc then grow_fastc sh h;
  sh.fastc.(h) <- sh.fastc.(h) + n

let hincr t h =
  let sh = shard t in
  if h >= Array.length sh.fastc then grow_fastc sh h;
  sh.fastc.(h) <- sh.fastc.(h) + 1

let hrecord t h v =
  let sh = shard t in
  if h >= Array.length sh.fasth then grow_fasth sh h;
  Histogram.record sh.fasth.(h) v

let qerror_shard t name = qerror_slot (shard t) name

let observe_qerror t name ~est ~truth =
  Qerror.observe (qerror_slot (shard t) name) ~est ~truth

(* ---- read side ------------------------------------------------------------- *)

type snapshot = {
  epoch : int;
  counters : (string * int) list; (* sorted by name *)
  hists : (string * Histogram.t) list; (* sorted by name; merged copies *)
}

(* The registered handle names, copied under the registry lock so the
   per-shard merge below indexes a stable array. *)
let reg_names (t : t) =
  let r = t.reg in
  Mutex.lock r.rlock;
  let cn = Array.sub r.cnames 0 r.ccount in
  let hn = Array.sub r.hnames 0 r.hcount in
  Mutex.unlock r.rlock;
  (cn, hn)

(* List a shard's slots under its lock, so a concurrent first-use add in
   the owner domain cannot race the iteration.  Handle slots fold in
   under their registered names: counters when nonzero, histograms when
   non-empty — mirroring the created-on-first-use semantics of the
   string-keyed tables (array growth over-covers neighboring ids). *)
let shard_slots ~cn ~hn sh =
  Mutex.lock sh.lock;
  let cs = ref (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) sh.counters []) in
  let fc = sh.fastc in
  for i = 0 to min (Array.length fc) (Array.length cn) - 1 do
    if fc.(i) <> 0 then cs := (cn.(i), fc.(i)) :: !cs
  done;
  let hs = ref (Hashtbl.fold (fun k h acc -> (k, h) :: acc) sh.hists []) in
  let fh = sh.fasth in
  for i = 0 to min (Array.length fh) (Array.length hn) - 1 do
    if Histogram.count fh.(i) > 0 then hs := (hn.(i), fh.(i)) :: !hs
  done;
  Mutex.unlock sh.lock;
  (!cs, !hs)

let snapshot (t : t) =
  let epoch = Atomic.fetch_and_add t.epoch 1 + 1 in
  let cn, hn = reg_names t in
  let counters = Hashtbl.create 32 and hists = Hashtbl.create 16 in
  List.iter
    (fun sh ->
      let cs, hs = shard_slots ~cn ~hn sh in
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt counters k with
          | Some acc -> acc := !acc + v
          | None -> Hashtbl.add counters k (ref v))
        cs;
      List.iter
        (fun (k, h) ->
          match Hashtbl.find_opt hists k with
          | Some acc -> Histogram.merge_into ~into:acc h
          | None -> Hashtbl.add hists k (Histogram.copy h))
        hs)
    (Atomic.get t.shards);
  {
    epoch;
    counters =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters [] |> List.sort compare;
    hists = Hashtbl.fold (fun k h acc -> (k, h) :: acc) hists [] |> List.sort compare;
  }

let get t name =
  let r = t.reg in
  Mutex.lock r.rlock;
  let id = reg_find r.cnames r.ccount name in
  Mutex.unlock r.rlock;
  List.fold_left
    (fun acc (sh : shard) ->
      let acc =
        if id >= 0 && id < Array.length sh.fastc then acc + sh.fastc.(id)
        else acc
      in
      match Hashtbl.find_opt sh.counters name with
      | Some r -> acc + !r
      | None -> acc)
    0 (Atomic.get t.shards)

let hist_merged t name =
  let r = t.reg in
  Mutex.lock r.rlock;
  let id = reg_find r.hnames r.hcount name in
  Mutex.unlock r.rlock;
  let acc = Histogram.create () in
  List.iter
    (fun (sh : shard) ->
      if id >= 0 && id < Array.length sh.fasth then
        Histogram.merge_into ~into:acc sh.fasth.(id);
      match Hashtbl.find_opt sh.hists name with
      | Some h -> Histogram.merge_into ~into:acc h
      | None -> ())
    (Atomic.get t.shards);
  acc

let qerror_merged t name =
  let acc = Qerror.create () in
  List.iter
    (fun (sh : shard) ->
      match Hashtbl.find_opt sh.qerrors name with
      | Some q -> Qerror.merge_into ~into:acc q
      | None -> ())
    (Atomic.get t.shards);
  acc

let qerrors_merged t =
  let names = Hashtbl.create 8 in
  List.iter
    (fun (sh : shard) ->
      Mutex.lock sh.lock;
      Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) sh.qerrors;
      Mutex.unlock sh.lock)
    (Atomic.get t.shards);
  Hashtbl.fold (fun k () acc -> (k, qerror_merged t k) :: acc) names []
  |> List.sort compare

let n_shards t = List.length (Atomic.get t.shards)

module Snapshot = struct
  let find_counter s name =
    Option.value ~default:0 (List.assoc_opt name s.counters)

  let find_hist s name = List.assoc_opt name s.hists

  (* The window between two snapshots of the same telemetry instance:
     per-counter and bucket-wise histogram differences.  Counters or
     histograms absent from [prev] are taken as zero (they were created
     inside the window). *)
  let delta ~prev cur =
    let counters =
      List.map
        (fun (k, v) -> (k, v - find_counter prev k))
        cur.counters
    in
    let hists =
      List.map
        (fun (k, h) ->
          match find_hist prev k with
          | Some ph -> (k, Histogram.diff ~prev:ph h)
          | None -> (k, Histogram.copy h))
        cur.hists
    in
    { epoch = cur.epoch; counters; hists }
end
