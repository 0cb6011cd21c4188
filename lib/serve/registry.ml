type entry = {
  model : Selest_prm.Model.t;
  source : string;
  version : int;
  fingerprint : string;
  plans : Plan_cache.Shared.t;
  estimates : Lru.Carried.t;
}

(* An immutable registry generation: the association list is MRU-first
   (most recently (re)loaded name at the head), and nothing in it is
   ever mutated after publication.  Readers that pin a snapshot see one
   consistent world — every (name, version, fingerprint, model) tuple
   in it was published together, so torn version/model pairs are
   impossible by construction. *)
type snapshot = {
  epoch : int;
  entries : (string * entry) list; (* MRU-first, no duplicate names *)
}

type t = {
  schema : Selest_db.Schema.t;
  fingerprint : string;
  current : snapshot Atomic.t;
  write_lock : Mutex.t; (* serializes writers only; never on the read path *)
}

let empty_snapshot = { epoch = 0; entries = [] }

let create ~schema =
  {
    schema;
    fingerprint = Selest_prm.Serialize.schema_fingerprint schema;
    current = Atomic.make empty_snapshot;
    write_lock = Mutex.create ();
  }

let schema_fingerprint t = t.fingerprint

module Epoch = struct
  type nonrec snapshot = snapshot

  let pin t = Atomic.get t.current
  let epoch (s : snapshot) = s.epoch
  let current_epoch t = (Atomic.get t.current).epoch
  let find (s : snapshot) name = List.assoc_opt name s.entries

  let default (s : snapshot) =
    match s.entries with [] -> None | (name, e) :: _ -> Some (name, e)

  let names (s : snapshot) = List.map fst s.entries
  let size (s : snapshot) = List.length s.entries
  let entries (s : snapshot) = s.entries
end

(* Writers build the successor snapshot under [write_lock] and publish
   it with a single [Atomic.set] — readers holding the old snapshot keep
   a fully consistent view and the old generation is reclaimed by the GC
   once the last pinned reference drops (the grace period is implicit:
   a snapshot lives exactly as long as some request still points at
   it). *)
let install ?carry t ~name ~source model =
  Mutex.lock t.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.write_lock)
    (fun () ->
      let prev = Atomic.get t.current in
      let old = List.assoc_opt name prev.entries in
      let version = match old with Some e -> e.version + 1 | None -> 1 in
      (* The new version's plans compile, and its carried answers are
         computed, here, before the publish below: readers keep answering
         on [old] until the [Atomic.set]. *)
      let plans, estimates =
        match (old, carry) with
        | Some e, Some carry -> carry e ~version model
        | _ -> (Plan_cache.Shared.create (), Lru.Carried.create ())
      in
      let entry =
        { model; source; version; fingerprint = t.fingerprint; plans; estimates }
      in
      let rest = List.filter (fun (n, _) -> n <> name) prev.entries in
      let next = { epoch = prev.epoch + 1; entries = (name, entry) :: rest } in
      Atomic.set t.current next;
      entry)

let load ?carry t ~name ~path =
  let model = Selest_prm.Serialize.load path ~schema:t.schema in
  install ?carry t ~name ~source:path model

let register t ~name model =
  if Selest_prm.Serialize.schema_fingerprint model.Selest_prm.Model.schema <> t.fingerprint
  then invalid_arg "Registry.register: model schema does not match this registry";
  install t ~name ~source:"<memory>" model

(* Conveniences that pin internally — each is one Atomic.get, no lock. *)
let find t name = Epoch.find (Epoch.pin t) name
let default t = Epoch.default (Epoch.pin t)
let names t = Epoch.names (Epoch.pin t)
let size t = Epoch.size (Epoch.pin t)
