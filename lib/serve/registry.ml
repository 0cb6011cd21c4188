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

(* ---- the model check ---------------------------------------------------------- *)

module Model = Selest_prm.Model
module Cpd = Selest_bn.Cpd
module Tree_cpd = Selest_bn.Tree_cpd
module Table_cpd = Selest_bn.Table_cpd

let row_tolerance = 1e-6

exception Illegal of string

(* Raise [Illegal] naming the family and what is wrong with it. *)
let illegal fmt = Printf.ksprintf (fun s -> raise (Illegal s)) fmt

(* The entries [a.(lo) .. a.(lo + n - 1)] as one distribution. *)
let check_row what a lo n =
  let sum = ref 0.0 in
  for i = lo to lo + n - 1 do
    let p = a.(i) in
    if not (Float.is_finite p && p >= 0.0) then
      illegal "%s: probability %g is not finite and non-negative" what p;
    sum := !sum +. p
  done;
  if Float.abs (!sum -. 1.0) > row_tolerance then
    illegal "%s: a distribution sums to %.17g, not 1" what !sum

let rec check_node what = function
  | Tree_cpd.Leaf { dist; _ } -> check_row what dist 0 (Array.length dist)
  | Tree_cpd.Split { arms = Tree_cpd.Multi kids; _ } -> Array.iter (check_node what) kids
  | Tree_cpd.Split { arms = Tree_cpd.Thresh (_, lo, hi); _ } ->
    check_node what lo;
    check_node what hi

let check_family scope table ~child (fam : Model.family) =
  let what = table ^ "." ^ Model.Scope.name scope child in
  let parent_cards =
    match fam.Model.cpd with
    | Cpd.Table c ->
      let k = c.Table_cpd.child_card in
      for row = 0 to (Array.length c.Table_cpd.table / k) - 1 do
        check_row what c.Table_cpd.table (row * k) k
      done;
      c.Table_cpd.parent_cards
    | Cpd.Tree c ->
      check_node what c.Tree_cpd.root;
      c.Tree_cpd.parent_cards
  in
  if parent_cards <> Array.map (Model.Scope.card scope) (Cpd.parents fam.Model.cpd) then
    illegal "%s: parent cards disagree with the schema" what

(* Is [m] a legal model: every CPD row (table row or tree leaf) a
   distribution, every CPD's parent cards the schema's, and the structure
   stratified (Def. 3.2)?  {!Model.create} has checked the rest of each
   family's shape: parent ids and their order, and child arity, so card
   2 for a join indicator.  [Error] names the first family at fault. *)
let check_model (m : Model.t) =
  let schema = m.Model.schema in
  match
    Array.iteri
      (fun ti (tm : Model.table_model) ->
        let scope = Model.scope m ti in
        let table = (Selest_db.Schema.tables schema).(ti).Selest_db.Schema.tname in
        Array.iteri (fun a fam -> check_family scope table ~child:a fam) tm.Model.attr_families;
        Array.iteri
          (fun f fam -> check_family scope table ~child:(Model.Scope.join_id scope f) fam)
          tm.Model.join_families)
      m.Model.tables
  with
  | () -> Selest_prm.Stratify.check schema (Selest_prm.Stratify.of_model m)
  | exception Illegal msg -> Error msg

let load ?carry t ~name ~path =
  let model = Selest_prm.Serialize.load path ~schema:t.schema in
  match check_model model with
  | Ok () -> install ?carry t ~name ~source:path model
  | Error msg -> raise (Selest_prm.Serialize.Error ("illegal model: " ^ msg))

let register t ~name model =
  if Selest_prm.Serialize.schema_fingerprint model.Model.schema <> t.fingerprint
  then invalid_arg "Registry.register: model schema does not match this registry";
  match check_model model with
  | Ok () -> install t ~name ~source:"<memory>" model
  | Error msg -> invalid_arg ("Registry.register: illegal model: " ^ msg)

(* Conveniences that pin internally — each is one Atomic.get, no lock. *)
let find t name = Epoch.find (Epoch.pin t) name
let default t = Epoch.default (Epoch.pin t)
let names t = Epoch.names (Epoch.pin t)
let size t = Epoch.size (Epoch.pin t)
