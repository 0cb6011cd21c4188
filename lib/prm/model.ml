open Selest_util
open Selest_db
open Selest_bn
module Factor = Selest_prob.Factor

type parent = Own of int | Foreign of int * int
type family = { parents : parent array; cpd : Cpd.t }
type table_model = { attr_families : family array; join_families : family array }

module Scope = struct
  type s = {
    n_attrs : int;
    fk_offsets : int array;  (* offset of each fk's foreign block, relative to n_attrs *)
    target_n_attrs : int array;
    n_ext : int;
    attr_cards : int array;
    foreign_cards : int array array;  (* per fk, per target attr *)
    attr_names : string array;
    fk_names : string array;
    foreign_names : string array array;
  }

  let of_table schema ti =
    let ts = (Schema.tables schema).(ti) in
    let n_attrs = Array.length ts.Schema.attrs in
    let n_fks = Array.length ts.Schema.fks in
    let target_schemas =
      Array.map (fun f -> Schema.find_table schema f.Schema.target) ts.Schema.fks
    in
    let target_n_attrs = Array.map (fun s -> Array.length s.Schema.attrs) target_schemas in
    let fk_offsets = Array.make n_fks 0 in
    for f = 1 to n_fks - 1 do
      fk_offsets.(f) <- fk_offsets.(f - 1) + target_n_attrs.(f - 1)
    done;
    let n_ext = n_attrs + Array.fold_left ( + ) 0 target_n_attrs in
    {
      n_attrs;
      fk_offsets;
      target_n_attrs;
      n_ext;
      attr_cards = Array.map (fun a -> Value.card a.Schema.domain) ts.Schema.attrs;
      foreign_cards =
        Array.map
          (fun s -> Array.map (fun a -> Value.card a.Schema.domain) s.Schema.attrs)
          target_schemas;
      attr_names = Array.map (fun a -> a.Schema.aname) ts.Schema.attrs;
      fk_names = Array.map (fun f -> f.Schema.fkname) ts.Schema.fks;
      foreign_names =
        Array.mapi
          (fun fi s ->
            Array.map
              (fun a -> ts.Schema.fks.(fi).Schema.target ^ "." ^ a.Schema.aname)
              s.Schema.attrs)
          target_schemas;
    }

  let n_attrs s = s.n_attrs
  let n_ext s = s.n_ext
  let n_all s = s.n_ext + Array.length s.fk_offsets

  let local_id s = function
    | Own a ->
      if a < 0 || a >= s.n_attrs then invalid_arg "Scope.local_id: attr out of range";
      a
    | Foreign (f, b) ->
      if f < 0 || f >= Array.length s.fk_offsets then
        invalid_arg "Scope.local_id: fk out of range";
      if b < 0 || b >= s.target_n_attrs.(f) then
        invalid_arg "Scope.local_id: foreign attr out of range";
      s.n_attrs + s.fk_offsets.(f) + b

  let join_id s f =
    if f < 0 || f >= Array.length s.fk_offsets then invalid_arg "Scope.join_id";
    s.n_ext + f

  let parent_of_local s id =
    if id < 0 || id >= s.n_ext then invalid_arg "Scope.parent_of_local: not a parent id";
    if id < s.n_attrs then Own id
    else begin
      let rel = id - s.n_attrs in
      let f = ref 0 in
      while
        !f + 1 < Array.length s.fk_offsets && rel >= s.fk_offsets.(!f + 1)
      do
        incr f
      done;
      Foreign (!f, rel - s.fk_offsets.(!f))
    end

  let card s id =
    if id < s.n_attrs then s.attr_cards.(id)
    else if id < s.n_ext then
      match parent_of_local s id with
      | Foreign (f, b) -> s.foreign_cards.(f).(b)
      | Own _ -> assert false
    else if id < n_all s then 2
    else invalid_arg "Scope.card: id out of range"

  let name s id =
    if id < s.n_attrs then s.attr_names.(id)
    else if id < s.n_ext then
      match parent_of_local s id with
      | Foreign (f, b) -> s.foreign_names.(f).(b)
      | Own _ -> assert false
    else if id < n_all s then "J_" ^ s.fk_names.(id - s.n_ext)
    else invalid_arg "Scope.name: id out of range"
end

(* What the model derives from its families once, for every query: each
   table's scope, the structure fingerprint, and each family's CPD
   tabulated over local ids.  A table is built on first use and published
   into its own atomic slot; two domains racing on one slot build two
   identical tables and one wins, which is harmless.  Everything here
   lives and dies with its model. *)
type derived = {
  scopes : Scope.s array;
  fingerprint : string;
  tabulated : Factor.t option Atomic.t array array;
      (* per table: the attribute families, then the join families *)
}

type t = { schema : Schema.t; tables : table_model array; derived : derived }

let structure_fingerprint schema tables =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let addi i =
    add (string_of_int i);
    Buffer.add_char buf ' '
  in
  Array.iter
    (fun ts ->
      add ts.Schema.tname;
      add "(";
      Array.iter
        (fun a ->
          add a.Schema.aname;
          add ":";
          addi (Value.card a.Schema.domain))
        ts.Schema.attrs;
      Array.iter
        (fun f ->
          add f.Schema.fkname;
          add ">";
          add f.Schema.target;
          add " ")
        ts.Schema.fks;
      add ")")
    (Schema.tables schema);
  Array.iter
    (fun tm ->
      let add_family fam =
        add "[";
        Array.iter
          (function
            | Own a ->
              add "o";
              addi a
            | Foreign (f, b) ->
              add "f";
              addi f;
              addi b)
          fam.parents;
        addi (Cpd.child_card fam.cpd);
        add "]"
      in
      add "T{";
      Array.iter add_family tm.attr_families;
      add "|";
      Array.iter add_family tm.join_families;
      add "}")
    tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let create schema tables =
  let schema_tables = Schema.tables schema in
  if Array.length tables <> Array.length schema_tables then
    invalid_arg "Model.create: table count mismatch";
  let scopes = Array.init (Array.length tables) (Scope.of_table schema) in
  Array.iteri
    (fun ti tm ->
      let s = scopes.(ti) in
      let ts = schema_tables.(ti) in
      if Array.length tm.attr_families <> Array.length ts.Schema.attrs then
        invalid_arg "Model.create: attr family count mismatch";
      if Array.length tm.join_families <> Array.length ts.Schema.fks then
        invalid_arg "Model.create: join family count mismatch";
      let check_family ~child_card fam =
        let ids = Array.map (Scope.local_id s) fam.parents in
        if ids <> Cpd.parents fam.cpd then
          invalid_arg "Model.create: CPD parent ids disagree with family parents";
        Array.iteri
          (fun i id ->
            if i > 0 && ids.(i - 1) >= id then
              invalid_arg "Model.create: family parents not in local-id order";
            ignore (Scope.card s id))
          ids;
        if Cpd.child_card fam.cpd <> child_card then
          invalid_arg "Model.create: CPD child arity mismatch"
      in
      Array.iteri
        (fun a fam -> check_family ~child_card:(Scope.card s a) fam)
        tm.attr_families;
      Array.iter (fun fam -> check_family ~child_card:2 fam) tm.join_families)
    tables;
  let tabulated =
    Array.map
      (fun tm ->
        Array.init
          (Array.length tm.attr_families + Array.length tm.join_families)
          (fun _ -> Atomic.make None))
      tables
  in
  {
    schema;
    tables;
    derived =
      { scopes; fingerprint = structure_fingerprint schema tables; tabulated };
  }

let scope t ti = t.derived.scopes.(ti)
let fingerprint t = t.derived.fingerprint

(* The table in [slot], tabulated from [cpd] on first use.  A domain that
   loses the race to publish adopts the winner's (identical) table. *)
let tabulated slot cpd ~child =
  match Atomic.get slot with
  | Some f -> f
  | None ->
    let f = Cpd.to_factor ~var_of:Fun.id ~child cpd in
    if Atomic.compare_and_set slot None (Some f) then f else Option.get (Atomic.get slot)

let attr_table t ti a =
  let tm = t.tables.(ti) in
  if a < 0 || a >= Array.length tm.attr_families then
    invalid_arg "Model.attr_table: attribute out of range";
  tabulated t.derived.tabulated.(ti).(a) tm.attr_families.(a).cpd ~child:a

let join_table t ti f =
  let tm = t.tables.(ti) in
  if f < 0 || f >= Array.length tm.join_families then
    invalid_arg "Model.join_table: foreign key out of range";
  tabulated
    t.derived.tabulated.(ti).(Array.length tm.attr_families + f)
    tm.join_families.(f).cpd
    ~child:(Scope.join_id t.derived.scopes.(ti) f)

let size_bytes t =
  let acc = ref 0 in
  Array.iter
    (fun tm ->
      Array.iter (fun f -> acc := !acc + Cpd.size_bytes f.cpd) tm.attr_families;
      Array.iter (fun f -> acc := !acc + Cpd.size_bytes f.cpd) tm.join_families;
      acc :=
        !acc
        + Bytesize.values (Array.length tm.attr_families + Array.length tm.join_families))
    t.tables;
  !acc

let n_cross_edges t =
  let acc = ref 0 in
  Array.iter
    (fun tm ->
      Array.iter
        (fun f ->
          Array.iter (function Foreign _ -> incr acc | Own _ -> ()) f.parents)
        tm.attr_families)
    t.tables;
  !acc

let n_join_parents t =
  let acc = ref 0 in
  Array.iter
    (fun tm ->
      Array.iter (fun f -> acc := !acc + Array.length f.parents) tm.join_families)
    t.tables;
  !acc

let pp ppf t =
  let schema_tables = Schema.tables t.schema in
  Format.fprintf ppf "PRM (%d bytes)@." (size_bytes t);
  Array.iteri
    (fun ti tm ->
      let s = scope t ti in
      let ts = schema_tables.(ti) in
      Format.fprintf ppf "table %s:@." ts.Schema.tname;
      Array.iteri
        (fun a fam ->
          let parents =
            Array.to_list
              (Array.map (fun p -> Scope.name s (Scope.local_id s p)) fam.parents)
          in
          Format.fprintf ppf "  %s <- {%s} (%d params)@." (Scope.name s a)
            (String.concat ", " parents)
            (Cpd.n_params fam.cpd))
        tm.attr_families;
      Array.iteri
        (fun f fam ->
          let parents =
            Array.to_list
              (Array.map (fun p -> Scope.name s (Scope.local_id s p)) fam.parents)
          in
          Format.fprintf ppf "  J_%s <- {%s} (%d params)@."
            ts.Schema.fks.(f).Schema.fkname
            (String.concat ", " parents)
            (Cpd.n_params fam.cpd))
        tm.join_families)
    t.tables
