open Selest_db

let normalize_pred = function
  | Query.Eq v -> Query.Eq v
  | Query.In_set vs -> (
    match List.sort_uniq compare vs with
    | [ v ] -> Query.Eq v
    | vs -> Query.In_set vs)
  | Query.Range (lo, hi) -> if lo = hi then Query.Eq lo else Query.Range (lo, hi)

let normalize (q : Query.t) =
  let tvars = List.sort compare q.Query.tvars in
  let joins =
    List.sort_uniq
      (fun a b ->
        compare
          (a.Query.child_tv, a.Query.fk, a.Query.parent_tv)
          (b.Query.child_tv, b.Query.fk, b.Query.parent_tv))
      q.Query.joins
  in
  let selects =
    List.map
      (fun s -> { s with Query.pred = normalize_pred s.Query.pred })
      q.Query.selects
    |> List.sort_uniq (fun a b ->
           compare
             (a.Query.sel_tv, a.Query.sel_attr, a.Query.pred)
             (b.Query.sel_tv, b.Query.sel_attr, b.Query.pred))
  in
  Query.create ~tvars ~joins ~selects ()

let pred_str = function
  | Query.Eq v -> Printf.sprintf "=%d" v
  | Query.In_set vs ->
    Printf.sprintf "in{%s}" (String.concat "," (List.map string_of_int vs))
  | Query.Range (lo, hi) -> Printf.sprintf ":%d..%d" lo hi

let key q =
  let q = normalize q in
  let tvars = List.map (fun (tv, t) -> tv ^ "=" ^ t) q.Query.tvars in
  let joins =
    List.map
      (fun j -> Printf.sprintf "%s.%s=%s" j.Query.child_tv j.Query.fk j.Query.parent_tv)
      q.Query.joins
  in
  let selects =
    List.map
      (fun s -> Printf.sprintf "%s.%s%s" s.Query.sel_tv s.Query.sel_attr (pred_str s.Query.pred))
      q.Query.selects
  in
  String.concat "|"
    [ String.concat "&" tvars; String.concat "&" joins; String.concat "&" selects ]

let skeleton_key q = Selest_plan.Plan.skeleton_key (normalize q)

(* The plan-cache key: model name and version plus the query skeleton,
   rendered into one buffer in one pass (the old path chained sprintf +
   String.concat over freshly built lists) and hashed as it will be
   probed — the cache indexes on [hash] and keeps [key] only to verify
   the rare hash collision. *)
module Skel = struct
  type t = { hash : int; key : string }

  (* The 64-bit FNV-1a offset basis 0xcbf29ce484222325 exceeds OCaml's
     63-bit literal range, so compose it from halves (wraps to the same
     native-int bit pattern). *)
  let fnv_basis = (0xcbf29ce4 lsl 32) lor 0x84222325
  let fnv_prime = 0x100000001b3

  let fnv_string h s =
    let h = ref h in
    for i = 0 to String.length s - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
    done;
    !h

  (* [name#version|] — the model half of every plan-cache key *)
  let start ~name ~version =
    let buf = Buffer.create 256 in
    Buffer.add_string buf name;
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int version);
    Buffer.add_char buf '|';
    buf

  let finish buf =
    let key = Buffer.contents buf in
    { hash = fnv_string fnv_basis key land max_int; key }

  let make ~name ~version (q : Query.t) =
    let buf = start ~name ~version in
    List.iteri
      (fun i (tv, tbl) ->
        if i > 0 then Buffer.add_char buf ';';
        Buffer.add_string buf tv;
        Buffer.add_char buf ':';
        Buffer.add_string buf tbl)
      q.Query.tvars;
    Buffer.add_char buf '|';
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_char buf ';';
        Buffer.add_string buf j.Query.child_tv;
        Buffer.add_char buf '.';
        Buffer.add_string buf j.Query.fk;
        Buffer.add_char buf '=';
        Buffer.add_string buf j.Query.parent_tv)
      q.Query.joins;
    Buffer.add_char buf '|';
    (* [q] is canonical, so selects are sorted by (tv, attr, pred);
       adjacent duplicates collapse because the skeleton ignores
       predicate values. *)
    let prev = ref ("", "") in
    let first = ref true in
    List.iter
      (fun s ->
        let id = (s.Query.sel_tv, s.Query.sel_attr) in
        if !first || id <> !prev then begin
          if not !first then Buffer.add_char buf ';';
          first := false;
          prev := id;
          Buffer.add_string buf s.Query.sel_tv;
          Buffer.add_char buf '.';
          Buffer.add_string buf s.Query.sel_attr
        end)
      q.Query.selects;
    finish buf

  (* The served key, folded from a canonicalized scratch's interned ids
     ({!Squery.skeleton_hash}): no name order, no string.  The stored
     key — [name#version|] as [make] renders it, then the skeleton's
     snapshot — is built once per compiled plan, and a hash hit is
     verified against it without allocating. *)
  let seed ~name ~version =
    (fnv_string fnv_basis name lxor version) * fnv_prime land max_int

  let scratch_hash ~name ~version s = Squery.skeleton_hash s (seed ~name ~version)

  let scratch_key ~name ~version s =
    Buffer.contents (start ~name ~version) ^ Squery.skeleton_snapshot s

  (* A stored key is [name#<digits>|snapshot]; digits hold no '|'. *)
  let rekey ~name ~version key =
    let bar = String.index_from key (String.length name + 1) '|' in
    let snap = String.sub key (bar + 1) (String.length key - bar - 1) in
    {
      hash = Squery.snapshot_hash snap (seed ~name ~version);
      key = Buffer.contents (start ~name ~version) ^ snap;
    }

  (* Top-level recursion: the verification builds no closure. *)
  let rec prefix_eq key name i =
    i < 0 || (String.unsafe_get key i = String.unsafe_get name i && prefix_eq key name (i - 1))

  let rec n_digits v = if v < 10 then 1 else 1 + n_digits (v / 10)

  (* do the digits ending at [i] spell [v]? *)
  let rec digits_eq key i v =
    String.unsafe_get key i = Char.unsafe_chr (48 + (v mod 10))
    && (v < 10 || digits_eq key (i - 1) (v / 10))

  let scratch_matches key ~name ~version s =
    let n = String.length name in
    let bar = n + 1 + n_digits version in
    version >= 0
    && String.length key > bar
    && prefix_eq key name (n - 1)
    && String.unsafe_get key n = '#'
    && digits_eq key (bar - 1) version
    && String.unsafe_get key bar = '|'
    && Squery.skeleton_matches s key (bar + 1)
end
