(* Zero-copy request parsing (the serve front-end's hot path).

   [Qparse] builds a [Query.t] out of intermediate strings and lists —
   fine for the CLI, but on a served EST it is the dominant allocation
   source.  This module lexes the same textual query syntax directly out
   of the request buffer into a reusable scratch query: table, attribute,
   foreign-key and value symbols are hashed while they are scanned and
   probed against tables interned once per schema, predicates land in
   growable int arrays, and canonicalization sorts those arrays in place
   on packed int keys.  After [parse] + [canon] the scratch yields a
   63-bit canonical hash (estimate-cache key), an immutable [Vec.t]
   (stored beside cache entries for full-key verification on hash
   collision), a skeleton hash and snapshot folded from the same ids
   (plan-cache key), and — for compiles, EXPLAIN and EXPLAINPLAN only —
   a materialized [Query.t] equal to what the reference
   [Canon.normalize (Qparse.parse ...)] pipeline produces.

   Acceptance and error messages agree with the reference pipeline
   ([Protocol.split_sections], [Qparse.parse], [Query.create],
   [Exec.validate]), checked in the reference's order: section count,
   empty tuple-variable section, join syntax, each select in order
   (tuple variable, table, attribute, values), then [Query.create]'s
   checks, then [Exec.validate]'s. *)

let fail fmt = Printf.ksprintf failwith fmt

let is_space c =
  c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* 32-bit FNV-1a constants over native ints: the symbol hash the lexer
   folds while scanning. *)
let fnv_basis = 0x811c9dc5
let fnv_prime = 0x01000193

let step h c = (h lxor Char.code c) * fnv_prime

(* ------------------------------------------------------------------ *)
(* Interned symbol tables: string -> small int, probed either with a
   whole string (build/slow path) or with a byte slice and the hash the
   lexer already folded over it (hot path, no allocation).  Linear
   probing over a power-of-two table; values are >= 0, so -1 marks an
   empty slot. *)

module Strmap = struct
  type t = { mask : int; keys : string array; vals : int array }

  let hash_str s =
    let h = ref fnv_basis in
    String.iter (fun c -> h := step !h c) s;
    !h

  let create n =
    let cap = ref 8 in
    while !cap < 2 * (n + 1) do
      cap := !cap * 2
    done;
    { mask = !cap - 1; keys = Array.make !cap ""; vals = Array.make !cap (-1) }

  let add t key v =
    if v < 0 then invalid_arg "Squery.Strmap.add: negative value";
    let i = ref (hash_str key land t.mask) in
    while t.vals.(!i) >= 0 do
      if t.keys.(!i) = key then invalid_arg "Squery.Strmap.add: duplicate key";
      i := (!i + 1) land t.mask
    done;
    t.keys.(!i) <- key;
    t.vals.(!i) <- v

  let slice_eq s b off len =
    String.length s = len
    &&
    let ok = ref true in
    for i = 0 to len - 1 do
      if String.unsafe_get s i <> Bytes.unsafe_get b (off + i) then ok := false
    done;
    !ok

  (* [find_hashed t h b off len] is the value bound to [b[off..off+len)],
     whose FNV hash is [h], or -1.  No allocation. *)
  let find_hashed t h b off len =
    let i = ref (h land t.mask) in
    let r = ref (-2) in
    while !r = -2 do
      if t.vals.(!i) < 0 then r := -1
      else if slice_eq t.keys.(!i) b off len then r := t.vals.(!i)
      else i := (!i + 1) land t.mask
    done;
    !r

  let find_str t s = find_hashed t (hash_str s) (Bytes.unsafe_of_string s) 0 (String.length s)
end

(* ------------------------------------------------------------------ *)
(* The schema's symbols, interned once (at server start).  Immutable
   and safely shared across domains. *)

(* bits to hold every value in [0, n) *)
let bits n =
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

module Symtab = struct
  type t = {
    tables : Strmap.t;
    tnames : string array;
    attrs : Strmap.t array;  (* per table: attr name -> attr idx *)
    anames : string array array;
    fkmaps : Strmap.t array;  (* per table: fk name -> fk idx *)
    fknames : string array array;
    fk_target : int array array;  (* per table, fk idx -> target table idx *)
    values : Strmap.t array array;  (* per table, attr idx: label -> code *)
    cards : int array array;
    ordinal : bool array array;
    decimal_labels : bool array array;  (* some label reads as a decimal *)
    attr_bits : int;  (* widths of the packed canonical sort keys *)
    fk_bits : int;
    value_bits : int;
  }

  let of_schema schema =
    let ts = Schema.tables schema in
    let nt = Array.length ts in
    let tables = Strmap.create nt in
    Array.iteri (fun i t -> Strmap.add tables t.Schema.tname i) ts;
    let interned names =
      let m = Strmap.create (Array.length names) in
      Array.iteri (fun i n -> Strmap.add m n i) names;
      m
    in
    let anames =
      Array.map (fun t -> Array.map (fun a -> a.Schema.aname) t.Schema.attrs) ts
    in
    let fknames =
      Array.map (fun t -> Array.map (fun f -> f.Schema.fkname) t.Schema.fks) ts
    in
    let fk_target =
      Array.map
        (fun t ->
          Array.map
            (fun f ->
              match Strmap.find_str tables f.Schema.target with
              | -1 -> invalid_arg "Squery.Symtab: foreign key targets unknown table"
              | i -> i)
            t.Schema.fks)
        ts
    in
    let values =
      Array.map
        (fun t -> Array.map (fun a -> interned a.Schema.domain.Value.labels) t.Schema.attrs)
        ts
    in
    let cards =
      Array.map
        (fun t -> Array.map (fun a -> Value.card a.Schema.domain) t.Schema.attrs)
        ts
    in
    let ordinal =
      Array.map
        (fun t ->
          Array.map (fun a -> Value.is_ordinal a.Schema.domain) t.Schema.attrs)
        ts
    in
    (* [[+-]?[0-9][0-9_]*]: every spelling the lexer reads as a decimal *)
    let decimal l =
      let n = String.length l in
      let d = if n > 0 && (l.[0] = '+' || l.[0] = '-') then 1 else 0 in
      d < n
      && l.[d] >= '0'
      && l.[d] <= '9'
      && String.for_all (fun c -> c = '_' || (c >= '0' && c <= '9')) (String.sub l d (n - d))
    in
    let decimal_labels =
      Array.map
        (fun t ->
          Array.map (fun a -> Array.exists decimal a.Schema.domain.Value.labels) t.Schema.attrs)
        ts
    in
    let widest f = Array.fold_left (fun acc x -> max acc (f x)) 1 in
    {
      tables;
      tnames = Array.map (fun t -> t.Schema.tname) ts;
      attrs = Array.map interned anames;
      anames;
      fkmaps = Array.map interned fknames;
      fknames;
      fk_target;
      values;
      cards;
      ordinal;
      decimal_labels;
      attr_bits = bits (widest Array.length anames);
      fk_bits = bits (widest Array.length fknames);
      value_bits = bits (widest (widest Fun.id) cards);
    }

  let table_name t i = t.tnames.(i)
end

(* ------------------------------------------------------------------ *)
(* The reusable scratch query.  Tuple-variable names stay as slices
   into the borrowed request buffer; everything else is interned ids.
   An id of -1 marks a symbol the schema lacks, reported by [validate]
   in the reference's order.  Selects: kind 0 = Eq (operand in [lo]),
   1 = Range ([lo]..[hi]), 2 = In_set ([lo] = offset into [pool], [hi]
   = count). *)

type t = {
  tab : Symtab.t;
  mutable buf : Bytes.t;  (* borrowed; valid until the next [parse] *)
  mutable b_off : int;  (* the body: [buf[b_off..b_lim)] *)
  mutable b_lim : int;
  mutable n_tv : int;
  mutable tv_off : int array;
  mutable tv_len : int array;
  mutable tv_tbl : int array;
  mutable tv_to : int array;  (* table-name slice, for [validate]'s message *)
  mutable tv_te : int array;
  mutable n_j : int;
  mutable j_child : int array;
  mutable j_fk : int array;
  mutable j_parent : int array;
  mutable j_io : int array;  (* the join item, for messages *)
  mutable j_ie : int array;
  mutable n_s : int;
  mutable s_tv : int array;
  mutable s_attr : int array;
  mutable s_kind : int array;
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable pool : int array;
  mutable pool_len : int;
  (* lexer registers: the section's brace depth and the last scanned
     symbol or value (trimmed slice, FNV hash, decimal form) *)
  mutable depth : int;
  mutable sym_o : int;
  mutable sym_e : int;
  mutable sym_h : int;
  mutable val_o : int;
  mutable val_e : int;
  mutable val_h : int;
  mutable val_n : int;
  (* canonicalization scratch *)
  mutable perm : int array;
  mutable inv : int array;
  mutable keys : int array;
  mutable tmp : int array;
  mutable uf : int array;
  mutable vbuf : Bytes.t;  (* snapshot encodings, see [encode_canon] *)
}

let create tab =
  let a n = Array.make n 0 in
  {
    tab;
    buf = Bytes.empty;
    b_off = 0;
    b_lim = 0;
    n_tv = 0;
    tv_off = a 8;
    tv_len = a 8;
    tv_tbl = a 8;
    tv_to = a 8;
    tv_te = a 8;
    n_j = 0;
    j_child = a 8;
    j_fk = a 8;
    j_parent = a 8;
    j_io = a 8;
    j_ie = a 8;
    n_s = 0;
    s_tv = a 16;
    s_attr = a 16;
    s_kind = a 16;
    s_lo = a 16;
    s_hi = a 16;
    pool = a 32;
    pool_len = 0;
    depth = 0;
    sym_o = 0;
    sym_e = 0;
    sym_h = 0;
    val_o = 0;
    val_e = 0;
    val_h = 0;
    val_n = 0;
    perm = a 16;
    inv = a 16;
    keys = a 16;
    tmp = a 16;
    uf = a 16;
    vbuf = Bytes.create 256;
  }

let symtab t = t.tab

let grow a n =
  if Array.length a > n then a
  else begin
    let b = Array.make (max (2 * Array.length a) (n + 1)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The canonicalization scratch arrays, grown together to hold [n]
   items — and only then written: a field store is a [caml_modify]. *)
let reserve t n =
  if n >= Array.length t.keys then begin
    t.perm <- grow t.perm n;
    t.inv <- grow t.inv n;
    t.keys <- grow t.keys n;
    t.tmp <- grow t.tmp n;
    t.uf <- grow t.uf n
  end

let push_tvar t o e tbl to_ te =
  (* the parallel arrays grow in lockstep; skipping the field stores
     when they fit keeps [caml_modify] off the per-item path *)
  let n = t.n_tv in
  if n >= Array.length t.tv_off then begin
    t.tv_off <- grow t.tv_off n;
    t.tv_len <- grow t.tv_len n;
    t.tv_tbl <- grow t.tv_tbl n;
    t.tv_to <- grow t.tv_to n;
    t.tv_te <- grow t.tv_te n
  end;
  t.tv_off.(n) <- o;
  t.tv_len.(n) <- e - o;
  t.tv_tbl.(n) <- tbl;
  t.tv_to.(n) <- to_;
  t.tv_te.(n) <- te;
  t.n_tv <- n + 1

let push_join t child fk parent io ie =
  let n = t.n_j in
  if n >= Array.length t.j_child then begin
    t.j_child <- grow t.j_child n;
    t.j_fk <- grow t.j_fk n;
    t.j_parent <- grow t.j_parent n;
    t.j_io <- grow t.j_io n;
    t.j_ie <- grow t.j_ie n
  end;
  t.j_child.(n) <- child;
  t.j_fk.(n) <- fk;
  t.j_parent.(n) <- parent;
  t.j_io.(n) <- io;
  t.j_ie.(n) <- ie;
  t.n_j <- n + 1

let push_sel t tv attr kind lo hi =
  let n = t.n_s in
  if n >= Array.length t.s_tv then begin
    t.s_tv <- grow t.s_tv n;
    t.s_attr <- grow t.s_attr n;
    t.s_kind <- grow t.s_kind n;
    t.s_lo <- grow t.s_lo n;
    t.s_hi <- grow t.s_hi n
  end;
  t.s_tv.(n) <- tv;
  t.s_attr.(n) <- attr;
  t.s_kind.(n) <- kind;
  t.s_lo.(n) <- lo;
  t.s_hi.(n) <- hi;
  t.n_s <- n + 1

let push_pool t v =
  if t.pool_len >= Array.length t.pool then t.pool <- grow t.pool t.pool_len;
  t.pool.(t.pool_len) <- v;
  t.pool_len <- t.pool_len + 1

(* ---- slice helpers (ints in, ints out: nothing boxes) ------------- *)

let trim_start b off lim =
  let i = ref off in
  while !i < lim && is_space (Bytes.unsafe_get b !i) do
    incr i
  done;
  !i

let trim_end b off lim =
  let j = ref lim in
  while !j > off && is_space (Bytes.unsafe_get b (!j - 1)) do
    decr j
  done;
  !j

let find_char b off lim c =
  let i = ref off in
  let r = ref (-1) in
  while !r < 0 && !i < lim do
    if Bytes.unsafe_get b !i = c then r := !i else incr i
  done;
  !r

let slices_eq b o1 l1 o2 l2 =
  l1 = l2
  &&
  let ok = ref true in
  for i = 0 to l1 - 1 do
    if Bytes.unsafe_get b (o1 + i) <> Bytes.unsafe_get b (o2 + i) then ok := false
  done;
  !ok

(* error-path only: materialize a slice for a message *)
let sub t o e = Bytes.sub_string t.buf o (e - o)

(* The first declared tuple variable named [buf[o..e)] (the reference's
   [List.assoc]), or -1. *)
let tv_find t o e =
  let len = e - o in
  let r = ref (-1) in
  let k = ref 0 in
  while !r < 0 && !k < t.n_tv do
    if slices_eq t.buf t.tv_off.(!k) t.tv_len.(!k) o len then r := !k;
    incr k
  done;
  !r

let tv_name t i = sub t t.tv_off.(i) (t.tv_off.(i) + t.tv_len.(i))

(* ------------------------------------------------------------------ *)
(* The lexer: one forward scan per section.  Sections end at a raw ';'
   (brace-blind, like [String.split_on_char]); items end at a ',' at
   brace depth 0, the depth running across the section's items and
   allowed to go negative on stray '}'s, exactly like
   [Protocol.split_top_commas].  Each symbol is hashed while it is
   scanned, trimmed on the fly: the hash and end are recorded at every
   non-space byte, so trailing spaces never reach them. *)

(* Byte classes, one table lookup per byte: 0 a plain symbol byte,
   1 space, 2 ';', 3 ',', 4 '{', 5 '}', 6 '=', 7 '.'; for values also
   8 a digit, 9 '_', 10 a sign. *)
let classes ~value =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | ' ' | '\t' | '\n' | '\r' | '\012' -> 1
        | ';' -> 2
        | ',' -> 3
        | '{' -> 4
        | '}' -> 5
        | '=' -> 6
        | '.' -> 7
        | '0' .. '9' when value -> 8
        | '_' when value -> 9
        | '+' | '-' when value -> 10
        | _ -> 0))

let sym_class = classes ~value:false
let val_class = classes ~value:true
let class_of tbl c = Char.code (String.unsafe_get tbl (Char.code c))

(* Scan one symbol from [i], stopping at an item boundary or, when
   asked, at the first '=' or '.'.  Records the trimmed slice
   [sym_o, sym_e) and its hash; returns the stop position. *)
let scan_sym t i ~at_eq ~at_dot =
  let b = t.buf and lim = t.b_lim in
  let i = ref (trim_start b i lim) in
  let d = ref t.depth and stop = ref (-1) in
  let o = ref !i and e = ref !i and h = ref fnv_basis and he = ref fnv_basis in
  while !stop < 0 do
    if !i >= lim then stop := lim
    else begin
      let c = Bytes.unsafe_get b !i in
      let k = class_of sym_class c in
      if k = 0 then begin
        h := step !h c;
        he := !h;
        e := !i + 1;
        incr i
      end
      else if k = 1 then begin
        h := step !h c;
        incr i
      end
      else if k = 2 || (k = 3 && !d = 0) || (k = 6 && at_eq) || (k = 7 && at_dot) then
        stop := !i
      else begin
        if k = 4 then incr d else if k = 5 then decr d;
        h := step !h c;
        he := !h;
        e := !i + 1;
        incr i
      end
    end
  done;
  t.depth <- !d;
  if !e = !o then begin
    (* nothing but spaces: the empty symbol at the stop *)
    t.sym_o <- !stop;
    t.sym_e <- !stop
  end
  else begin
    t.sym_o <- !o;
    t.sym_e <- !e
  end;
  t.sym_h <- !he;
  !stop

(* End of the item holding [i] given the depth there (error paths). *)
let item_end t i =
  let d = ref t.depth and j = ref i and r = ref (-1) in
  while !r < 0 do
    if !j >= t.b_lim then r := t.b_lim
    else
      match Bytes.unsafe_get t.buf !j with
      | ';' -> r := !j
      | ',' when !d = 0 -> r := !j
      | '{' -> incr d; incr j
      | '}' -> decr d; incr j
      | _ -> incr j
  done;
  !r

(* The trimmed text of the item starting at [start] and holding [i]. *)
let item_text t start i =
  let o = trim_start t.buf start t.b_lim in
  sub t o (trim_end t.buf o (item_end t i))

let no_int = min_int

(* A set's closing '}' is its rhs's last non-space byte: after it,
   only spaces before the item ends. *)
let closes t j d =
  let j = trim_start t.buf j t.b_lim in
  j >= t.b_lim
  ||
  let c = Bytes.unsafe_get t.buf j in
  c = ';' || (c = ',' && d = 0)

(* Scan one value, trimmed, folding its label hash and its decimal
   integer form ([val_n], or [no_int] unless the trimmed value is an
   optional sign then digits and '_'s, a digit first, at most 18 digits
   — the decimal subset of [int_of_string]) in the same pass.  [mode] 0
   stops at the item end or the first "..", 1 at the item end, 2 (set
   element) at any ',', the set's closing '}' or the item end.  Returns
   the stop position. *)
let scan_value t i mode =
  let b = t.buf and lim = t.b_lim in
  let d = ref t.depth and i = ref i and stop = ref (-1) in
  let o = ref (-1) and e = ref (-1) and h = ref fnv_basis and he = ref fnv_basis in
  (* decimal form: value, digits, bytes that fit it, sign *)
  let n = ref 0 and nd = ref 0 and fit = ref 0 and neg = ref false in
  while !stop < 0 do
    if !i >= lim then stop := lim
    else begin
      let c = Bytes.unsafe_get b !i in
      let k = class_of val_class c in
      if k = 1 then begin
        if !o >= 0 then h := step !h c;
        incr i
      end
      else if
        k = 2
        || (k = 3 && (!d = 0 || mode = 2))
        || (k = 7 && mode = 0 && !i + 1 < lim && Bytes.unsafe_get b (!i + 1) = '.')
      then stop := !i
      else if k = 5 && mode = 2 && closes t (!i + 1) (!d - 1) then begin
        decr d;
        stop := !i
      end
      else begin
        if k = 4 then incr d else if k = 5 then decr d;
        if !o < 0 then o := !i;
        h := step !h c;
        he := !h;
        e := !i + 1;
        if k = 8 then begin
          n := (!n * 10) + (Char.code c - 48);
          incr nd;
          incr fit
        end
        else if (k = 9 && !nd > 0) || (k = 10 && !i = !o) then begin
          if k = 10 then neg := c = '-';
          incr fit
        end;
        incr i
      end
    end
  done;
  t.depth <- !d;
  if !o < 0 then begin
    t.val_o <- !stop;
    t.val_e <- !stop
  end
  else begin
    t.val_o <- !o;
    t.val_e <- !e
  end;
  t.val_h <- !he;
  t.val_n <-
    (if !nd > 0 && !nd <= 18 && !fit = !e - !o then if !neg then - !n else !n else no_int);
  !stop

(* [Qparse.value_code] on a trimmed slice that is no label — the exact
   reference for everything the lexer does not settle itself (exotic
   integer forms, and the error messages). *)
let value_code t ti ai o e =
  let card = t.tab.Symtab.cards.(ti).(ai) in
  match int_of_string_opt (sub t o e) with
  | Some v when v >= 0 && v < card -> v
  | Some v -> fail "value %d out of domain [0,%d)" v card
  | None -> fail "unknown value %S" (sub t o e)

(* The code of the value just scanned: a label wins over an integer. *)
let value_of t ti ai =
  let o = t.val_o and e = t.val_e and n = t.val_n in
  let v =
    (* a decimal can only be a label of a domain that has decimal labels *)
    if n <> no_int && not t.tab.Symtab.decimal_labels.(ti).(ai) then -1
    else Strmap.find_hashed t.tab.Symtab.values.(ti).(ai) t.val_h t.buf o (e - o)
  in
  if v >= 0 then v
  else if n <> no_int && n >= 0 && n < t.tab.Symtab.cards.(ti).(ai) then n
  else value_code t ti ai o e

(* ---- items --------------------------------------------------------- *)

(* [tv=table] or [table]; nothing fails here (an unknown table is
   [validate]'s). *)
let lex_tvar t start =
  let p = scan_sym t start ~at_eq:true ~at_dot:false in
  let tables = t.tab.Symtab.tables in
  if p < t.b_lim && Bytes.unsafe_get t.buf p = '=' then begin
    let tvo = t.sym_o and tve = t.sym_e in
    let q = scan_sym t (p + 1) ~at_eq:false ~at_dot:false in
    let o = t.sym_o and e = t.sym_e in
    push_tvar t tvo tve (Strmap.find_hashed tables t.sym_h t.buf o (e - o)) o e;
    q
  end
  else begin
    let o = t.sym_o and e = t.sym_e in
    if e > o then push_tvar t o e (Strmap.find_hashed tables t.sym_h t.buf o (e - o)) o e;
    p
  end

(* Error raisers are top-level so the success path never builds their
   closures — [parse] must not allocate on acceptance. *)
let bad_join t start i = fail "join %S: expected child.fk=parent" (item_text t start i)

(* [child.fk=parent]: split at the first '=', its left side at the
   first '.'. *)
let lex_join t start =
  let p = scan_sym t start ~at_eq:true ~at_dot:true in
  let c = if p < t.b_lim then Bytes.unsafe_get t.buf p else ';' in
  if c <> '.' && c <> '=' then begin
    if t.sym_e > t.sym_o then bad_join t start p;
    p (* an empty item *)
  end
  else begin
    if c <> '.' then bad_join t start p;
    let child = tv_find t t.sym_o t.sym_e in
    let p = scan_sym t (p + 1) ~at_eq:true ~at_dot:false in
    if p >= t.b_lim || Bytes.unsafe_get t.buf p <> '=' then bad_join t start p;
    let fo = t.sym_o and fe = t.sym_e and fh = t.sym_h in
    let q = scan_sym t (p + 1) ~at_eq:false ~at_dot:false in
    let parent = tv_find t t.sym_o t.sym_e in
    let fk =
      if child < 0 || t.tv_tbl.(child) < 0 then -1
      else Strmap.find_hashed t.tab.Symtab.fkmaps.(t.tv_tbl.(child)) fh t.buf fo (fe - fo)
    in
    push_join t child fk parent start q;
    q
  end

let bad_select t start i = fail "select %S: expected tv.attr=value" (item_text t start i)

(* A set rhs: elements split at every ',' ([String.split_on_char] on the
   braces' inside).  Returns the stop position after the closing '}',
   or -1 when the rhs turns out not to end with '}' — then it is no set
   and the caller lexes it again as a scalar.  Element errors are raised
   only once the set is confirmed, for the first bad element. *)
let lex_set t slot ti ai p =
  let start = t.pool_len in
  let bad_o = ref (-1) and bad_e = ref (-1) in
  let p = ref p and r = ref (-2) in
  while !r = -2 do
    let q = scan_value t !p 2 in
    let c = if q < t.b_lim then Bytes.unsafe_get t.buf q else ';' in
    let closing = c = '}' in
    if closing || (c = ',' && t.depth <> 0) then begin
      (match value_of t ti ai with
      | v -> push_pool t v
      | exception Failure _ ->
        if !bad_o < 0 then begin
          bad_o := t.val_o;
          bad_e := t.val_e
        end);
      if closing then r := q + 1 else p := q + 1
    end
    else r := -1
  done;
  if !r >= 0 then begin
    if !bad_o >= 0 then ignore (value_code t ti ai !bad_o !bad_e);
    push_sel t slot ai 2 start (t.pool_len - start);
    (* the item ends at the next boundary; only spaces are left *)
    scan_sym t !r ~at_eq:false ~at_dot:false
  end
  else begin
    t.pool_len <- start;
    -1
  end

(* A scalar rhs: [lo..hi] at the first "..", else an Eq value.  The
   reference builds [Range (value lo, value hi)], whose arguments OCaml
   evaluates right to left: [hi]'s error wins. *)
let lex_scalar t slot ti ai p =
  let q = scan_value t p 0 in
  if q < t.b_lim && Bytes.unsafe_get t.buf q = '.' then begin
    let lo_o = t.val_o and lo_e = t.val_e and lo_h = t.val_h and lo_n = t.val_n in
    let r = scan_value t (q + 2) 1 in
    let vhi = value_of t ti ai in
    t.val_o <- lo_o;
    t.val_e <- lo_e;
    t.val_h <- lo_h;
    t.val_n <- lo_n;
    push_sel t slot ai 1 (value_of t ti ai) vhi;
    r
  end
  else begin
    push_sel t slot ai 0 (value_of t ti ai) 0;
    q
  end

(* [tv.attr=rhs]: split at the first '=', its left side at the first
   '.'; then, like [Qparse.parse_select_with], resolve the tuple
   variable, its table, the attribute and the values in that order. *)
let lex_select t start =
  let p = scan_sym t start ~at_eq:true ~at_dot:true in
  let c = if p < t.b_lim then Bytes.unsafe_get t.buf p else ';' in
  if c <> '.' && c <> '=' then begin
    if t.sym_e > t.sym_o then bad_select t start p;
    p (* an empty item *)
  end
  else begin
    if c <> '.' then bad_select t start p;
    let tvo = t.sym_o and tve = t.sym_e in
    let p = scan_sym t (p + 1) ~at_eq:true ~at_dot:false in
    if p >= t.b_lim || Bytes.unsafe_get t.buf p <> '=' then bad_select t start p;
    let slot = tv_find t tvo tve in
    if slot < 0 then
      fail "select %S: unknown tuple variable %s" (item_text t start p) (sub t tvo tve);
    let ti = t.tv_tbl.(slot) in
    (* [Database.table] on an unknown table *)
    if ti < 0 then raise Not_found;
    let ai =
      Strmap.find_hashed t.tab.Symtab.attrs.(ti) t.sym_h t.buf t.sym_o (t.sym_e - t.sym_o)
    in
    if ai < 0 then
      fail "select %S: no attribute %s in %s" (item_text t start p)
        (sub t t.sym_o t.sym_e) t.tab.Symtab.tnames.(ti);
    let rhs = trim_start t.buf (p + 1) t.b_lim in
    let depth = t.depth in
    let r =
      if rhs < t.b_lim && Bytes.unsafe_get t.buf rhs = '{' then begin
        t.depth <- depth + 1;
        lex_set t slot ti ai (rhs + 1)
      end
      else -1
    in
    if r >= 0 then r
    else begin
      t.depth <- depth;
      lex_scalar t slot ti ai (p + 1)
    end
  end

(* Items of one section from [p]; returns the section's end (its ';' or
   the body's end). *)
let rec lex_items t p item =
  let q = item t p in
  if q < t.b_lim && Bytes.unsafe_get t.buf q = ',' then lex_items t (q + 1) item else q

(* ---- [Query.create] and [Exec.validate], in their order ------------- *)

let rec uf_find uf i = if uf.(i) = i then i else uf_find uf uf.(i)

(* A join item's child, fk and parent slices (error paths). *)
let join_parts t j =
  let o = trim_start t.buf t.j_io.(j) t.j_ie.(j) in
  let e = trim_end t.buf o t.j_ie.(j) in
  let eq = find_char t.buf o e '=' in
  let le = trim_end t.buf o eq in
  let dot = find_char t.buf o le '.' in
  let fo = trim_start t.buf (dot + 1) le in
  ( sub t o (trim_end t.buf o dot),
    sub t fo le,
    sub t (trim_start t.buf (eq + 1) e) e )

let validate t =
  let tab = t.tab in
  for i = 0 to t.n_tv - 1 do
    for k = i + 1 to t.n_tv - 1 do
      if slices_eq t.buf t.tv_off.(i) t.tv_len.(i) t.tv_off.(k) t.tv_len.(k) then
        fail "Query.create: duplicate tuple variable %s" (tv_name t i)
    done
  done;
  for j = 0 to t.n_j - 1 do
    if t.j_child.(j) < 0 then begin
      let child, _, _ = join_parts t j in
      fail "Query.create: join references undeclared tuple variable %s" child
    end;
    if t.j_parent.(j) < 0 then begin
      let _, _, parent = join_parts t j in
      fail "Query.create: join references undeclared tuple variable %s" parent
    end;
    if t.j_child.(j) = t.j_parent.(j) then
      failwith "Query.create: self-join through a foreign key is not a keyjoin"
  done;
  for i = 0 to t.n_tv - 1 do
    if t.tv_tbl.(i) < 0 then
      fail "Exec.validate: unknown table %s for %s" (sub t t.tv_to.(i) t.tv_te.(i))
        (tv_name t i)
  done;
  for s = 0 to t.n_s - 1 do
    if t.s_kind.(s) = 1 then begin
      let ti = t.tv_tbl.(t.s_tv.(s)) and ai = t.s_attr.(s) in
      if t.s_hi.(s) < t.s_lo.(s) then failwith "Exec.validate: empty range";
      if not tab.Symtab.ordinal.(ti).(ai) then
        fail "Exec.validate: range predicate on non-ordinal %s.%s" tab.Symtab.tnames.(ti)
          tab.Symtab.anames.(ti).(ai)
    end
  done;
  for j = 0 to t.n_j - 1 do
    let cti = t.tv_tbl.(t.j_child.(j)) in
    let fk = t.j_fk.(j) in
    if fk < 0 then begin
      let _, fkname, _ = join_parts t j in
      fail "Exec.validate: no foreign key %s in %s" fkname tab.Symtab.tnames.(cti)
    end;
    let target = tab.Symtab.fk_target.(cti).(fk) in
    let pti = t.tv_tbl.(t.j_parent.(j)) in
    if target <> pti then
      fail "Exec.validate: %s.%s targets %s, not %s" tab.Symtab.tnames.(cti)
        tab.Symtab.fknames.(cti).(fk) tab.Symtab.tnames.(target) tab.Symtab.tnames.(pti)
  done;
  (* keyjoin forest (checked before any dedup, like the reference: an
     exactly-duplicated join clause is a cycle there too) *)
  reserve t t.n_tv;
  for i = 0 to t.n_tv - 1 do
    t.uf.(i) <- i
  done;
  for j = 0 to t.n_j - 1 do
    let a = uf_find t.uf t.j_child.(j) and b = uf_find t.uf t.j_parent.(j) in
    if a = b then failwith "Exec.validate: cyclic join graph (not a keyjoin forest)";
    t.uf.(a) <- b
  done;
  for j1 = 0 to t.n_j - 1 do
    for j2 = j1 + 1 to t.n_j - 1 do
      if t.j_child.(j1) = t.j_child.(j2) && t.j_fk.(j1) = t.j_fk.(j2) then
        failwith "Exec.validate: foreign key joined twice from the same tuple variable"
    done
  done

let too_many_sections = "EST: too many ';'-sections (expected tvars ; joins ; selects)"

let lex t =
  t.depth <- 0;
  let p = lex_items t t.b_off lex_tvar in
  if t.n_tv = 0 then failwith "EST: empty tuple-variable section";
  if p < t.b_lim then begin
    t.depth <- 0;
    let p = lex_items t (p + 1) lex_join in
    if p < t.b_lim then begin
      t.depth <- 0;
      if lex_items t (p + 1) lex_select < t.b_lim then failwith too_many_sections
    end
  end;
  validate t

let reset t =
  t.n_tv <- 0;
  t.n_j <- 0;
  t.n_s <- 0;
  t.pool_len <- 0

let parse t buf ~off ~len =
  t.buf <- buf;
  t.b_off <- off;
  t.b_lim <- off + len;
  reset t;
  match lex t with
  | () -> ()
  | exception ((Failure _ | Not_found) as e) ->
    (* the section count is the reference's first check *)
    let semis = ref 0 in
    for i = off to off + len - 1 do
      if Bytes.unsafe_get buf i = ';' then incr semis
    done;
    if !semis > 2 then failwith too_many_sections else raise e


(* ------------------------------------------------------------------ *)
(* A materialized query loaded into the scratch (EXPLAINPLAN's
   sub-queries), so it is canonicalized and keyed exactly like a parsed
   body.  The tuple-variable names are copied into a fresh buffer the
   scratch then borrows.  Raises [Not_found] on a symbol the schema
   lacks and [Invalid_argument] on a value outside its domain. *)

let tv_named t name =
  let r = ref (-1) in
  for k = t.n_tv - 1 downto 0 do
    if Strmap.slice_eq name t.buf t.tv_off.(k) t.tv_len.(k) then r := k
  done;
  if !r < 0 then raise Not_found else !r

let load_query t (q : Query.t) =
  let tab = t.tab in
  let found v = if v < 0 then raise Not_found else v in
  let names = String.concat "" (List.map fst q.Query.tvars) in
  t.buf <- Bytes.of_string names;
  t.b_off <- 0;
  t.b_lim <- String.length names;
  reset t;
  ignore
    (List.fold_left
       (fun o (tv, tbl) ->
         let e = o + String.length tv in
         push_tvar t o e (found (Strmap.find_str tab.Symtab.tables tbl)) 0 0;
         e)
       0 q.Query.tvars);
  List.iter
    (fun j ->
      let child = tv_named t j.Query.child_tv in
      let fk = found (Strmap.find_str tab.Symtab.fkmaps.(t.tv_tbl.(child)) j.Query.fk) in
      push_join t child fk (tv_named t j.Query.parent_tv) 0 0)
    q.Query.joins;
  List.iter
    (fun s ->
      let tv = tv_named t s.Query.sel_tv in
      let ti = t.tv_tbl.(tv) in
      let ai = found (Strmap.find_str tab.Symtab.attrs.(ti) s.Query.sel_attr) in
      let v x =
        if x < 0 || x >= tab.Symtab.cards.(ti).(ai) then
          invalid_arg "Squery.load_query: value out of domain";
        x
      in
      match s.Query.pred with
      | Query.Eq x -> push_sel t tv ai 0 (v x) 0
      | Query.Range (lo, hi) -> push_sel t tv ai 1 (v lo) (v hi)
      | Query.In_set xs ->
        let start = t.pool_len in
        List.iter (fun x -> push_pool t (v x)) xs;
        push_sel t tv ai 2 start (t.pool_len - start))
    q.Query.selects

(* ------------------------------------------------------------------ *)
(* In-place canonicalization.  Semantics match [Canon.normalize]:
   predicates first (set values sorted + deduped, singletons and
   degenerate ranges collapse to Eq), then tuple variables sort by
   name, joins and selects sort + dedup.  Joins and selects order here
   by interned ids — content-determined, so equal queries still get
   equal hashes; [to_query] re-sorts by symbol names to match the
   reference output exactly.  Joins and selects sort on one packed int
   key per item: the item's ids, most significant first, above its
   index.  A key whose ids do not fit beside the index drops the
   trailing ones, and the full comparison breaks the ties. *)

let cmp_slice t o1 l1 o2 l2 =
  let n = if l1 < l2 then l1 else l2 in
  let r = ref 0 in
  let i = ref 0 in
  while !r = 0 && !i < n do
    let c =
      Char.code (Bytes.unsafe_get t.buf (o1 + !i))
      - Char.code (Bytes.unsafe_get t.buf (o2 + !i))
    in
    if c <> 0 then r := c;
    incr i
  done;
  if !r <> 0 then !r else compare l1 l2

let cmp_tv t a b =
  cmp_slice t t.tv_off.(a) t.tv_len.(a) t.tv_off.(b) t.tv_len.(b)

let cmp_join t a b =
  let c = compare t.j_child.(a) t.j_child.(b) in
  if c <> 0 then c
  else
    let c = compare t.j_fk.(a) t.j_fk.(b) in
    if c <> 0 then c else compare t.j_parent.(a) t.j_parent.(b)

let cmp_sel t a b =
  let c = compare t.s_tv.(a) t.s_tv.(b) in
  if c <> 0 then c
  else
    let c = compare t.s_attr.(a) t.s_attr.(b) in
    if c <> 0 then c
    else
      let c = compare t.s_kind.(a) t.s_kind.(b) in
      if c <> 0 then c
      else
        match t.s_kind.(a) with
        | 0 -> compare t.s_lo.(a) t.s_lo.(b)
        | 1 ->
          let c = compare t.s_lo.(a) t.s_lo.(b) in
          if c <> 0 then c else compare t.s_hi.(a) t.s_hi.(b)
        | _ ->
          let la = t.s_hi.(a) and lb = t.s_hi.(b) in
          let n = if la < lb then la else lb in
          let r = ref 0 in
          let i = ref 0 in
          while !r = 0 && !i < n do
            let c =
              compare t.pool.(t.s_lo.(a) + !i) t.pool.(t.s_lo.(b) + !i)
            in
            if c <> 0 then r := c;
            incr i
          done;
          if !r <> 0 then !r else compare la lb

(* Insertion sort of [keys.(0..n)]: the ids above [ib] bits first, then
   [tie] on the item indices below them.  True when anything moved. *)
let sort_keys t n ib tie =
  let keys = t.keys and imask = (1 lsl ib) - 1 in
  let moved = ref false in
  for i = 1 to n - 1 do
    let k = keys.(i) in
    let j = ref i in
    while
      !j > 0
      &&
      let p = keys.(!j - 1) in
      p lsr ib > k lsr ib
      || (p lsr ib = k lsr ib && tie t (p land imask) (k land imask) > 0)
    do
      keys.(!j) <- keys.(!j - 1);
      decr j
    done;
    if !j <> i then begin
      keys.(!j) <- k;
      moved := true
    end
  done;
  !moved

(* [a.(i) <- a.(index of the i-th sorted key)] for the first [n] items *)
let permute t (a : int array) n imask =
  let tmp = t.tmp in
  for i = 0 to n - 1 do
    tmp.(i) <- a.(t.keys.(i) land imask)
  done;
  for i = 0 to n - 1 do
    a.(i) <- tmp.(i)
  done

let canon_preds t =
  for s = 0 to t.n_s - 1 do
    match t.s_kind.(s) with
    | 2 ->
      let o = t.s_lo.(s) and n = t.s_hi.(s) in
      (* insertion sort of the pool segment *)
      for i = o + 1 to o + n - 1 do
        let v = t.pool.(i) in
        let j = ref i in
        while !j > o && t.pool.(!j - 1) > v do
          t.pool.(!j) <- t.pool.(!j - 1);
          decr j
        done;
        t.pool.(!j) <- v
      done;
      (* dedup (segment shrinks; pool holes are fine) *)
      if n > 0 then begin
        let w = ref (o + 1) in
        for i = o + 1 to o + n - 1 do
          if t.pool.(i) <> t.pool.(!w - 1) then begin
            t.pool.(!w) <- t.pool.(i);
            incr w
          end
        done;
        t.s_hi.(s) <- !w - o;
        if t.s_hi.(s) = 1 then begin
          t.s_kind.(s) <- 0;
          t.s_lo.(s) <- t.pool.(o);
          t.s_hi.(s) <- 0
        end
      end
    | 1 ->
      if t.s_lo.(s) = t.s_hi.(s) then begin
        t.s_kind.(s) <- 0;
        t.s_hi.(s) <- 0
      end
    | _ -> ()
  done

(* [a.(i) <- a.(perm.(i))] for the first [n] items *)
let reorder t (a : int array) n =
  for i = 0 to n - 1 do
    t.tmp.(i) <- a.(t.perm.(i))
  done;
  for i = 0 to n - 1 do
    a.(i) <- t.tmp.(i)
  done

(* Tuple variables by name (a handful per query: insertion sort of a
   permutation), then join and select slots renamed. *)
let canon_tvars t =
  let n = t.n_tv in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if cmp_tv t (i - 1) i > 0 then sorted := false
  done;
  if not !sorted then begin
    for i = 0 to n - 1 do
      t.perm.(i) <- i
    done;
    for i = 1 to n - 1 do
      let p = t.perm.(i) in
      let j = ref i in
      while !j > 0 && cmp_tv t t.perm.(!j - 1) p > 0 do
        t.perm.(!j) <- t.perm.(!j - 1);
        decr j
      done;
      t.perm.(!j) <- p
    done;
    for i = 0 to n - 1 do
      t.inv.(t.perm.(i)) <- i
    done;
    reorder t t.tv_off n;
    reorder t t.tv_len n;
    reorder t t.tv_tbl n;
    for j = 0 to t.n_j - 1 do
      t.j_child.(j) <- t.inv.(t.j_child.(j));
      t.j_parent.(j) <- t.inv.(t.j_parent.(j))
    done;
    for s = 0 to t.n_s - 1 do
      t.s_tv.(s) <- t.inv.(t.s_tv.(s))
    done
  end

let canon_joins t =
  let n = t.n_j in
  let ib = bits n and tb = bits t.n_tv and fb = t.tab.Symtab.fk_bits in
  let room = 62 - ib in
  let use_c = tb <= room and use_f = tb + fb <= room and use_p = tb + fb + tb <= room in
  for j = 0 to n - 1 do
    let k = if use_c then t.j_child.(j) else 0 in
    let k = if use_f then (k lsl fb) lor t.j_fk.(j) else k in
    let k = if use_p then (k lsl tb) lor t.j_parent.(j) else k in
    t.keys.(j) <- (k lsl ib) lor j
  done;
  let imask = (1 lsl ib) - 1 in
  if sort_keys t n ib cmp_join then begin
    permute t t.j_child n imask;
    permute t t.j_fk n imask;
    permute t t.j_parent n imask
  end;
  let w = ref 0 and last = ref 0 in
  for i = 0 to n - 1 do
    if !w = 0 || t.keys.(i) lsr ib <> t.keys.(!last) lsr ib || cmp_join t (!w - 1) i <> 0
    then begin
      if !w < i then begin
        t.j_child.(!w) <- t.j_child.(i);
        t.j_fk.(!w) <- t.j_fk.(i);
        t.j_parent.(!w) <- t.j_parent.(i)
      end;
      last := i;
      incr w
    end
  done;
  t.n_j <- !w

let canon_selects t =
  let n = t.n_s in
  let ib = bits n and tb = bits t.n_tv in
  let ab = t.tab.Symtab.attr_bits and vb = t.tab.Symtab.value_bits in
  let room = 62 - ib in
  let use_ids = tb + ab + 2 <= room and use_vals = tb + ab + 2 + vb + vb <= room in
  for s = 0 to n - 1 do
    let k =
      if use_ids then (((t.s_tv.(s) lsl ab) lor t.s_attr.(s)) lsl 2) lor t.s_kind.(s) else 0
    in
    let k =
      if not use_vals then k
      else
        let v1, v2 =
          match t.s_kind.(s) with
          | 2 ->
            let o = t.s_lo.(s) and c = t.s_hi.(s) in
            ((if c > 0 then t.pool.(o) else 0), if c > 1 then t.pool.(o + 1) else 0)
          | _ -> (t.s_lo.(s), t.s_hi.(s))
        in
        (((k lsl vb) lor v1) lsl vb) lor v2
    in
    t.keys.(s) <- (k lsl ib) lor s
  done;
  let imask = (1 lsl ib) - 1 in
  if sort_keys t n ib cmp_sel then begin
    permute t t.s_tv n imask;
    permute t t.s_attr n imask;
    permute t t.s_kind n imask;
    permute t t.s_lo n imask;
    permute t t.s_hi n imask
  end;
  let w = ref 0 and last = ref 0 in
  for i = 0 to n - 1 do
    if !w = 0 || t.keys.(i) lsr ib <> t.keys.(!last) lsr ib || cmp_sel t (!w - 1) i <> 0
    then begin
      if !w < i then begin
        t.s_tv.(!w) <- t.s_tv.(i);
        t.s_attr.(!w) <- t.s_attr.(i);
        t.s_kind.(!w) <- t.s_kind.(i);
        t.s_lo.(!w) <- t.s_lo.(i);
        t.s_hi.(!w) <- t.s_hi.(i)
      end;
      last := i;
      incr w
    end
  done;
  t.n_s <- !w

let canon t =
  reserve t (max t.n_tv (max t.n_j t.n_s));
  canon_preds t;
  canon_tvars t;
  canon_joins t;
  canon_selects t

(* ------------------------------------------------------------------ *)
(* Canonical hash: FNV over the canonical emission sequence.  Call
   after [canon].  63-bit, never negative. *)

let mix h v = ((h lxor v) * fnv_prime) land max_int

let hash t =
  let h = ref (mix fnv_basis t.n_tv) in
  for i = 0 to t.n_tv - 1 do
    h := mix !h t.tv_tbl.(i);
    h := mix !h t.tv_len.(i);
    for k = t.tv_off.(i) to t.tv_off.(i) + t.tv_len.(i) - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get t.buf k))
    done
  done;
  h := mix !h t.n_j;
  for j = 0 to t.n_j - 1 do
    h := mix !h t.j_child.(j);
    h := mix !h t.j_fk.(j);
    h := mix !h t.j_parent.(j)
  done;
  h := mix !h t.n_s;
  for s = 0 to t.n_s - 1 do
    h := mix !h t.s_tv.(s);
    h := mix !h t.s_attr.(s);
    h := mix !h t.s_kind.(s);
    match t.s_kind.(s) with
    | 0 -> h := mix !h t.s_lo.(s)
    | 1 ->
      h := mix !h t.s_lo.(s);
      h := mix !h t.s_hi.(s)
    | _ ->
      h := mix !h t.s_hi.(s);
      for k = t.s_lo.(s) to t.s_lo.(s) + t.s_hi.(s) - 1 do
        h := mix !h t.pool.(k)
      done
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Immutable canonical vector, stored with cache entries so a hash hit
   can be verified against the live scratch without allocating. *)

(* Both snapshots below — the cache entry's canonical query and the
   plan's skeleton — are sequences of non-negative ints as LEB128
   varints (7 bits a byte, low bits first, the high bit set on every
   byte but a value's last; nearly every id fits one byte), then the
   tuple-variable names.  Each is encoded into the scratch's reusable
   [vbuf]: a snapshot copies the encoding out, and a verification
   compares the live scratch's encoding with the stored bytes — one
   encoder per snapshot, and nothing allocated on a probe. *)
let rec put_long b p v =
  if v < 128 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 127 lor 128));
    put_long b (p + 1) (v lsr 7)
  end

(* the one-byte case inline *)
let put b p v =
  if v < 128 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else put_long b p v

(* [vbuf], grown to hold [ints] varints (9 bytes each at most) and the
   names. *)
let encode_buf t ~ints =
  let names = ref 0 in
  for i = 0 to t.n_tv - 1 do
    names := !names + t.tv_len.(i)
  done;
  let cap = (9 * ints) + !names in
  if Bytes.length t.vbuf < cap then t.vbuf <- Bytes.create (2 * cap);
  t.vbuf

(* Append the tuple-variable names (a byte loop: they are a few bytes
   each); the encoding's length. *)
let put_names t b p =
  let p = ref p in
  for i = 0 to t.n_tv - 1 do
    for k = t.tv_off.(i) to t.tv_off.(i) + t.tv_len.(i) - 1 do
      Bytes.unsafe_set b !p (Bytes.unsafe_get t.buf k);
      incr p
    done
  done;
  !p

(* Does [v] hold exactly the [n]-byte encoding in [vbuf] from [off]? *)
let encoded_matches t n v off =
  String.length v - off = n
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    if String.unsafe_get v (off + !i) <> Bytes.unsafe_get t.vbuf !i then ok := false;
    incr i
  done;
  !ok

(* Both encodings open with n_tv, (table, name length) per tuple
   variable, n_j, (child, fk, parent) per join; returns the position
   after them. *)
let encode_head t b =
  let p = ref (put b 0 t.n_tv) in
  for i = 0 to t.n_tv - 1 do
    p := put b !p t.tv_tbl.(i);
    p := put b !p t.tv_len.(i)
  done;
  p := put b !p t.n_j;
  for j = 0 to t.n_j - 1 do
    p := put b !p t.j_child.(j);
    p := put b !p t.j_fk.(j);
    p := put b !p t.j_parent.(j)
  done;
  !p

(* The canonical query: the head, n_s, (tv, attr, kind, operands) per
   select — Eq's value, Range's bounds, a set's count and values — then
   the names. *)
let encode_canon t =
  let b = encode_buf t ~ints:(3 + (2 * t.n_tv) + (3 * t.n_j) + (5 * t.n_s) + t.pool_len) in
  let p = ref (put b (encode_head t b) t.n_s) in
  for k = 0 to t.n_s - 1 do
    p := put b !p t.s_tv.(k);
    p := put b !p t.s_attr.(k);
    p := put b !p t.s_kind.(k);
    match t.s_kind.(k) with
    | 0 -> p := put b !p t.s_lo.(k)
    | 1 ->
      p := put b !p t.s_lo.(k);
      p := put b !p t.s_hi.(k)
    | _ ->
      p := put b !p t.s_hi.(k);
      for q = t.s_lo.(k) to t.s_lo.(k) + t.s_hi.(k) - 1 do
        p := put b !p t.pool.(q)
      done
  done;
  put_names t b !p

(* ------------------------------------------------------------------ *)
(* Immutable canonical vector, stored with cache entries so a hash hit
   can be verified against the live scratch without allocating. *)

module Vec = struct
  type scratch = t

  (* the canonical query's encoding *)
  type t = string

  (* Matches no real scratch (every query has at least one tuple
     variable) — a placeholder for cache sentinels. *)
  let empty = ""

  let of_scratch (s : scratch) = Bytes.sub_string s.vbuf 0 (encode_canon s)

  (* allocation-free equality against a canonicalized scratch *)
  let matches (v : t) (s : scratch) = encoded_matches s (encode_canon s) v 0

  (* The inverse of [of_scratch]: read [encode_canon]'s varints back
     into the scratch's arrays, and point the tuple-variable names at the
     snapshot's tail (the scratch only ever reads [buf]). *)
  let load (v : t) (s : scratch) =
    let p = ref 0 in
    let rec varint shift acc =
      let c = Char.code v.[!p] in
      incr p;
      let acc = acc lor ((c land 127) lsl shift) in
      if c < 128 then acc else varint (shift + 7) acc
    in
    let get () = varint 0 0 in
    reset s;
    let n_tv = get () in
    for _ = 1 to n_tv do
      let tbl = get () in
      let len = get () in
      push_tvar s 0 len tbl 0 0
    done;
    for _ = 1 to get () do
      let child = get () in
      let fk = get () in
      let parent = get () in
      push_join s child fk parent 0 0
    done;
    for _ = 1 to get () do
      let tv = get () in
      let attr = get () in
      match get () with
      | 0 -> push_sel s tv attr 0 (get ()) 0
      | 1 ->
        let lo = get () in
        let hi = get () in
        push_sel s tv attr 1 lo hi
      | _ ->
        let n = get () and start = s.pool_len in
        for _ = 1 to n do
          push_pool s (get ())
        done;
        push_sel s tv attr 2 start n
    done;
    s.buf <- Bytes.unsafe_of_string v;
    s.b_off <- !p;
    s.b_lim <- String.length v;
    for i = 0 to n_tv - 1 do
      s.tv_off.(i) <- !p;
      p := !p + s.tv_len.(i)
    done;
    if !p <> String.length v then invalid_arg "Squery.Vec.load: malformed snapshot"

  let bytes = String.length

  (* Structural equality of two snapshots.  Allocation-free. *)
  let equal = String.equal
end

(* ------------------------------------------------------------------ *)
(* The skeleton: tuple variables with their tables, the joins, and the
   distinct selected (tuple variable, attribute) pairs — predicate
   values excluded — read straight off the canonical ids (call after
   [canon]).  Queries with equal skeletons share one compiled plan. *)

(* Equal pairs are adjacent: selects sort on (tv, attr) first. *)
let new_pair t k = k = 0 || t.s_tv.(k) <> t.s_tv.(k - 1) || t.s_attr.(k) <> t.s_attr.(k - 1)

(* The skeleton: the head, the pair count, (tv, attr) per pair, then
   the names. *)
let encode_skeleton t =
  let pairs = ref 0 in
  for k = 0 to t.n_s - 1 do
    if new_pair t k then incr pairs
  done;
  let b = encode_buf t ~ints:(3 + (2 * t.n_tv) + (3 * t.n_j) + (2 * !pairs)) in
  let p = ref (put b (encode_head t b) !pairs) in
  for k = 0 to t.n_s - 1 do
    if new_pair t k then begin
      p := put b !p t.s_tv.(k);
      p := put b !p t.s_attr.(k)
    end
  done;
  put_names t b !p

(* FNV over the skeleton's encoding: a fold of its ids and names. *)
let skeleton_hash t seed =
  let n = encode_skeleton t in
  let h = ref seed in
  for i = 0 to n - 1 do
    h := mix !h (Char.code (Bytes.unsafe_get t.vbuf i))
  done;
  !h

let skeleton_snapshot t = Bytes.sub_string t.vbuf 0 (encode_skeleton t)
let snapshot_hash snap seed = String.fold_left (fun h c -> mix h (Char.code c)) seed snap
let skeleton_matches t key off = encoded_matches t (encode_skeleton t) key off

(* ------------------------------------------------------------------ *)
(* Reading the canonical selects (in canonical, id order). *)

let n_selects t = t.n_s
let sel_tv t k = t.s_tv.(k)
let sel_attr t k = t.s_attr.(k)
let sel_kind t k = t.s_kind.(k)
let sel_lo t k = t.s_lo.(k)
let sel_hi t k = t.s_hi.(k)
let pool t i = t.pool.(i)

let sel_pred t s =
  match t.s_kind.(s) with
  | 0 -> Query.Eq t.s_lo.(s)
  | 1 -> Query.Range (t.s_lo.(s), t.s_hi.(s))
  | _ -> Query.In_set (List.init t.s_hi.(s) (fun k -> t.pool.(t.s_lo.(s) + k)))

(* ------------------------------------------------------------------ *)
(* Materialization (compiles, EXPLAIN, EXPLAINPLAN).  The result is
   exactly [Canon.normalize (Qparse.parse ...)]: predicate normalization
   already happened in [canon]; the final sorts below use symbol
   *names*, reproducing the reference's string-keyed orderings. *)

let to_query t =
  let tvars = List.init t.n_tv (fun i -> (tv_name t i, t.tab.Symtab.tnames.(t.tv_tbl.(i)))) in
  let joins =
    List.init t.n_j (fun j ->
        Query.join ~child:(tv_name t t.j_child.(j))
          ~fk:t.tab.Symtab.fknames.(t.tv_tbl.(t.j_child.(j))).(t.j_fk.(j))
          ~parent:(tv_name t t.j_parent.(j)))
  in
  let selects =
    List.init t.n_s (fun s ->
        {
          Query.sel_tv = tv_name t t.s_tv.(s);
          sel_attr = t.tab.Symtab.anames.(t.tv_tbl.(t.s_tv.(s))).(t.s_attr.(s));
          pred = sel_pred t s;
        })
  in
  let tvars = List.sort compare tvars in
  let joins =
    List.sort_uniq
      (fun a b ->
        compare
          (a.Query.child_tv, a.Query.fk, a.Query.parent_tv)
          (b.Query.child_tv, b.Query.fk, b.Query.parent_tv))
      joins
  in
  let selects =
    List.sort_uniq
      (fun a b ->
        compare
          (a.Query.sel_tv, a.Query.sel_attr, a.Query.pred)
          (b.Query.sel_tv, b.Query.sel_attr, b.Query.pred))
      selects
  in
  Query.create ~tvars ~joins ~selects ()
