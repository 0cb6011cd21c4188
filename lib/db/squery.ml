(* Zero-copy request parsing (the serve front-end's hot path).

   [Qparse] builds a [Query.t] out of intermediate strings and lists —
   fine for the CLI, but on a warm served EST it is the dominant
   allocation source.  This module lexes the same textual query syntax
   directly out of the request buffer into a reusable scratch query:
   table/attribute/value symbols are interned once per schema into
   open-addressed slice-lookup tables, predicates land in growable int
   arrays, and canonicalization sorts those arrays in place.  After
   [parse] + [canon] the scratch yields a 63-bit canonical hash (cache
   key), an immutable [Vec.t] (stored beside cache entries for full-key
   verification on hash collision), and — on cache misses only — a
   materialized [Query.t] equal to what the legacy
   [Canon.normalize (Qparse.parse ...)] pipeline produces.

   Acceptance must agree with the reference pipeline: every check in
   [Query.create] and [Exec.validate] is replicated here (duplicate
   tuple variables, undeclared references, unknown symbols, value
   bounds, empty or non-ordinal ranges, foreign-key targets, keyjoin
   forest shape, twice-bound foreign keys), so a body is accepted by
   this parser iff the reference accepts it. *)

let fail fmt = Printf.ksprintf failwith fmt

let is_space c =
  c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* ------------------------------------------------------------------ *)
(* Interned symbol tables: string -> small int, probed either with a
   whole string (build/slow path) or with a byte slice (hot path, no
   allocation).  Linear probing over a power-of-two table; values are
   >= 0, so -1 marks an empty slot. *)

module Strmap = struct
  type t = { mask : int; keys : string array; vals : int array }

  let hash_str s =
    let h = ref 0x811c9dc5 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193) s;
    !h land max_int

  let hash_slice b off len =
    let h = ref 0x811c9dc5 in
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193
    done;
    !h land max_int

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

  (* [find_slice t b off len] is the value bound to [b[off..off+len)],
     or -1.  No allocation. *)
  let find_slice t b off len =
    let i = ref (hash_slice b off len land t.mask) in
    let r = ref (-2) in
    while !r = -2 do
      if t.vals.(!i) < 0 then r := -1
      else if slice_eq t.keys.(!i) b off len then r := t.vals.(!i)
      else i := (!i + 1) land t.mask
    done;
    !r

  let find_str t s =
    let i = ref (hash_str s land t.mask) in
    let r = ref (-2) in
    while !r = -2 do
      if t.vals.(!i) < 0 then r := -1
      else if String.equal t.keys.(!i) s then r := t.vals.(!i)
      else i := (!i + 1) land t.mask
    done;
    !r
end

(* ------------------------------------------------------------------ *)
(* The schema's symbols, interned once (at server start).  Immutable
   and safely shared across domains. *)

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
    arank : int array array;  (* per table, attr idx -> rank in name order *)
    fkrank : int array array;  (* per table, fk idx -> rank in name order *)
  }

  (* [ranks names] maps each index to its position in name order, so
     the miss path orders by symbol name with int compares. *)
  let ranks names =
    let idx = Array.init (Array.length names) Fun.id in
    Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) idx;
    let r = Array.make (Array.length names) 0 in
    Array.iteri (fun pos i -> r.(i) <- pos) idx;
    r

  let of_schema schema =
    let ts = Schema.tables schema in
    let nt = Array.length ts in
    let tables = Strmap.create nt in
    Array.iteri (fun i t -> Strmap.add tables t.Schema.tname i) ts;
    let tnames = Array.map (fun t -> t.Schema.tname) ts in
    let attrs =
      Array.map
        (fun t ->
          let m = Strmap.create (Array.length t.Schema.attrs) in
          Array.iteri (fun i a -> Strmap.add m a.Schema.aname i) t.Schema.attrs;
          m)
        ts
    in
    let anames =
      Array.map (fun t -> Array.map (fun a -> a.Schema.aname) t.Schema.attrs) ts
    in
    let fkmaps =
      Array.map
        (fun t ->
          let m = Strmap.create (Array.length t.Schema.fks) in
          Array.iteri (fun i f -> Strmap.add m f.Schema.fkname i) t.Schema.fks;
          m)
        ts
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
        (fun t ->
          Array.map
            (fun a ->
              let labels = a.Schema.domain.Value.labels in
              let m = Strmap.create (Array.length labels) in
              Array.iteri (fun code l -> Strmap.add m l code) labels;
              m)
            t.Schema.attrs)
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
    {
      tables;
      tnames;
      attrs;
      anames;
      fkmaps;
      fknames;
      fk_target;
      values;
      cards;
      ordinal;
      arank = Array.map ranks anames;
      fkrank = Array.map ranks fknames;
    }

  let table_name t i = t.tnames.(i)
end

(* ------------------------------------------------------------------ *)
(* The reusable scratch query.  Tuple-variable names stay as slices
   into the borrowed request buffer; everything else is interned ids.
   Selects: kind 0 = Eq (operand in [lo]), 1 = Range ([lo]..[hi]),
   2 = In_set ([lo] = offset into [pool], [hi] = count). *)

type t = {
  tab : Symtab.t;
  mutable buf : Bytes.t;  (* borrowed; valid until the next [parse] *)
  mutable n_tv : int;
  mutable tv_off : int array;
  mutable tv_len : int array;
  mutable tv_tbl : int array;
  mutable n_j : int;
  mutable j_child : int array;
  mutable j_fk : int array;
  mutable j_parent : int array;
  mutable n_s : int;
  mutable s_tv : int array;
  mutable s_attr : int array;
  mutable s_kind : int array;
  mutable s_lo : int array;
  mutable s_hi : int array;
  mutable pool : int array;
  mutable pool_len : int;
  (* canonicalization scratch *)
  mutable perm : int array;
  mutable inv : int array;
  mutable tmp_a : int array;
  mutable tmp_b : int array;
  mutable tmp_c : int array;
  mutable uf : int array;
  (* joins and selects in [to_query]'s name order (valid while
     [ord_ok]; see [ensure_order]) *)
  mutable j_ord : int array;
  mutable s_ord : int array;
  mutable ord_ok : bool;
  (* [Vec.matches] cursor — record fields rather than let-bound refs so
     the comparison needs no closure and allocates nothing *)
  mutable m_w : int;
  mutable m_no : int;
  mutable m_ok : bool;
}

let create tab =
  {
    tab;
    buf = Bytes.empty;
    n_tv = 0;
    tv_off = Array.make 8 0;
    tv_len = Array.make 8 0;
    tv_tbl = Array.make 8 0;
    n_j = 0;
    j_child = Array.make 8 0;
    j_fk = Array.make 8 0;
    j_parent = Array.make 8 0;
    n_s = 0;
    s_tv = Array.make 16 0;
    s_attr = Array.make 16 0;
    s_kind = Array.make 16 0;
    s_lo = Array.make 16 0;
    s_hi = Array.make 16 0;
    pool = Array.make 32 0;
    pool_len = 0;
    perm = Array.make 8 0;
    inv = Array.make 8 0;
    tmp_a = Array.make 16 0;
    tmp_b = Array.make 16 0;
    tmp_c = Array.make 16 0;
    uf = Array.make 8 0;
    j_ord = Array.make 8 0;
    s_ord = Array.make 16 0;
    ord_ok = false;
    m_w = 0;
    m_no = 0;
    m_ok = true;
  }

let symtab t = t.tab

let grow a n =
  if Array.length a > n then a
  else begin
    let b = Array.make (max (2 * Array.length a) (n + 1)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

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

(* ---- item parsers ------------------------------------------------- *)

let tv_find t o e =
  let len = e - o in
  let r = ref (-1) in
  for k = 0 to t.n_tv - 1 do
    if !r < 0 && slices_eq t.buf t.tv_off.(k) t.tv_len.(k) o len then r := k
  done;
  !r

let push_tvar t o e tbl =
  (* the parallel arrays grow in lockstep; skipping the field stores
     when they fit keeps [caml_modify] off the per-item path *)
  if t.n_tv >= Array.length t.tv_off then begin
    t.tv_off <- grow t.tv_off t.n_tv;
    t.tv_len <- grow t.tv_len t.n_tv;
    t.tv_tbl <- grow t.tv_tbl t.n_tv
  end;
  t.tv_off.(t.n_tv) <- o;
  t.tv_len.(t.n_tv) <- e - o;
  t.tv_tbl.(t.n_tv) <- tbl;
  t.n_tv <- t.n_tv + 1

let parse_tvar_item t o e =
  let eq = find_char t.buf o e '=' in
  let tvo = if eq < 0 then o else trim_start t.buf o eq in
  let tve = if eq < 0 then e else trim_end t.buf tvo eq in
  let tbo = if eq < 0 then tvo else trim_start t.buf (eq + 1) e in
  let tbe = if eq < 0 then tve else trim_end t.buf tbo e in
  if tv_find t tvo tve >= 0 then
    fail "Query.create: duplicate tuple variable %s" (sub t tvo tve);
  let ti = Strmap.find_slice t.tab.Symtab.tables t.buf tbo (tbe - tbo) in
  if ti < 0 then
    fail "Exec.validate: unknown table %s for %s" (sub t tbo tbe) (sub t tvo tve);
  push_tvar t tvo tve ti

(* Error raisers are top-level so the success path never builds their
   closures — [parse] must not allocate on acceptance. *)
let bad_join t o e = fail "join %S: expected child.fk=parent" (sub t o e)

let parse_join_item t o e =
  let eq = find_char t.buf o e '=' in
  if eq < 0 then bad_join t o e;
  let lo = trim_start t.buf o eq in
  let le = trim_end t.buf lo eq in
  let po = trim_start t.buf (eq + 1) e in
  let pe = trim_end t.buf po e in
  let dot = find_char t.buf lo le '.' in
  if dot < 0 then bad_join t o e;
  let co = trim_start t.buf lo dot in
  let ce = trim_end t.buf co dot in
  let fo = trim_start t.buf (dot + 1) le in
  let fe = trim_end t.buf fo le in
  let child = tv_find t co ce in
  if child < 0 then
    fail "Query.create: join references undeclared tuple variable %s" (sub t co ce);
  let parent = tv_find t po pe in
  if parent < 0 then
    fail "Query.create: join references undeclared tuple variable %s" (sub t po pe);
  if child = parent then
    failwith "Query.create: self-join through a foreign key is not a keyjoin";
  let cti = t.tv_tbl.(child) in
  let fk = Strmap.find_slice t.tab.Symtab.fkmaps.(cti) t.buf fo (fe - fo) in
  if fk < 0 then
    fail "Exec.validate: no foreign key %s in %s" (sub t fo fe)
      t.tab.Symtab.tnames.(cti);
  let target = t.tab.Symtab.fk_target.(cti).(fk) in
  if target <> t.tv_tbl.(parent) then
    fail "Exec.validate: %s.%s targets %s, not %s" t.tab.Symtab.tnames.(cti)
      t.tab.Symtab.fknames.(cti).(fk)
      t.tab.Symtab.tnames.(target)
      t.tab.Symtab.tnames.(t.tv_tbl.(parent));
  if t.n_j >= Array.length t.j_child then begin
    t.j_child <- grow t.j_child t.n_j;
    t.j_fk <- grow t.j_fk t.n_j;
    t.j_parent <- grow t.j_parent t.n_j
  end;
  t.j_child.(t.n_j) <- child;
  t.j_fk.(t.n_j) <- fk;
  t.j_parent.(t.n_j) <- parent;
  t.n_j <- t.n_j + 1

(* Value lexing mirrors [Qparse.value_code]: label first, then an
   integer literal (sign + decimal digits, '_' separators) bounds-
   checked against the domain. *)
let unknown_value t o e = fail "unknown value %S" (sub t o e)

let value_code t ti ai o e =
  let o = trim_start t.buf o e in
  let e = trim_end t.buf o e in
  let v = Strmap.find_slice t.tab.Symtab.values.(ti).(ai) t.buf o (e - o) in
  if v >= 0 then v
  else begin
    let card = t.tab.Symtab.cards.(ti).(ai) in
    if o >= e then unknown_value t o e;
    let i = ref o in
    let neg = Bytes.unsafe_get t.buf o = '-' in
    if neg || Bytes.unsafe_get t.buf o = '+' then incr i;
    if !i >= e || not ('0' <= Bytes.unsafe_get t.buf !i && Bytes.unsafe_get t.buf !i <= '9')
    then unknown_value t o e;
    let acc = ref 0 and digits = ref 0 and ok = ref true in
    while !i < e do
      let c = Bytes.unsafe_get t.buf !i in
      if '0' <= c && c <= '9' then begin
        acc := (!acc * 10) + (Char.code c - Char.code '0');
        incr digits
      end
      else if c <> '_' then ok := false;
      incr i
    done;
    if (not !ok) || !digits = 0 || !digits > 18 then unknown_value t o e;
    let v = if neg then - !acc else !acc in
    if v >= 0 && v < card then v
    else fail "value %d out of domain [0,%d)" v card
  end

let push_sel t tv attr kind lo hi =
  if t.n_s >= Array.length t.s_tv then begin
    t.s_tv <- grow t.s_tv t.n_s;
    t.s_attr <- grow t.s_attr t.n_s;
    t.s_kind <- grow t.s_kind t.n_s;
    t.s_lo <- grow t.s_lo t.n_s;
    t.s_hi <- grow t.s_hi t.n_s
  end;
  t.s_tv.(t.n_s) <- tv;
  t.s_attr.(t.n_s) <- attr;
  t.s_kind.(t.n_s) <- kind;
  t.s_lo.(t.n_s) <- lo;
  t.s_hi.(t.n_s) <- hi;
  t.n_s <- t.n_s + 1

let push_pool t v =
  if t.pool_len >= Array.length t.pool then t.pool <- grow t.pool t.pool_len;
  t.pool.(t.pool_len) <- v;
  t.pool_len <- t.pool_len + 1

let bad_select t o e = fail "select %S: expected tv.attr=value" (sub t o e)

let parse_select_item t o e =
  let eq = find_char t.buf o e '=' in
  if eq < 0 then bad_select t o e;
  let lo_ = trim_start t.buf o eq in
  let le_ = trim_end t.buf lo_ eq in
  let dot = find_char t.buf lo_ le_ '.' in
  if dot < 0 then bad_select t o e;
  let tvo = trim_start t.buf lo_ dot in
  let tve = trim_end t.buf tvo dot in
  let ao = trim_start t.buf (dot + 1) le_ in
  let ae = trim_end t.buf ao le_ in
  let slot = tv_find t tvo tve in
  if slot < 0 then
    fail "select %S: unknown tuple variable %s" (sub t o e) (sub t tvo tve);
  let ti = t.tv_tbl.(slot) in
  let ai = Strmap.find_slice t.tab.Symtab.attrs.(ti) t.buf ao (ae - ao) in
  if ai < 0 then
    fail "select %S: no attribute %s in %s" (sub t o e) (sub t ao ae)
      t.tab.Symtab.tnames.(ti);
  let ro = trim_start t.buf (eq + 1) e in
  let re = trim_end t.buf ro e in
  if
    re - ro >= 2
    && Bytes.unsafe_get t.buf ro = '{'
    && Bytes.unsafe_get t.buf (re - 1) = '}'
  then begin
    (* set: every comma splits (matching String.split_on_char) *)
    let start = t.pool_len in
    let p = ref (ro + 1) in
    for i = ro + 1 to re - 2 do
      if Bytes.unsafe_get t.buf i = ',' then begin
        push_pool t (value_code t ti ai !p i);
        p := i + 1
      end
    done;
    push_pool t (value_code t ti ai !p (re - 1));
    push_sel t slot ai 2 start (t.pool_len - start)
  end
  else begin
    (* "lo..hi" range? *)
    let dots = ref (-1) in
    let i = ref ro in
    while !dots < 0 && !i + 1 < re do
      if Bytes.unsafe_get t.buf !i = '.' && Bytes.unsafe_get t.buf (!i + 1) = '.'
      then dots := !i
      else incr i
    done;
    if !dots >= 0 then begin
      let vlo = value_code t ti ai ro !dots in
      let vhi = value_code t ti ai (!dots + 2) re in
      if vhi < vlo then failwith "Exec.validate: empty range";
      if not t.tab.Symtab.ordinal.(ti).(ai) then
        fail "Exec.validate: range predicate on non-ordinal %s.%s"
          t.tab.Symtab.tnames.(ti)
          t.tab.Symtab.anames.(ti).(ai);
      push_sel t slot ai 1 vlo vhi
    end
    else push_sel t slot ai 0 (value_code t ti ai ro re) 0
  end

(* ---- sections ----------------------------------------------------- *)

(* Commas split items only at brace depth 0, mirroring
   [Protocol.split_top_commas] (depth is fresh per section and may go
   negative on stray '}'s, exactly like the Buffer-based original). *)
let emit_item t f loff llim =
  let o = trim_start t.buf loff llim in
  let e = trim_end t.buf o llim in
  if e > o then f t o e

let parse_section t secoff seclim f =
  let depth = ref 0 in
  let start = ref secoff in
  for i = secoff to seclim - 1 do
    match Bytes.unsafe_get t.buf i with
    | '{' -> incr depth
    | '}' -> decr depth
    | ',' when !depth = 0 ->
      emit_item t f !start i;
      start := i + 1
    | _ -> ()
  done;
  emit_item t f !start seclim

let rec uf_find uf i = if uf.(i) = i then i else uf_find uf uf.(i)

let validate_joins t =
  (* keyjoin forest (checked before any dedup, like the reference: an
     exactly-duplicated join clause is a cycle there too) *)
  t.uf <- grow t.uf t.n_tv;
  for i = 0 to t.n_tv - 1 do
    t.uf.(i) <- i
  done;
  for j = 0 to t.n_j - 1 do
    let a = uf_find t.uf t.j_child.(j) and b = uf_find t.uf t.j_parent.(j) in
    if a = b then
      failwith "Exec.validate: cyclic join graph (not a keyjoin forest)";
    t.uf.(a) <- b
  done;
  for j1 = 0 to t.n_j - 1 do
    for j2 = j1 + 1 to t.n_j - 1 do
      if t.j_child.(j1) = t.j_child.(j2) && t.j_fk.(j1) = t.j_fk.(j2) then
        failwith
          "Exec.validate: foreign key joined twice from the same tuple variable"
    done
  done

let parse t buf ~off ~len =
  t.buf <- buf;
  t.ord_ok <- false;
  t.n_tv <- 0;
  t.n_j <- 0;
  t.n_s <- 0;
  t.pool_len <- 0;
  let lim = off + len in
  (* sections split on raw ';' (brace-blind, like String.split_on_char) *)
  let s1 = find_char buf off lim ';' in
  let s2 = if s1 < 0 then -1 else find_char buf (s1 + 1) lim ';' in
  if s2 >= 0 && find_char buf (s2 + 1) lim ';' >= 0 then
    failwith "EST: too many ';'-sections (expected tvars ; joins ; selects)";
  let tv_lim = if s1 < 0 then lim else s1 in
  parse_section t off tv_lim parse_tvar_item;
  if t.n_tv = 0 then failwith "EST: empty tuple-variable section";
  if s1 >= 0 then begin
    let j_lim = if s2 < 0 then lim else s2 in
    parse_section t (s1 + 1) j_lim parse_join_item;
    if s2 >= 0 then parse_section t (s2 + 1) lim parse_select_item
  end;
  validate_joins t

(* ------------------------------------------------------------------ *)
(* In-place canonicalization.  Semantics match [Canon.normalize]:
   predicates first (set values sorted + deduped, singletons and
   degenerate ranges collapse to Eq), then tuple variables sort by
   name, joins and selects sort + dedup.  Joins/selects order here is
   by interned ids — content-determined, so equal queries still get
   equal hashes; [to_query] re-sorts by symbol names to match the
   reference output exactly. *)

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

(* Monomorphic, so the stores are plain int writes rather than the
   generic array path (float-array check, [caml_modify]). *)
let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let canon t =
  (* 1. normalize predicates in place *)
  for s = 0 to t.n_s - 1 do
    (match t.s_kind.(s) with
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
    | 1 ->
      if t.s_lo.(s) = t.s_hi.(s) then begin
        t.s_kind.(s) <- 0;
        t.s_hi.(s) <- 0
      end
    | _ -> ())
  done;
  (* 2. sort tuple variables by name; remap join/select slots *)
  t.perm <- grow t.perm t.n_tv;
  t.inv <- grow t.inv t.n_tv;
  for i = 0 to t.n_tv - 1 do
    t.perm.(i) <- i
  done;
  for i = 1 to t.n_tv - 1 do
    let p = t.perm.(i) in
    let j = ref i in
    while !j > 0 && cmp_tv t t.perm.(!j - 1) p > 0 do
      t.perm.(!j) <- t.perm.(!j - 1);
      decr j
    done;
    t.perm.(!j) <- p
  done;
  for i = 0 to t.n_tv - 1 do
    t.inv.(t.perm.(i)) <- i
  done;
  t.tmp_a <- grow t.tmp_a t.n_tv;
  t.tmp_b <- grow t.tmp_b t.n_tv;
  t.tmp_c <- grow t.tmp_c t.n_tv;
  for i = 0 to t.n_tv - 1 do
    t.tmp_a.(i) <- t.tv_off.(t.perm.(i));
    t.tmp_b.(i) <- t.tv_len.(t.perm.(i));
    t.tmp_c.(i) <- t.tv_tbl.(t.perm.(i))
  done;
  for i = 0 to t.n_tv - 1 do
    t.tv_off.(i) <- t.tmp_a.(i);
    t.tv_len.(i) <- t.tmp_b.(i);
    t.tv_tbl.(i) <- t.tmp_c.(i)
  done;
  for j = 0 to t.n_j - 1 do
    t.j_child.(j) <- t.inv.(t.j_child.(j));
    t.j_parent.(j) <- t.inv.(t.j_parent.(j))
  done;
  for s = 0 to t.n_s - 1 do
    t.s_tv.(s) <- t.inv.(t.s_tv.(s))
  done;
  (* 3. sort + dedup joins *)
  for i = 1 to t.n_j - 1 do
    let j = ref i in
    while !j > 0 && cmp_join t (!j - 1) !j > 0 do
      swap t.j_child (!j - 1) !j;
      swap t.j_fk (!j - 1) !j;
      swap t.j_parent (!j - 1) !j;
      decr j
    done
  done;
  let w = ref 0 in
  for i = 0 to t.n_j - 1 do
    if !w = 0 || cmp_join t (!w - 1) i <> 0 then begin
      t.j_child.(!w) <- t.j_child.(i);
      t.j_fk.(!w) <- t.j_fk.(i);
      t.j_parent.(!w) <- t.j_parent.(i);
      incr w
    end
  done;
  t.n_j <- !w;
  (* 4. sort + dedup selects *)
  for i = 1 to t.n_s - 1 do
    let j = ref i in
    while !j > 0 && cmp_sel t (!j - 1) !j > 0 do
      swap t.s_tv (!j - 1) !j;
      swap t.s_attr (!j - 1) !j;
      swap t.s_kind (!j - 1) !j;
      swap t.s_lo (!j - 1) !j;
      swap t.s_hi (!j - 1) !j;
      decr j
    done
  done;
  let w = ref 0 in
  for i = 0 to t.n_s - 1 do
    if !w = 0 || cmp_sel t (!w - 1) i <> 0 then begin
      t.s_tv.(!w) <- t.s_tv.(i);
      t.s_attr.(!w) <- t.s_attr.(i);
      t.s_kind.(!w) <- t.s_kind.(i);
      t.s_lo.(!w) <- t.s_lo.(i);
      t.s_hi.(!w) <- t.s_hi.(i);
      incr w
    end
  done;
  t.n_s <- !w;
  t.ord_ok <- false

(* ------------------------------------------------------------------ *)
(* Canonical hash: FNV over the canonical emission sequence.  Call
   after [canon].  63-bit, never negative. *)

let fnv_basis = 0x811c9dc5
let fnv_prime = 0x01000193

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
    (match t.s_kind.(s) with
    | 0 -> h := mix !h t.s_lo.(s)
    | 1 ->
      h := mix !h t.s_lo.(s);
      h := mix !h t.s_hi.(s)
    | _ ->
      h := mix !h t.s_hi.(s);
      for k = t.s_lo.(s) to t.s_lo.(s) + t.s_hi.(s) - 1 do
        h := mix !h t.pool.(k)
      done);
    ()
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Immutable canonical vector, stored with cache entries so a hash hit
   can be verified against the live scratch without allocating. *)

module Vec = struct
  type scratch = t

  type t = { ints : int array; names : string }

  (* Matches no real scratch (every query has at least one tuple
     variable) — a placeholder for cache sentinels. *)
  let empty = { ints = [||]; names = "" }

  let of_scratch (s : scratch) =
    let n = ref 2 in
    n := !n + (2 * s.n_tv);
    n := !n + (3 * s.n_j);
    n := !n + 1;
    for k = 0 to s.n_s - 1 do
      n := !n + 3 + (match s.s_kind.(k) with 0 -> 1 | 1 -> 2 | _ -> 1 + s.s_hi.(k))
    done;
    let ints = Array.make !n 0 in
    let w = ref 0 in
    let put v =
      ints.(!w) <- v;
      incr w
    in
    let names = Buffer.create 32 in
    put s.n_tv;
    for i = 0 to s.n_tv - 1 do
      put s.tv_tbl.(i);
      put s.tv_len.(i);
      Buffer.add_subbytes names s.buf s.tv_off.(i) s.tv_len.(i)
    done;
    put s.n_j;
    for j = 0 to s.n_j - 1 do
      put s.j_child.(j);
      put s.j_fk.(j);
      put s.j_parent.(j)
    done;
    put s.n_s;
    for k = 0 to s.n_s - 1 do
      put s.s_tv.(k);
      put s.s_attr.(k);
      put s.s_kind.(k);
      match s.s_kind.(k) with
      | 0 -> put s.s_lo.(k)
      | 1 ->
        put s.s_lo.(k);
        put s.s_hi.(k)
      | _ ->
        put s.s_hi.(k);
        for p = s.s_lo.(k) to s.s_lo.(k) + s.s_hi.(k) - 1 do
          put s.pool.(p)
        done
    done;
    assert (!w = !n);
    { ints; names = Buffer.contents names }

  (* The comparison cursor lives in the scratch ([m_w]/[m_no]/[m_ok])
     and [eat] is a top-level function: a let-bound closure over ref
     cells here would allocate on every warm cache probe. *)
  let eat (s : scratch) ints ni x =
    if s.m_w >= ni || Array.unsafe_get ints s.m_w <> x then s.m_ok <- false;
    s.m_w <- s.m_w + 1

  (* allocation-free equality against a canonicalized scratch *)
  let matches (v : t) (s : scratch) =
    let ints = v.ints in
    let ni = Array.length ints in
    s.m_w <- 0;
    s.m_no <- 0;
    s.m_ok <- true;
    eat s ints ni s.n_tv;
    for i = 0 to s.n_tv - 1 do
      if s.m_ok then begin
        eat s ints ni s.tv_tbl.(i);
        eat s ints ni s.tv_len.(i);
        let len = s.tv_len.(i) in
        if String.length v.names - s.m_no < len then s.m_ok <- false
        else
          for k = 0 to len - 1 do
            if
              String.unsafe_get v.names (s.m_no + k)
              <> Bytes.unsafe_get s.buf (s.tv_off.(i) + k)
            then s.m_ok <- false
          done;
        s.m_no <- s.m_no + len
      end
    done;
    eat s ints ni s.n_j;
    for j = 0 to s.n_j - 1 do
      if s.m_ok then begin
        eat s ints ni s.j_child.(j);
        eat s ints ni s.j_fk.(j);
        eat s ints ni s.j_parent.(j)
      end
    done;
    eat s ints ni s.n_s;
    for k = 0 to s.n_s - 1 do
      if s.m_ok then begin
        eat s ints ni s.s_tv.(k);
        eat s ints ni s.s_attr.(k);
        eat s ints ni s.s_kind.(k);
        match s.s_kind.(k) with
        | 0 -> eat s ints ni s.s_lo.(k)
        | 1 ->
          eat s ints ni s.s_lo.(k);
          eat s ints ni s.s_hi.(k)
        | _ ->
          eat s ints ni s.s_hi.(k);
          for p = s.s_lo.(k) to s.s_lo.(k) + s.s_hi.(k) - 1 do
            eat s ints ni s.pool.(p)
          done
      end
    done;
    s.m_ok && s.m_w = ni && s.m_no = String.length v.names

  let bytes (v : t) = (Array.length v.ints * 8) + String.length v.names

  (* Structural equality of two snapshots — the batch path verifies
     hash hits against materialized snapshots rather than the live
     scratch.  Allocation-free. *)
  let equal (a : t) (b : t) =
    a == b
    || Array.length a.ints = Array.length b.ints
       && String.equal a.names b.names
       &&
       let rec go i = i < 0 || (a.ints.(i) = b.ints.(i) && go (i - 1)) in
       go (Array.length a.ints - 1)
end

(* ------------------------------------------------------------------ *)
(* Name order (miss path).  [canon] orders joins and selects by interned
   ids; [to_query] re-sorts them by symbol names.  [ensure_order]
   computes that name order as index permutations — int compares
   against the symtab's name ranks, no strings — so the plan-cache key
   and the plan binding read straight off the scratch in exactly
   [to_query]'s order, without materializing the query. *)

(* Rank of a select kind in [Query.pred]'s constructor order (Eq,
   In_set, Range), which is how polymorphic compare orders preds. *)
let pred_rank = function 0 -> 0 | 2 -> 1 | _ -> 2

(* (child, fk name); validation already rejected a (child, fk) bound
   twice, so the parent never breaks a tie. *)
let cmp_join_name t a b =
  let c = compare t.j_child.(a) t.j_child.(b) in
  if c <> 0 then c
  else
    let r = t.tab.Symtab.fkrank.(t.tv_tbl.(t.j_child.(a))) in
    compare r.(t.j_fk.(a)) r.(t.j_fk.(b))

(* (tv, attr name, pred) — [cmp_sel]'s value order within one kind is
   already the polymorphic compare of the materialized preds. *)
let cmp_sel_name t a b =
  let c = compare t.s_tv.(a) t.s_tv.(b) in
  if c <> 0 then c
  else
    let r = t.tab.Symtab.arank.(t.tv_tbl.(t.s_tv.(a))) in
    let c = compare r.(t.s_attr.(a)) r.(t.s_attr.(b)) in
    if c <> 0 then c
    else
      let c = compare (pred_rank t.s_kind.(a)) (pred_rank t.s_kind.(b)) in
      if c <> 0 then c else cmp_sel t a b

let sort_perm t perm n cmp =
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for i = 1 to n - 1 do
    let p = perm.(i) in
    let j = ref i in
    while !j > 0 && cmp t perm.(!j - 1) p > 0 do
      perm.(!j) <- perm.(!j - 1);
      decr j
    done;
    perm.(!j) <- p
  done

let ensure_order t =
  if not t.ord_ok then begin
    t.j_ord <- grow t.j_ord t.n_j;
    t.s_ord <- grow t.s_ord t.n_s;
    sort_perm t t.j_ord t.n_j cmp_join_name;
    sort_perm t t.s_ord t.n_s cmp_sel_name;
    t.ord_ok <- true
  end

let add_tv buf t i = Buffer.add_subbytes buf t.buf t.tv_off.(i) t.tv_len.(i)

let add_skeleton buf t =
  ensure_order t;
  let tab = t.tab in
  for i = 0 to t.n_tv - 1 do
    if i > 0 then Buffer.add_char buf ';';
    add_tv buf t i;
    Buffer.add_char buf ':';
    Buffer.add_string buf tab.Symtab.tnames.(t.tv_tbl.(i))
  done;
  Buffer.add_char buf '|';
  for k = 0 to t.n_j - 1 do
    let j = t.j_ord.(k) in
    if k > 0 then Buffer.add_char buf ';';
    add_tv buf t t.j_child.(j);
    Buffer.add_char buf '.';
    Buffer.add_string buf tab.Symtab.fknames.(t.tv_tbl.(t.j_child.(j))).(t.j_fk.(j));
    Buffer.add_char buf '=';
    add_tv buf t t.j_parent.(j)
  done;
  Buffer.add_char buf '|';
  (* distinct (tv, attr) pairs: equal pairs are adjacent in name order *)
  for k = 0 to t.n_s - 1 do
    let s = t.s_ord.(k) in
    let p = if k = 0 then -1 else t.s_ord.(k - 1) in
    if p < 0 || t.s_tv.(p) <> t.s_tv.(s) || t.s_attr.(p) <> t.s_attr.(s) then begin
      if k > 0 then Buffer.add_char buf ';';
      add_tv buf t t.s_tv.(s);
      Buffer.add_char buf '.';
      Buffer.add_string buf tab.Symtab.anames.(t.tv_tbl.(t.s_tv.(s))).(t.s_attr.(s))
    end
  done

let pred_of t s =
  match t.s_kind.(s) with
  | 0 -> Query.Eq t.s_lo.(s)
  | 1 -> Query.Range (t.s_lo.(s), t.s_hi.(s))
  | _ -> Query.In_set (List.init t.s_hi.(s) (fun k -> t.pool.(t.s_lo.(s) + k)))

let select_tv t k =
  ensure_order t;
  t.s_tv.(t.s_ord.(k))

let select_attr t k =
  ensure_order t;
  t.s_attr.(t.s_ord.(k))

let select_pred t k =
  ensure_order t;
  pred_of t t.s_ord.(k)

(* ------------------------------------------------------------------ *)
(* Materialization (miss path).  The result is exactly
   [Canon.normalize (Qparse.parse ...)]: predicate normalization
   already happened in [canon]; the final sorts below use symbol
   *names*, reproducing the reference's string-keyed orderings. *)

let to_query t =
  let tv_name i = Bytes.sub_string t.buf t.tv_off.(i) t.tv_len.(i) in
  let tvars =
    List.init t.n_tv (fun i -> (tv_name i, t.tab.Symtab.tnames.(t.tv_tbl.(i))))
  in
  let joins =
    List.init t.n_j (fun j ->
        Query.join ~child:(tv_name t.j_child.(j))
          ~fk:t.tab.Symtab.fknames.(t.tv_tbl.(t.j_child.(j))).(t.j_fk.(j))
          ~parent:(tv_name t.j_parent.(j)))
  in
  let selects =
    List.init t.n_s (fun s ->
        {
          Query.sel_tv = tv_name t.s_tv.(s);
          sel_attr = t.tab.Symtab.anames.(t.tv_tbl.(t.s_tv.(s))).(t.s_attr.(s));
          pred = pred_of t s;
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

let n_selects t = t.n_s
