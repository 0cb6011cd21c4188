open Selest_util

(* Cells are keyed by the row-major joint index (last column fastest).
   OCaml's 63-bit ints accommodate any joint domain we can meet in practice;
   [check_encodable] guards against overflow on pathological schemas. *)
type repr =
  | Dense of float array
  | Sparse of (int, float) Hashtbl.t

type t = { cards : int array; repr : repr; mutable total : float }

let dense_limit = 1 lsl 22

let joint_size cards =
  let s =
    Array.fold_left
      (fun acc c ->
        if c <= 0 then invalid_arg "Contingency: card <= 0";
        if acc > max_int / c then invalid_arg "Contingency: joint domain too large";
        acc * c)
      1 cards
  in
  s

let make cards =
  let size = joint_size cards in
  let repr =
    if size <= dense_limit then Dense (Array.make size 0.0)
    else Sparse (Hashtbl.create 1024)
  in
  { cards; repr; total = 0.0 }

(* Row-major joint index of a value tuple, with per-value range checks.
   Overflow-safe only after [joint_size cards] has been validated — use
   {!encoder} (or go through [make]) rather than calling this on
   unvalidated cardinalities. *)
let encode_values cards values =
  let idx = ref 0 in
  for i = 0 to Array.length cards - 1 do
    let v = values.(i) in
    if v < 0 || v >= cards.(i) then invalid_arg "Contingency: value out of range";
    idx := (!idx * cards.(i)) + v
  done;
  !idx

(* The single checked encoder: the overflow guard runs once at partial
   application, the closure then only range-checks values. *)
let encoder cards =
  ignore (joint_size cards);
  fun values -> encode_values cards values

(* Column-oriented variant for the counting loops; [make] has already run
   [joint_size] on these cards. *)
let encode cards cols r =
  let idx = ref 0 in
  for i = 0 to Array.length cards - 1 do
    let v = cols.(i).(r) in
    if v < 0 || v >= cards.(i) then invalid_arg "Contingency: value out of range";
    idx := (!idx * cards.(i)) + v
  done;
  !idx

let add t key w =
  t.total <- t.total +. w;
  match t.repr with
  | Dense a -> a.(key) <- a.(key) +. w
  | Sparse h ->
    let cur = try Hashtbl.find h key with Not_found -> 0.0 in
    Hashtbl.replace h key (cur +. w)

let check_cols cards cols =
  if Array.length cards <> Array.length cols then
    invalid_arg "Contingency: cards/cols length mismatch";
  if Array.length cols > 0 then begin
    let n = Array.length cols.(0) in
    Array.iter
      (fun c -> if Array.length c <> n then invalid_arg "Contingency: ragged columns")
      cols;
    n
  end
  else 0

let count ~cards cols =
  let n = check_cols cards cols in
  let t = make cards in
  if Array.length cards = 0 then begin
    t.total <- float_of_int n;
    (match t.repr with Dense a -> a.(0) <- float_of_int n | Sparse _ -> ());
    t
  end
  else begin
    for r = 0 to n - 1 do
      add t (encode cards cols r) 1.0
    done;
    t
  end

let count_masked ~cards ~mask cols =
  let n = check_cols cards cols in
  if Array.length mask <> n then invalid_arg "Contingency: mask length";
  let t = make cards in
  for r = 0 to n - 1 do
    if mask.(r) then
      let key = if Array.length cards = 0 then 0 else encode cards cols r in
      add t key 1.0
  done;
  t

let cards t = Array.copy t.cards
let total t = t.total

let key_of_values = encode_values

let get t values =
  if Array.length values <> Array.length t.cards then
    invalid_arg "Contingency.get: arity mismatch";
  let key = key_of_values t.cards values in
  match t.repr with
  | Dense a -> a.(key)
  | Sparse h -> ( try Hashtbl.find h key with Not_found -> 0.0)

let decode cards key out =
  let rem = ref key in
  for i = Array.length cards - 1 downto 0 do
    out.(i) <- !rem mod cards.(i);
    rem := !rem / cards.(i)
  done

let iter t f =
  let buf = Array.make (Array.length t.cards) 0 in
  match t.repr with
  | Dense a ->
    Array.iteri
      (fun key w ->
        if w <> 0.0 then begin
          decode t.cards key buf;
          f buf w
        end)
      a
  | Sparse h ->
    Hashtbl.iter
      (fun key w ->
        if w <> 0.0 then begin
          decode t.cards key buf;
          f buf w
        end)
      h

let to_factor ~vars t =
  let size = joint_size t.cards in
  if size > dense_limit then
    invalid_arg "Contingency.to_factor: joint domain too large for a dense factor";
  let data =
    match t.repr with
    | Dense a -> Array.copy a
    | Sparse h ->
      let a = Array.make size 0.0 in
      Hashtbl.iter (fun key w -> a.(key) <- a.(key) +. w) h;
      a
  in
  (* Our row-major cell layout (last column fastest) matches Factor's. *)
  Factor.create ~vars ~cards:(Array.copy t.cards) data

let marginal t dims =
  for i = 1 to Array.length dims - 1 do
    if dims.(i - 1) >= dims.(i) then invalid_arg "Contingency.marginal: dims not increasing"
  done;
  Array.iter
    (fun d -> if d < 0 || d >= Array.length t.cards then invalid_arg "Contingency.marginal: bad dim")
    dims;
  let sub_cards = Array.map (fun d -> t.cards.(d)) dims in
  let out = make sub_cards in
  let sub = Array.make (Array.length dims) 0 in
  iter t (fun values w ->
      Array.iteri (fun i d -> sub.(i) <- values.(d)) dims;
      add out (key_of_values sub_cards sub) w);
  out

let n_nonzero t =
  match t.repr with
  | Dense a -> Arrayx.fold_lefti (fun acc _ w -> if w <> 0.0 then acc + 1 else acc) 0 a
  | Sparse h -> Hashtbl.fold (fun _ w acc -> if w <> 0.0 then acc + 1 else acc) h 0
