type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFFFFFFFFFFFFFFL in
  let rec draw () =
    let r = Int64.to_int (Int64.logand (int64 t) mask) in
    let limit = max_int - (max_int mod bound) in
    if r >= limit then draw () else r mod bound
  in
  draw ()

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let bool t = Int64.logand (int64 t) 1L = 1L

(* The running total, added left to right: [categorical]'s scan and
   [cdf]'s prefix sums make the same float additions in the same order. *)
let checked_total name weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg (name ^ ": empty weights");
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if not (w >= 0.0 && w < Float.infinity) then
      invalid_arg (name ^ ": weights must be finite and non-negative");
    total := !total +. w
  done;
  if not (!total > 0.0) then invalid_arg (name ^ ": weights sum to zero");
  if !total = Float.infinity then invalid_arg (name ^ ": weights sum to infinity");
  !total

let categorical t weights =
  let n = Array.length weights in
  let total = checked_total "Rng.categorical" weights in
  let u = float t *. total in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

type cdf = float array

let cdf weights =
  ignore (checked_total "Rng.cdf" weights);
  let cum = Array.copy weights in
  for i = 1 to Array.length cum - 1 do
    cum.(i) <- cum.(i - 1) +. cum.(i)
  done;
  cum

let draw t cum =
  let n = Array.length cum in
  let u = float t *. cum.(n - 1) in
  (* The first i <= n-2 with u < cum.(i), else n-1, as [categorical]'s
     scan returns: non-negative weights make [cum] non-decreasing, so the
     test is monotone in i. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected draws, result sorted at the end. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  let out = Array.make k 0 in
  let i = ref 0 in
  for v = 0 to n - 1 do
    if Hashtbl.mem chosen v then begin
      out.(!i) <- v;
      incr i
    end
  done;
  out
