open Selest_util

type t = { vars : int array; cards : int array; data : float array }

let check_sorted vars =
  for i = 1 to Array.length vars - 1 do
    if vars.(i - 1) >= vars.(i) then
      invalid_arg "Factor: vars must be strictly increasing"
  done

(* Overflow-checked product of cardinalities. *)
let table_size cards =
  Array.fold_left
    (fun acc c ->
      if c > 0 && acc > max_int / c then invalid_arg "Factor: table too large";
      acc * c)
    1 cards

let create ~vars ~cards data =
  if Array.length vars <> Array.length cards then
    invalid_arg "Factor.create: vars/cards length mismatch";
  check_sorted vars;
  Array.iter (fun c -> if c <= 0 then invalid_arg "Factor.create: card <= 0") cards;
  if Array.length data <> table_size cards then
    invalid_arg "Factor.create: data size mismatch";
  { vars; cards; data }

(* Strides for row-major layout, last variable fastest. *)
let strides cards =
  let n = Array.length cards in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * cards.(i + 1)
  done;
  s

let of_fun ~vars ~cards f =
  check_sorted vars;
  let n = Array.length vars in
  let size = table_size cards in
  let asg = Array.make n 0 in
  let data = Array.make size 0.0 in
  for idx = 0 to size - 1 do
    data.(idx) <- f asg;
    (* advance the assignment odometer, last variable fastest *)
    if idx < size - 1 then begin
      let k = ref (n - 1) in
      let carry = ref true in
      while !carry do
        let d = asg.(!k) + 1 in
        if d = cards.(!k) then begin
          asg.(!k) <- 0;
          decr k
        end
        else begin
          asg.(!k) <- d;
          carry := false
        end
      done
    end
  done;
  { vars; cards; data }

let vars t = Array.copy t.vars
let cards t = Array.copy t.cards
let size t = Array.length t.data
let data t = Array.copy t.data
let unsafe_data t = t.data
let unsafe_vars t = t.vars
let unsafe_cards t = t.cards

let index_of t asg =
  let s = strides t.cards in
  let idx = ref 0 in
  for i = 0 to Array.length t.vars - 1 do
    let v = asg.(i) in
    if v < 0 || v >= t.cards.(i) then invalid_arg "Factor.get: value out of range";
    idx := !idx + (v * s.(i))
  done;
  !idx

let get t asg =
  if Array.length asg <> Array.length t.vars then
    invalid_arg "Factor.get: assignment arity mismatch";
  t.data.(index_of t asg)

let position t v =
  let rec loop i =
    if i >= Array.length t.vars then None
    else if t.vars.(i) = v then Some i
    else if t.vars.(i) > v then None
    else loop (i + 1)
  in
  loop 0

let mentions t v = position t v <> None

let union_vars a b =
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  let na = Array.length a.vars and nb = Array.length b.vars in
  while !i < na || !j < nb do
    if !i >= na then begin
      out := (b.vars.(!j), b.cards.(!j)) :: !out;
      incr j
    end
    else if !j >= nb then begin
      out := (a.vars.(!i), a.cards.(!i)) :: !out;
      incr i
    end
    else if a.vars.(!i) < b.vars.(!j) then begin
      out := (a.vars.(!i), a.cards.(!i)) :: !out;
      incr i
    end
    else if a.vars.(!i) > b.vars.(!j) then begin
      out := (b.vars.(!j), b.cards.(!j)) :: !out;
      incr j
    end
    else begin
      if a.cards.(!i) <> b.cards.(!j) then
        invalid_arg "Factor.product: cardinality disagreement";
      out := (a.vars.(!i), a.cards.(!i)) :: !out;
      incr i;
      incr j
    end
  done;
  let pairs = Array.of_list (List.rev !out) in
  (Array.map fst pairs, Array.map snd pairs)

(* For each union digit, the operand's stride (0 when the variable is
   absent), so operand indices follow the odometer incrementally. *)
let strides_in ~uvars f =
  let s = strides f.cards in
  Array.map (fun v -> match position f v with Some p -> s.(p) | None -> 0) uvars

let product a b =
  let uvars, ucards = union_vars a b in
  let n = Array.length uvars in
  let usize = table_size ucards in
  Selest_obs.Hotpath.kernel ~entries:usize ~out:usize;
  let stride_a = strides_in ~uvars a and stride_b = strides_in ~uvars b in
  let digits = Array.make n 0 in
  let data = Array.make usize 0.0 in
  let ia = ref 0 and ib = ref 0 in
  for idx = 0 to usize - 1 do
    data.(idx) <- a.data.(!ia) *. b.data.(!ib);
    (* advance odometer from the last (fastest) digit *)
    let k = ref (n - 1) in
    let carry = ref (idx < usize - 1) in
    while !carry && !k >= 0 do
      let d = digits.(!k) + 1 in
      if d = ucards.(!k) then begin
        digits.(!k) <- 0;
        ia := !ia - ((ucards.(!k) - 1) * stride_a.(!k));
        ib := !ib - ((ucards.(!k) - 1) * stride_b.(!k));
        decr k
      end
      else begin
        digits.(!k) <- d;
        ia := !ia + stride_a.(!k);
        ib := !ib + stride_b.(!k);
        carry := false
      end
    done
  done;
  { vars = uvars; cards = ucards; data }

let remove_at arr i =
  Array.init (Array.length arr - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let total t = Arrayx.sum t.data

(* Membership in a small sorted int array (scopes are tiny: linear scan
   with early exit beats binary search at these sizes). *)
let mem_sorted arr v =
  let n = Array.length arr in
  let rec go i = i < n && (arr.(i) = v || (arr.(i) < v && go (i + 1))) in
  go 0

let equal ?(eps = 1e-9) a b =
  a.vars = b.vars && a.cards = b.cards
  && Array.for_all2 (fun x y -> Arrayx.float_equal ~eps x y) a.data b.data

let pp ppf t =
  Format.fprintf ppf "factor over [%s] (%d entries)"
    (String.concat "," (Array.to_list (Array.map string_of_int t.vars)))
    (Array.length t.data)

(* ---- reference kernels ----------------------------------------------------

   Per-entry decode kernels: every index is decoded with div/mod.  They
   are the factor algebra of the test oracle {!Selest_bn.Ve.Reference};
   the compiled executor in [lib/plan] must agree with that oracle bit
   for bit. *)

module Reference = struct
  let sum_out t v =
    match position t v with
    | None -> t
    | Some p ->
      let n = Array.length t.vars in
      let card_v = t.cards.(p) in
      let s = strides t.cards in
      let new_vars = remove_at t.vars p and new_cards = remove_at t.cards p in
      let new_size = table_size new_cards in
      let data = Array.make new_size 0.0 in
      let digits = Array.make n 0 in
      let old_size = Array.length t.data in
      for idx = 0 to old_size - 1 do
        let rem = ref idx in
        for i = n - 1 downto 0 do
          digits.(i) <- !rem mod t.cards.(i);
          rem := !rem / t.cards.(i)
        done;
        let reduced = idx - (digits.(p) * s.(p)) in
        let hi = reduced / (s.(p) * card_v) and lo = reduced mod s.(p) in
        data.((hi * s.(p)) + lo) <- data.((hi * s.(p)) + lo) +. t.data.(idx)
      done;
      { vars = new_vars; cards = new_cards; data }

  let restrict t v x =
    match position t v with
    | None -> t
    | Some p ->
      if x < 0 || x >= t.cards.(p) then invalid_arg "Factor.restrict: value out of range";
      let s = strides t.cards in
      let card_v = t.cards.(p) in
      let new_vars = remove_at t.vars p and new_cards = remove_at t.cards p in
      let new_size = table_size new_cards in
      let data = Array.make new_size 0.0 in
      for j = 0 to new_size - 1 do
        let hi = j / s.(p) and lo = j mod s.(p) in
        data.(j) <- t.data.((hi * s.(p) * card_v) + (x * s.(p)) + lo)
      done;
      { vars = new_vars; cards = new_cards; data }

  let observe t v allowed =
    match position t v with
    | None -> t
    | Some p ->
      let n = Array.length t.vars in
      let data = Array.copy t.data in
      let digits = Array.make n 0 in
      for idx = 0 to Array.length data - 1 do
        let rem = ref idx in
        for i = n - 1 downto 0 do
          digits.(i) <- !rem mod t.cards.(i);
          rem := !rem / t.cards.(i)
        done;
        if not (allowed digits.(p)) then data.(idx) <- 0.0
      done;
      { t with data }

  let product = product
end
