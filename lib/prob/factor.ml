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

let constant c = { vars = [||]; cards = [||]; data = [| c |] }
let vars t = Array.copy t.vars
let cards t = Array.copy t.cards
let size t = Array.length t.data
let data t = Array.copy t.data
let unsafe_data t = t.data
let unsafe_vars t = t.vars
let unsafe_cards t = t.cards
let strides_of t = strides t.cards

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

(* Union scope of a list of factors, in one merged pass. *)
let union_scope fs =
  match fs with
  | [] -> ([||], [||])
  | f :: rest ->
    List.fold_left
      (fun (uvars, ucards) g -> union_vars { vars = uvars; cards = ucards; data = [||] } g)
      (f.vars, f.cards) rest

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

(* ---- scratch buffers ----------------------------------------------------

   A checkout pool of exactly-sized float arrays, so a long inference run
   reuses the same handful of tables instead of allocating one per
   elimination step.  Callers take a buffer, build a factor around it, and
   release it once the factor is dead; the pool never hands out a buffer
   that has not been released. *)

type scratch = (int, float array list ref) Hashtbl.t

let scratch () : scratch = Hashtbl.create 8

let scratch_take (sc : scratch) size =
  match Hashtbl.find_opt sc size with
  | Some ({ contents = buf :: rest } as slot) ->
    slot := rest;
    buf
  | _ -> Array.make size 0.0

let scratch_release (sc : scratch) (buf : float array) =
  let size = Array.length buf in
  match Hashtbl.find_opt sc size with
  | Some slot -> slot := buf :: !slot
  | None -> Hashtbl.add sc size (ref [ buf ])

let release sc t = scratch_release sc t.data

(* ---- fused stride kernels ----------------------------------------------- *)

let sum_out t v =
  match position t v with
  | None -> t
  | Some p ->
    let s = strides t.cards in
    let sp = s.(p) and cv = t.cards.(p) in
    let new_vars = remove_at t.vars p and new_cards = remove_at t.cards p in
    let new_size = table_size new_cards in
    Selest_obs.Hotpath.kernel ~entries:(Array.length t.data) ~out:new_size;
    let data = Array.make new_size 0.0 in
    let old = t.data in
    let block = sp * cv in
    let n_hi = Array.length old / block in
    (* Accumulate slabs: out(hi,lo) += in(hi,x,lo), x-major like the
       row-major scan, so summation order matches the naive kernel. *)
    for hi = 0 to n_hi - 1 do
      let base_old = hi * block and base_new = hi * sp in
      for x = 0 to cv - 1 do
        let off = base_old + (x * sp) in
        for lo = 0 to sp - 1 do
          data.(base_new + lo) <- data.(base_new + lo) +. old.(off + lo)
        done
      done
    done;
    { vars = new_vars; cards = new_cards; data }

let restrict t v x =
  match position t v with
  | None -> t
  | Some p ->
    if x < 0 || x >= t.cards.(p) then invalid_arg "Factor.restrict: value out of range";
    let s = strides t.cards in
    let sp = s.(p) in
    let block = sp * t.cards.(p) in
    let new_vars = remove_at t.vars p and new_cards = remove_at t.cards p in
    let new_size = table_size new_cards in
    let data = Array.make new_size 0.0 in
    let n_hi = new_size / sp in
    for hi = 0 to n_hi - 1 do
      Array.blit t.data ((hi * block) + (x * sp)) data (hi * sp) sp
    done;
    { vars = new_vars; cards = new_cards; data }

let observe_mask t v mask =
  match position t v with
  | None -> t
  | Some p ->
    let cv = t.cards.(p) in
    if Array.length mask <> cv then invalid_arg "Factor.observe: mask arity mismatch";
    if Array.for_all Fun.id mask then t
    else begin
      let s = strides t.cards in
      let sp = s.(p) in
      let block = sp * cv in
      let data = Array.copy t.data in
      let n_hi = Array.length data / block in
      for hi = 0 to n_hi - 1 do
        for x = 0 to cv - 1 do
          if not mask.(x) then Array.fill data ((hi * block) + (x * sp)) sp 0.0
        done
      done;
      { t with data }
    end

let observe t v allowed =
  match position t v with
  | None -> t
  | Some p ->
    (* Evaluate the predicate once per value, not once per table entry. *)
    let mask = Array.init t.cards.(p) allowed in
    observe_mask t v mask

(* Multiply [fs] over their union scope in a single odometer pass; entry
   values associate left over the list order, matching a [product] fold. *)
let product_all = function
  | [] -> constant 1.0
  | [ f ] -> f
  | _ :: _ :: _ as fs ->
    let uvars, ucards = union_scope fs in
    let n = Array.length uvars in
    let usize = table_size ucards in
    Selest_obs.Hotpath.kernel ~entries:usize ~out:usize;
    let ops = Array.of_list fs in
    let k = Array.length ops in
    let datas = Array.map (fun f -> f.data) ops in
    let op_strides = Array.map (fun f -> strides_in ~uvars f) ops in
    let idxs = Array.make k 0 in
    let digits = Array.make n 0 in
    let data = Array.make usize 0.0 in
    for u = 0 to usize - 1 do
      let prod = ref datas.(0).(idxs.(0)) in
      for j = 1 to k - 1 do
        prod := !prod *. datas.(j).(idxs.(j))
      done;
      data.(u) <- !prod;
      if u < usize - 1 then begin
        let c = ref (n - 1) in
        let carry = ref true in
        while !carry do
          let d = digits.(!c) + 1 in
          if d = ucards.(!c) then begin
            digits.(!c) <- 0;
            let back = ucards.(!c) - 1 in
            for j = 0 to k - 1 do
              idxs.(j) <- idxs.(j) - (back * op_strides.(j).(!c))
            done;
            decr c
          end
          else begin
            digits.(!c) <- d;
            for j = 0 to k - 1 do
              idxs.(j) <- idxs.(j) + op_strides.(j).(!c)
            done;
            carry := false
          end
        done
      end
    done;
    { vars = uvars; cards = ucards; data }

(* Σ_v Π fs in one pass: the variable-elimination step without the
   intermediate product table.  Accumulation order per output cell matches
   [sum_out (product_all fs) v] exactly (increasing value of [v]). *)
let sum_out_product ?scratch fs v =
  match fs with
  | [] -> invalid_arg "Factor.sum_out_product: empty factor list"
  | [ f ] when Option.is_none scratch -> sum_out f v
  | fs ->
    let uvars, ucards = union_scope fs in
    let n = Array.length uvars in
    let usize = table_size ucards in
    let p =
      let rec find i =
        if i >= n then -1 else if uvars.(i) = v then i else find (i + 1)
      in
      find 0
    in
    if p < 0 then
      (* no factor mentions v: plain product *)
      product_all fs
    else begin
      let out_vars = remove_at uvars p and out_cards = remove_at ucards p in
      let out_size = table_size out_cards in
      Selest_obs.Hotpath.kernel ~entries:usize ~out:out_size;
      let out_strides_reduced = strides out_cards in
      (* stride of each union digit in the output table; 0 for v itself *)
      let out_stride =
        Array.init n (fun i ->
            if i = p then 0
            else if i < p then out_strides_reduced.(i)
            else out_strides_reduced.(i - 1))
      in
      let ops = Array.of_list fs in
      let k = Array.length ops in
      let datas = Array.map (fun f -> f.data) ops in
      let op_strides = Array.map (fun f -> strides_in ~uvars f) ops in
      let idxs = Array.make k 0 in
      let digits = Array.make n 0 in
      let data =
        match scratch with
        | Some sc ->
          let buf = scratch_take sc out_size in
          Array.fill buf 0 out_size 0.0;
          buf
        | None -> Array.make out_size 0.0
      in
      let iout = ref 0 in
      for u = 0 to usize - 1 do
        let prod = ref datas.(0).(idxs.(0)) in
        for j = 1 to k - 1 do
          prod := !prod *. datas.(j).(idxs.(j))
        done;
        data.(!iout) <- data.(!iout) +. !prod;
        if u < usize - 1 then begin
          let c = ref (n - 1) in
          let carry = ref true in
          while !carry do
            let d = digits.(!c) + 1 in
            if d = ucards.(!c) then begin
              digits.(!c) <- 0;
              let back = ucards.(!c) - 1 in
              for j = 0 to k - 1 do
                idxs.(j) <- idxs.(j) - (back * op_strides.(j).(!c))
              done;
              iout := !iout - (back * out_stride.(!c));
              decr c
            end
            else begin
              digits.(!c) <- d;
              for j = 0 to k - 1 do
                idxs.(j) <- idxs.(j) + op_strides.(j).(!c)
              done;
              iout := !iout + out_stride.(!c);
              carry := false
            end
          done
        end
      done;
      { vars = out_vars; cards = out_cards; data }
    end

let product_into sc a b =
  let uvars, ucards = union_vars a b in
  let n = Array.length uvars in
  let usize = table_size ucards in
  Selest_obs.Hotpath.kernel ~entries:usize ~out:usize;
  let stride_a = strides_in ~uvars a and stride_b = strides_in ~uvars b in
  let digits = Array.make n 0 in
  let data = scratch_take sc usize in
  let ia = ref 0 and ib = ref 0 in
  for idx = 0 to usize - 1 do
    data.(idx) <- a.data.(!ia) *. b.data.(!ib);
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

let total t = Arrayx.sum t.data

(* Membership in a small sorted int array (scopes are tiny: linear scan
   with early exit beats binary search at these sizes). *)
let mem_sorted arr v =
  let n = Array.length arr in
  let rec go i = i < n && (arr.(i) = v || (arr.(i) < v && go (i + 1))) in
  go 0

(* Sum several variables out in one pass: walk the source table with an
   odometer whose output stride is 0 for every summed variable. *)
let marginalize_onto t keep =
  let keep = Array.copy keep in
  Array.sort compare keep;
  let n = Array.length t.vars in
  let kept = Array.map (fun v -> mem_sorted keep v) t.vars in
  if Array.for_all Fun.id kept then t
  else begin
    let out_vars = ref [] and out_cards = ref [] in
    for i = n - 1 downto 0 do
      if kept.(i) then begin
        out_vars := t.vars.(i) :: !out_vars;
        out_cards := t.cards.(i) :: !out_cards
      end
    done;
    let out_vars = Array.of_list !out_vars and out_cards = Array.of_list !out_cards in
    let out_size = table_size out_cards in
    Selest_obs.Hotpath.kernel ~entries:(Array.length t.data) ~out:out_size;
    let out_strides_reduced = strides out_cards in
    let out_stride = Array.make n 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if kept.(i) then begin
        out_stride.(i) <- out_strides_reduced.(!j);
        incr j
      end
    done;
    let data = Array.make out_size 0.0 in
    let digits = Array.make n 0 in
    let iout = ref 0 in
    let src = t.data in
    let size = Array.length src in
    for idx = 0 to size - 1 do
      data.(!iout) <- data.(!iout) +. src.(idx);
      if idx < size - 1 then begin
        let c = ref (n - 1) in
        let carry = ref true in
        while !carry do
          let d = digits.(!c) + 1 in
          if d = t.cards.(!c) then begin
            digits.(!c) <- 0;
            iout := !iout - ((t.cards.(!c) - 1) * out_stride.(!c));
            decr c
          end
          else begin
            digits.(!c) <- d;
            iout := !iout + out_stride.(!c);
            carry := false
          end
        done
      end
    done;
    { vars = out_vars; cards = out_cards; data }
  end

let marginal t keep = marginalize_onto t keep

let equal ?(eps = 1e-9) a b =
  a.vars = b.vars && a.cards = b.cards
  && Array.for_all2 (fun x y -> Arrayx.float_equal ~eps x y) a.data b.data

let pp ppf t =
  Format.fprintf ppf "factor over [%s] (%d entries)"
    (String.concat "," (Array.to_list (Array.map string_of_int t.vars)))
    (Array.length t.data)

(* ---- reference implementations ------------------------------------------

   The pre-optimization per-entry decode kernels, kept verbatim as a test
   oracle: the stride kernels above must agree with these bit for bit
   (sum_out, restrict, observe) or within float tolerance (marginal). *)

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

  let marginal t keep =
    let keep_set = Array.to_list keep in
    Array.fold_left
      (fun acc v -> if List.mem v keep_set then acc else sum_out acc v)
      t t.vars
end
