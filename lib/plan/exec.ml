open Selest_db
module Factor = Selest_prob.Factor

(* The zero-allocation bytecode executor.

   [compile] lowers one restricted-variable shape of a plan — the
   factors, the evidence slots, and the memoized elimination order —
   into a flat array of steps over integer-indexed float buffers:

     Gather    copy the slice [factor | slot values] into an arena
               buffer (the compiled form of the evidence restricts);
               pure data movement, bit-identical to composing
               {!Factor.restrict} over the bound variables.
     Contract  one variable-elimination step: the fused
               multiply-then-sum odometer kernel of
               {!Factor.sum_out_product}, with the union scope, operand
               stride tables and output offsets all precomputed.

   Execution then reads the surviving buffers back with the same Kahan
   summation and left-fold product as [Ve.run]'s [total_of], so results
   are bit-identical to the generic engine.  All buffers are sized at
   compile time; a warm [load]+[run] performs no GC allocation and no
   closure dispatch. *)

(* ---- programs (symbolic, shareable across domains) ---------------------- *)

type buf =
  | Alias of float array  (* untouched factor: read the live table in place *)
  | Arena of int  (* intermediate buffer of this many entries *)

type gather = {
  g_src : float array;  (* live source table *)
  g_dst : int;  (* arena buffer id *)
  g_n_out : int;  (* entries copied = size of dst *)
  g_slots : int array;  (* arg slot per restricted dimension *)
  g_slot_strides : int array;  (* source stride per restricted dimension *)
  g_out_cards : int array;  (* cards of the kept dimensions *)
  g_out_strides : int array;  (* source stride per kept dimension *)
  (* Mask evidence (range/set predicates): kept dimensions whose values
     are filtered per request.  Disallowed entries are written as exact
     0.0 during the copy — the compiled form of
     {!Factor.observe_mask}, bit-identical because no arithmetic
     happens. *)
  g_mask_pos : int array;  (* positions within the kept dims *)
  g_mask_slots : int array;  (* mask slot id per masked dim *)
}

type contract = {
  c_dst : int;
  c_out_size : int;
  c_usize : int;  (* union-scope table size *)
  c_ucards : int array;  (* union-scope cards, last digit fastest *)
  c_ops : int array;  (* operand buffer ids, touching-list order *)
  c_op_strides : int array array;  (* per operand, per union digit (0 if absent) *)
  c_out_stride : int array;  (* per union digit; 0 at the eliminated var *)
}

type step = Gather of gather | Contract of contract

(* Steps specialized against a state's concrete buffers, so the hot loop
   never indirects through buffer ids. *)
type sstep =
  | SGather of {
      src : float array;
      dst : float array;
      n_out : int;
      slots : int array;
      slot_strides : int array;
      out_cards : int array;
      out_strides : int array;
      mask_pos : int array;  (* kept-dim positions filtered per request *)
      gmasks : bool array array;  (* the state's mask per masked dim *)
    }
  | SContract of {
      out : float array;
      out_size : int;
      usize : int;
      ucards : int array;
      datas : float array array;
      op_strides : int array array;
      out_stride : int array;
    }

type state = {
  args : int array;  (* one value per arg slot *)
  masks : bool array array;  (* per-slot allowed-value mask *)
  kind : int array;  (* per-slot evidence state while loading, see [begin_load] *)
  set_vals : bool array;  (* the set being written, as a mask *)
  mutable set_slot : int;  (* its slot, -1 when it fits none *)
  mutable fits : bool;  (* every predicate so far named a request slot *)
  ssteps : sstep array;
  sfinals : float array array;
  digits : int array;  (* shared odometer digits, max_dims wide *)
  idxs : int array;  (* shared operand indices, max_ops wide *)
  result : float array;  (* 1-cell read-out *)
}

type program = {
  states : state option array Atomic.t;
      (* per-domain execution state, indexed by domain id; grown by
         copy-and-CAS in [state_for], so a state lives exactly as long
         as its program *)
  bufs : buf array;
  steps : step array;
  finals : int array;  (* surviving buffer ids, factor-list order *)
  slot_of_node : int array;  (* node id -> arg slot, -1 if unrestricted *)
  slot_card : int array;
  static_slot : bool array;  (* prefilled at state creation, never reset *)
  static_val : int array;  (* value of each static slot, -1 otherwise *)
  mask_slot : bool array;  (* slot carries a per-request bool mask, not a value *)
  has_masks : bool;
  n_slots : int;
  max_dims : int;  (* widest odometer across all steps *)
  max_ops : int;  (* widest operand list across all contractions *)
}

(* Local replica of {!Factor.strides_of} on a symbolic card array. *)
let strides cards =
  let n = Array.length cards in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * cards.(i + 1)
  done;
  s

let remove_at arr i =
  Array.init (Array.length arr - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let mem_sorted = Factor.mem_sorted

let position vars v =
  let n = Array.length vars in
  let rec find i = if i >= n then -1 else if vars.(i) = v then i else find (i + 1) in
  find 0

(* A table over [sub] (row-major strides [sub_strides]) walked along
   [sup]'s digits: the stride per [sup] variable, 0 where [sub] lacks
   it.  Both sorted, [sub] within [sup]. *)
let strides_along sub sub_strides sup =
  let out = Array.make (Array.length sup) 0 in
  let j = ref 0 in
  for i = 0 to Array.length sup - 1 do
    if !j < Array.length sub && sub.(!j) = sup.(i) then begin
      out.(i) <- sub_strides.(!j);
      incr j
    end
  done;
  out

let compile ~factors ~slots ~masked ~static ~order =
  (* Cardinality of every variable the factors mention, read from their
     live scopes (0: in no factor). *)
  let n_vars =
    List.fold_left
      (fun n f ->
        Array.fold_left
          (fun n v ->
            if v < 0 then invalid_arg "Exec: negative factor variable";
            max n (v + 1))
          n (Factor.unsafe_vars f))
      0 factors
  in
  let card = Array.make n_vars 0 in
  List.iter
    (fun f ->
      let fvars = Factor.unsafe_vars f and fcards = Factor.unsafe_cards f in
      for i = 0 to Array.length fvars - 1 do
        let v = fvars.(i) in
        if card.(v) = 0 then card.(v) <- fcards.(i)
        else if card.(v) <> fcards.(i) then invalid_arg "Exec: cardinality disagreement"
      done)
    factors;
  let card_of v =
    if v >= 0 && v < n_vars && card.(v) > 0 then card.(v)
    else invalid_arg "Exec: evidence variable not in any factor"
  in
  List.iter
    (fun (v, x) ->
      if x < 0 || x >= card_of v then
        invalid_arg "Exec: static evidence value out of range")
    static;
  (* Arg-slot layout: request value slots first (caller order), then
     statics, then mask slots. *)
  let slot_nodes = slots @ List.map fst static @ masked in
  let n_slots = List.length slot_nodes in
  let max_node = List.fold_left max (-1) slot_nodes in
  let slot_of_node = Array.make (max_node + 1) (-1) in
  List.iteri
    (fun s v ->
      if v < 0 then invalid_arg "Exec: negative slot variable";
      if slot_of_node.(v) >= 0 then invalid_arg "Exec: duplicate slot variable";
      slot_of_node.(v) <- s)
    slot_nodes;
  let slot_card = Array.of_list (List.map card_of slot_nodes) in
  let n_request = List.length slots in
  let n_static = List.length static in
  let static_slot =
    Array.init n_slots (fun s -> s >= n_request && s < n_request + n_static)
  in
  let static_val = Array.make n_slots (-1) in
  List.iteri (fun i (_, x) -> static_val.(n_request + i) <- x) static;
  let mask_slot = Array.init n_slots (fun s -> s >= n_request + n_static) in
  let is_restricted v =
    v <= max_node && slot_of_node.(v) >= 0 && not mask_slot.(slot_of_node.(v))
  in
  let is_masked v = v <= max_node && slot_of_node.(v) >= 0 && mask_slot.(slot_of_node.(v)) in
  (* Evidence application: one Gather per factor that mentions a
     restricted or masked variable (composed multi-dimensional slice
     with per-request zeroing of masked-out entries), a plain alias of
     the live table otherwise. *)
  let bufs = ref [] and n_bufs = ref 0 in
  let new_buf spec =
    let id = !n_bufs in
    incr n_bufs;
    bufs := spec :: !bufs;
    id
  in
  let steps = ref [] in
  let count p a = Array.fold_left (fun n v -> if p v then n + 1 else n) 0 a in
  let sym = ref [] in
  List.iter
    (fun f ->
      let fvars = Factor.unsafe_vars f and fcards = Factor.unsafe_cards f in
      let fdata = Factor.unsafe_data f in
      let n_restricted = count is_restricted fvars and n_mask = count is_masked fvars in
      if n_restricted = 0 && n_mask = 0 then
        sym := (fvars, fcards, new_buf (Alias fdata)) :: !sym
      else begin
        let fstrides = strides fcards in
        let n_kept = Array.length fvars - n_restricted in
        let g_slots = Array.make n_restricted 0 and g_slot_strides = Array.make n_restricted 0 in
        let out_vars = Array.make n_kept 0 and out_cards = Array.make n_kept 0 in
        let out_strides = Array.make n_kept 0 in
        let mask_pos = Array.make n_mask 0 and mask_slots = Array.make n_mask 0 in
        let r = ref 0 and k = ref 0 and m = ref 0 in
        Array.iteri
          (fun i v ->
            if is_restricted v then begin
              g_slots.(!r) <- slot_of_node.(v);
              g_slot_strides.(!r) <- fstrides.(i);
              incr r
            end
            else begin
              if is_masked v then begin
                mask_pos.(!m) <- !k;
                mask_slots.(!m) <- slot_of_node.(v);
                incr m
              end;
              out_vars.(!k) <- v;
              out_cards.(!k) <- fcards.(i);
              out_strides.(!k) <- fstrides.(i);
              incr k
            end)
          fvars;
        let n_out = Array.fold_left ( * ) 1 out_cards in
        let id = new_buf (Arena n_out) in
        steps :=
          Gather
            {
              g_src = fdata;
              g_dst = id;
              g_n_out = n_out;
              g_slots;
              g_slot_strides;
              g_out_cards = out_cards;
              g_out_strides = out_strides;
              g_mask_pos = mask_pos;
              g_mask_slots = mask_slots;
            }
          :: !steps;
        sym := (out_vars, out_cards, id) :: !sym
      end)
    factors;
  let sym = ref (List.rev !sym) in
  (* Symbolic replay of [Ve.eliminate_step] over the memoized order,
     emitting one Contract per eliminated variable.  The union scope is
     collected on an id-indexed mark array, ascending like the fused
     kernel's. *)
  let mark = Array.make n_vars (-1) in
  List.iteri
    (fun si v ->
      let touching, rest =
        List.partition (fun (fvars, _, _) -> mem_sorted fvars v) !sym
      in
      if touching <> [] then begin
        let n = ref 0 in
        List.iter
          (fun (fvars, _, _) ->
            Array.iter
              (fun u ->
                if mark.(u) <> si then begin
                  mark.(u) <- si;
                  incr n
                end)
              fvars)
          touching;
        let n = !n in
        let uvars = Array.make n 0 in
        let j = ref 0 in
        for u = 0 to n_vars - 1 do
          if mark.(u) = si then begin
            uvars.(!j) <- u;
            incr j
          end
        done;
        let ucards = Array.map (fun u -> card.(u)) uvars in
        let usize = Array.fold_left ( * ) 1 ucards in
        let p = position uvars v in
        let out_cards = remove_at ucards p in
        let out_vars = remove_at uvars p in
        let out_size = Array.fold_left ( * ) 1 out_cards in
        let out_stride = strides_along out_vars (strides out_cards) uvars in
        let ops = Array.of_list (List.map (fun (_, _, id) -> id) touching) in
        let op_strides =
          Array.of_list
            (List.map
               (fun (fvars, fcards, _) -> strides_along fvars (strides fcards) uvars)
               touching)
        in
        let dst = new_buf (Arena out_size) in
        steps :=
          Contract
            {
              c_dst = dst;
              c_out_size = out_size;
              c_usize = usize;
              c_ucards = ucards;
              c_ops = ops;
              c_op_strides = op_strides;
              c_out_stride = out_stride;
            }
          :: !steps;
        sym := (out_vars, out_cards, dst) :: rest
      end)
    order;
  let steps = Array.of_list (List.rev !steps) in
  let max_dims = ref 0 and max_ops = ref 0 in
  Array.iter
    (function
      | Gather g ->
        if Array.length g.g_out_cards > !max_dims then
          max_dims := Array.length g.g_out_cards
      | Contract c ->
        if Array.length c.c_ucards > !max_dims then
          max_dims := Array.length c.c_ucards;
        if Array.length c.c_ops > !max_ops then max_ops := Array.length c.c_ops)
    steps;
  {
    states = Atomic.make [||];
    bufs = Array.of_list (List.rev !bufs);
    steps;
    finals = Array.of_list (List.map (fun (_, _, id) -> id) !sym);
    slot_of_node;
    slot_card;
    static_slot;
    static_val;
    mask_slot;
    has_masks = masked <> [];
    n_slots;
    max_dims = !max_dims;
    max_ops = !max_ops;
  }

let n_steps prog = Array.length prog.steps

let arena_entries prog =
  Array.fold_left
    (fun acc -> function Alias _ -> acc | Arena n -> acc + n)
    0 prog.bufs

(* ---- per-domain execution state ----------------------------------------- *)

let build_state prog =
  let bufs =
    Array.map (function Alias a -> a | Arena n -> Array.make n 0.0) prog.bufs
  in
  let args = Array.make prog.n_slots (-1) in
  for s = 0 to prog.n_slots - 1 do
    if prog.static_slot.(s) then args.(s) <- prog.static_val.(s)
  done;
  let masks =
    Array.init prog.n_slots (fun s ->
        if prog.static_slot.(s) then [||] else Array.make prog.slot_card.(s) true)
  in
  let ssteps =
    Array.map
      (function
        | Gather g ->
          SGather
            {
              src = g.g_src;
              dst = bufs.(g.g_dst);
              n_out = g.g_n_out;
              slots = g.g_slots;
              slot_strides = g.g_slot_strides;
              out_cards = g.g_out_cards;
              out_strides = g.g_out_strides;
              mask_pos = g.g_mask_pos;
              gmasks = Array.map (fun s -> masks.(s)) g.g_mask_slots;
            }
        | Contract c ->
          SContract
            {
              out = bufs.(c.c_dst);
              out_size = c.c_out_size;
              usize = c.c_usize;
              ucards = c.c_ucards;
              datas = Array.map (fun id -> bufs.(id)) c.c_ops;
              op_strides = c.c_op_strides;
              out_stride = c.c_out_stride;
            })
      prog.steps
  in
  {
    args;
    masks;
    kind = Array.make prog.n_slots 0;
    set_vals = Array.make (Array.fold_left max 0 prog.slot_card) false;
    set_slot = -1;
    fits = true;
    ssteps;
    sfinals = Array.map (fun id -> bufs.(id)) prog.finals;
    digits = Array.make prog.max_dims 0;
    idxs = Array.make prog.max_ops 0;
    result = [| 0.0 |];
  }

(* One state per (domain, program): arenas are written in place, so a
   state must never be shared across domains — mirrored on the existing
   one-active-inference-per-domain contract of the scratch pool.  The
   slots hang off the program itself (not a domain-local table keyed by
   program), so dropping a program — say, with its plan after a model
   reload — frees its arenas, and the model tables they alias, with it.
   Each domain writes only its own slot; a slot is published by copying
   the array and swinging the pointer with a CAS, retried if another
   domain published first. *)
let rec publish prog id st =
  let cur = Atomic.get prog.states in
  let next = Array.make (max (Array.length cur) (id + 1)) None in
  Array.blit cur 0 next 0 (Array.length cur);
  next.(id) <- Some st;
  if not (Atomic.compare_and_set prog.states cur next) then publish prog id st

let state_for prog =
  let id = (Domain.self () :> int) in
  let slots = Atomic.get prog.states in
  match if id < Array.length slots then slots.(id) else None with
  | Some st -> st
  | None ->
    let st = build_state prog in
    publish prog id st;
    st

(* ---- the evidence writer ----------------------------------------------

   The one place evidence enters a state: {!begin_load}, one write per
   predicate ({!write_eq}, {!write_range}, a set as {!begin_set} /
   {!add_set} / {!end_set}), then {!finish_load}.  The served path
   writes a canonical scratch's selects straight through it; {!load}
   feeds it a binding list.  Predicates on one slot intersect as they
   arrive, and each slot's state is one of: *)

let unbound = 0 (* no predicate yet *)
let single = 1 (* exactly one allowed value, in [args] *)
let masked = 2 (* the allowed values, in [masks] *)
let empty = 3 (* no allowed value: a contradiction *)

let begin_load prog st =
  st.fits <- true;
  for s = 0 to prog.n_slots - 1 do
    st.kind.(s) <- unbound
  done

(* The request slot a predicate on [node] writes, or -1 when the program
   has none for it (the binding does not fit this program's shape). *)
let slot_for prog st node =
  let s =
    if node < 0 || node >= Array.length prog.slot_of_node then -1
    else prog.slot_of_node.(node)
  in
  if s < 0 || prog.static_slot.(s) then begin
    st.fits <- false;
    -1
  end
  else s

(* Values are range-checked as they arrive, with [Ve.prepare]'s
   message. *)
let check_value prog s x =
  if x < 0 || x >= prog.slot_card.(s) then invalid_arg "Ve: evidence value out of range"

let write_eq prog st node x =
  let s = slot_for prog st node in
  if s >= 0 then begin
    check_value prog s x;
    let k = st.kind.(s) in
    if k = unbound then begin
      st.args.(s) <- x;
      st.kind.(s) <- single
    end
    else if k = single then (if st.args.(s) <> x then st.kind.(s) <- empty)
    else if k = masked then
      if st.masks.(s).(x) then begin
        st.args.(s) <- x;
        st.kind.(s) <- single
      end
      else st.kind.(s) <- empty
  end

let write_range prog st node lo hi =
  let s = slot_for prog st node in
  if s >= 0 then begin
    check_value prog s lo;
    check_value prog s hi;
    let k = st.kind.(s) and m = st.masks.(s) in
    if k = unbound then begin
      for x = 0 to prog.slot_card.(s) - 1 do
        m.(x) <- lo <= x && x <= hi
      done;
      st.kind.(s) <- masked
    end
    else if k = single then
      (let x = st.args.(s) in
       if x < lo || x > hi then st.kind.(s) <- empty)
    else if k = masked then
      for x = 0 to prog.slot_card.(s) - 1 do
        if x < lo || x > hi then m.(x) <- false
      done
  end

let begin_set prog st node =
  let s = slot_for prog st node in
  st.set_slot <- s;
  if s >= 0 then
    for x = 0 to prog.slot_card.(s) - 1 do
      st.set_vals.(x) <- false
    done

let add_set prog st x =
  let s = st.set_slot in
  if s >= 0 then begin
    check_value prog s x;
    st.set_vals.(x) <- true
  end

let end_set prog st =
  let s = st.set_slot in
  if s >= 0 then begin
    let k = st.kind.(s) and m = st.masks.(s) and vals = st.set_vals in
    if k = unbound then begin
      for x = 0 to prog.slot_card.(s) - 1 do
        m.(x) <- vals.(x)
      done;
      st.kind.(s) <- masked
    end
    else if k = single then (if not vals.(st.args.(s)) then st.kind.(s) <- empty)
    else if k = masked then
      for x = 0 to prog.slot_card.(s) - 1 do
        if not vals.(x) then m.(x) <- false
      done
  end

(* Classify every request slot by its allowed values — one binds a value
   slot, two or more a mask slot — against the program's own slot kinds.
   A misfit anywhere is [`No_match] (the caller tries another program);
   otherwise an empty slot is [`Contradiction] (the event is empty, the
   estimate 0.0, and no buffer is touched). *)
let rec classify prog st s contradicted =
  if s >= prog.n_slots then if contradicted then `Contradiction else `Ok
  else if prog.static_slot.(s) then classify prog st (s + 1) contradicted
  else
    let k = st.kind.(s) in
    if k = unbound then `No_match
    else if k = empty then classify prog st (s + 1) true
    else if k = single then
      if prog.mask_slot.(s) then `No_match else classify prog st (s + 1) contradicted
    else begin
      let m = st.masks.(s) in
      let count = ref 0 and first = ref (-1) in
      for x = 0 to prog.slot_card.(s) - 1 do
        if m.(x) then begin
          incr count;
          if !first < 0 then first := x
        end
      done;
      if !count = 0 then classify prog st (s + 1) true
      else if !count = 1 then
        if prog.mask_slot.(s) then `No_match
        else begin
          st.args.(s) <- !first;
          classify prog st (s + 1) contradicted
        end
      else if prog.mask_slot.(s) then classify prog st (s + 1) contradicted
      else `No_match
    end

let finish_load prog st = if st.fits then classify prog st 0 false else `No_match

(* ---- load ---------------------------------------------------------------- *)

(* A binding list fed through the writer.  Top-level recursion (not a
   local closure) so a warm load allocates nothing; it stops at the
   first predicate the program has no slot for. *)
let rec add_values prog st = function
  | [] -> ()
  | x :: rest ->
    add_set prog st x;
    add_values prog st rest

let rec feed prog st = function
  | [] -> ()
  | (node, pred) :: rest ->
    (match pred with
    | Query.Eq x -> write_eq prog st node x
    | Query.Range (lo, hi) -> write_range prog st node lo hi
    | Query.In_set xs ->
      begin_set prog st node;
      add_values prog st xs;
      end_set prog st);
    if st.fits then feed prog st rest

let load prog st binding =
  begin_load prog st;
  feed prog st binding;
  finish_load prog st

(* ---- run ----------------------------------------------------------------- *)

let run st =
  let ssteps = st.ssteps in
  let digits = st.digits and idxs = st.idxs and args = st.args in
  for si = 0 to Array.length ssteps - 1 do
    match ssteps.(si) with
    | SGather g ->
      let src = g.src and dst = g.dst in
      let slots = g.slots and slot_strides = g.slot_strides in
      let out_cards = g.out_cards and out_strides = g.out_strides in
      let base = ref 0 in
      for k = 0 to Array.length slots - 1 do
        base := !base + (args.(slots.(k)) * slot_strides.(k))
      done;
      let nd = Array.length out_cards in
      Array.fill digits 0 nd 0;
      let isrc = ref !base in
      let n_out = g.n_out in
      let mask_pos = g.mask_pos and gmasks = g.gmasks in
      let nmask = Array.length mask_pos in
      if nmask = 0 then
        for j = 0 to n_out - 1 do
          dst.(j) <- src.(!isrc);
          if j < n_out - 1 then begin
            let c = ref (nd - 1) in
            let carry = ref true in
            while !carry do
              let d = digits.(!c) + 1 in
              if d = out_cards.(!c) then begin
                digits.(!c) <- 0;
                isrc := !isrc - ((out_cards.(!c) - 1) * out_strides.(!c));
                decr c
              end
              else begin
                digits.(!c) <- d;
                isrc := !isrc + out_strides.(!c);
                carry := false
              end
            done
          end
        done
      else
        (* Masked-out entries are written as exact 0.0 — the compiled
           form of {!Factor.observe_mask}; no arithmetic happens, so the
           copy is bit-identical to the generic engine's zeroed
           factor. *)
        for j = 0 to n_out - 1 do
          let allowed = ref true in
          for k = 0 to nmask - 1 do
            if not gmasks.(k).(digits.(mask_pos.(k))) then allowed := false
          done;
          dst.(j) <- (if !allowed then src.(!isrc) else 0.0);
          if j < n_out - 1 then begin
            let c = ref (nd - 1) in
            let carry = ref true in
            while !carry do
              let d = digits.(!c) + 1 in
              if d = out_cards.(!c) then begin
                digits.(!c) <- 0;
                isrc := !isrc - ((out_cards.(!c) - 1) * out_strides.(!c));
                decr c
              end
              else begin
                digits.(!c) <- d;
                isrc := !isrc + out_strides.(!c);
                carry := false
              end
            done
          end
        done
    | SContract cn ->
      Selest_obs.Hotpath.kernel ~entries:cn.usize ~out:cn.out_size;
      let out = cn.out and datas = cn.datas in
      let ucards = cn.ucards and op_strides = cn.op_strides in
      let out_stride = cn.out_stride in
      let usize = cn.usize in
      let k = Array.length datas in
      let n = Array.length ucards in
      Array.fill out 0 cn.out_size 0.0;
      Array.fill digits 0 n 0;
      Array.fill idxs 0 k 0;
      let iout = ref 0 in
      for u = 0 to usize - 1 do
        let prod = ref datas.(0).(idxs.(0)) in
        for j = 1 to k - 1 do
          prod := !prod *. datas.(j).(idxs.(j))
        done;
        out.(!iout) <- out.(!iout) +. !prod;
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
      done
  done;
  (* Read-out: Kahan total per surviving buffer ({!Selest_util.Arrayx.sum}
     inlined), product folded left from 1.0 — the [total_of] of [Ve.run]. *)
  let finals = st.sfinals in
  let acc = ref 1.0 in
  for fi = 0 to Array.length finals - 1 do
    let a = finals.(fi) in
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let y = a.(i) -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t
    done;
    acc := !acc *. !s
  done;
  st.result.(0) <- !acc

let result st = st.result.(0)
