(* Bind the library-internal bytecode executor before [open Selest_db]
   shadows the name with the database executor. *)
module Bytecode = Exec

open Selest_db
open Selest_bn
module Model = Selest_prm.Model

(* ---- upward closure (Def. 3.3) ------------------------------------------

   The skeleton-shaped part of the online phase, computed once per
   compiled plan: the closure's tuple variables with their tables, its
   joins, and the network's nodes.  Tuple variables are indices — the
   query's own first, then each parent the closure adds, in insertion
   order.  Node ids: needed attributes in the order the closure first
   needs them (the selected ones first, in (tuple variable, attribute)
   order), then join indicators in join order. *)

type network = {
  tv_names : string array;
  tv_tables : int array;  (* table index per tuple variable *)
  needed : (int * int) array;  (* attribute node -> (tv, attr) *)
  joins : (int * int * int) array;
      (* (child tv, fk index, parent tv); join j is node
         [Array.length needed + j] *)
  attr_nodes : int array array;  (* tv -> attr idx -> node, -1 when not needed *)
}

(* One closure tuple variable while the closure grows. *)
type tv_state = {
  name : string;
  table : int;
  nodes : int array;  (* attr idx -> node, -1 until needed *)
  joined : bool array;  (* fk idx -> its join's parents required *)
}

let tv_index names tv =
  let rec find i =
    if i >= Array.length names then -1
    else if String.equal names.(i) tv then i
    else find (i + 1)
  in
  find 0

let compute_network (prm : Model.t) q =
  let schema = prm.Model.schema in
  let tables = Schema.tables schema in
  let placeholder = { name = ""; table = 0; nodes = [||]; joined = [||] } in
  let tvs = ref (Array.make 4 placeholder) and n_tv = ref 0 in
  let add_tv name table =
    if !n_tv = Array.length !tvs then
      tvs := Array.append !tvs (Array.make !n_tv placeholder);
    let ts = tables.(table) in
    !tvs.(!n_tv) <-
      {
        name;
        table;
        nodes = Array.make (Array.length ts.Schema.attrs) (-1);
        joined = Array.make (Array.length ts.Schema.fks) false;
      };
    incr n_tv;
    !n_tv - 1
  in
  List.iter (fun (tv, tbl) -> ignore (add_tv tv (Schema.table_index schema tbl))) q.Query.tvars;
  let tv_of name =
    let rec find i =
      if i >= !n_tv then raise Not_found
      else if String.equal !tvs.(i).name name then i
      else find (i + 1)
    in
    find 0
  in
  (* joins in insertion order (a short list) *)
  let joins =
    ref
      (List.map
         (fun j ->
           let c = tv_of j.Query.child_tv in
           (c, Schema.fk_index tables.(!tvs.(c).table) j.Query.fk, tv_of j.Query.parent_tv))
         q.Query.joins)
  in
  let needed = ref [] and n_needed = ref 0 in
  let worklist = Queue.create () in
  let need tv attr =
    let st = !tvs.(tv) in
    if st.nodes.(attr) < 0 then begin
      st.nodes.(attr) <- !n_needed;
      incr n_needed;
      needed := (tv, attr) :: !needed;
      Queue.add (tv, attr) worklist
    end
  in
  let require_join_parents ctv fk ptv =
    let st = !tvs.(ctv) in
    if not st.joined.(fk) then begin
      st.joined.(fk) <- true;
      Array.iter
        (function Model.Own a -> need ctv a | Model.Foreign (_, b) -> need ptv b)
        prm.Model.tables.(st.table).Model.join_families.(fk).Model.parents
    end
  in
  (* The parent tuple variable of [tv]'s foreign key [fk], creating a
     fresh one when the closure has no such join yet. *)
  let ensure_join tv fk =
    match List.find_opt (fun (c, f, _) -> c = tv && f = fk) !joins with
    | Some (_, _, ptv) ->
      require_join_parents tv fk ptv;
      ptv
    | None ->
      let st = !tvs.(tv) in
      let fk_schema = tables.(st.table).Schema.fks.(fk) in
      let fresh =
        add_tv (st.name ^ "__" ^ fk_schema.Schema.fkname)
          (Schema.table_index schema fk_schema.Schema.target)
      in
      joins := !joins @ [ (tv, fk, fresh) ];
      require_join_parents tv fk fresh;
      fresh
  in
  (* Seeds: selected attributes in (tuple variable, attribute) order,
     whatever order the selects name them in, so every ordering of one
     skeleton numbers its network alike; then the indicators of the
     query's own joins (a join with no selects still constrains the
     result size).  Each select is one int key [tv * stride + attr]. *)
  let stride =
    1 + Array.fold_left (fun m ts -> max m (Array.length ts.Schema.attrs)) 0 tables
  in
  let seeds = Array.make (List.length q.Query.selects) 0 in
  List.iteri
    (fun i s ->
      let tv = tv_of s.Query.sel_tv in
      seeds.(i) <-
        (tv * stride) + Schema.attr_index tables.(!tvs.(tv).table) s.Query.sel_attr)
    q.Query.selects;
  Array.sort Int.compare seeds;
  Array.iter (fun key -> need (key / stride) (key mod stride)) seeds;
  List.iter (fun (c, fk, p) -> require_join_parents c fk p) !joins;
  (* Fixpoint: pull in ancestors, materializing joins for cross-table
     parents. *)
  while not (Queue.is_empty worklist) do
    let tv, attr = Queue.pop worklist in
    Array.iter
      (function
        | Model.Own b -> need tv b
        | Model.Foreign (f, b) -> need (ensure_join tv f) b)
      prm.Model.tables.(!tvs.(tv).table).Model.attr_families.(attr).Model.parents
  done;
  let tvs = Array.sub !tvs 0 !n_tv in
  {
    tv_names = Array.map (fun st -> st.name) tvs;
    tv_tables = Array.map (fun st -> st.table) tvs;
    needed = Array.of_list (List.rev !needed);
    joins = Array.of_list !joins;
    attr_nodes = Array.map (fun st -> st.nodes) tvs;
  }

(* ---- skeleton keys -------------------------------------------------------- *)

let skeleton_key q =
  let tvars = List.map (fun (tv, tbl) -> tv ^ ":" ^ tbl) q.Query.tvars in
  let joins =
    List.map
      (fun j -> j.Query.child_tv ^ "." ^ j.Query.fk ^ "=" ^ j.Query.parent_tv)
      q.Query.joins
  in
  let sels =
    List.sort_uniq compare
      (List.map (fun s -> s.Query.sel_tv ^ "." ^ s.Query.sel_attr) q.Query.selects)
  in
  String.concat ";" tvars ^ "|" ^ String.concat ";" joins ^ "|"
  ^ String.concat ";" sels

(* ---- the compiled plan ----------------------------------------------------- *)

type binding = (int * Query.pred) list

type t = {
  fingerprint : string;
  query : Query.t;  (* the compile query: {!skeleton} renders its key on demand *)
  schema : Schema.t;
  net : network;
  factors : Selest_prob.Factor.t list;  (* network construction order *)
  shapes : (int array * int array) list;  (* each factor's (vars, cards) *)
  scratch_slots : int array array;
      (* query tv position in name order -> attr idx -> node, -1 when
         unselectable: {!execute_scratch}'s interned-id table *)
  join_evidence : binding;  (* every closure join indicator = true *)
  (* Schedules are memoized per restricted-variable set: a binding's [Eq]
     (or singleton-mask) predicates drop those variables from the factor
     scopes, and the restricted shapes are all the planner sees. *)
  schedules : (string, Ve.Schedule.t) Hashtbl.t;
  (* Compiled bytecode programs, one per restricted-variable set (same
     key space as [schedules]).  The immutable assoc list is scanned
     lock-free on the hot path — [Bytecode.load] itself is the key test —
     and replaced under [mutex] on a miss. *)
  mutable programs : (string * Bytecode.program) list;
  mutex : Mutex.t;
  mutable scale_memo : scale_memo;  (* [scale] for the last [sizes] it saw *)
}

and scale_memo = { for_sizes : int array; value : float }

let skeleton t = skeleton_key t.query
let query t = t.query
let fingerprint t = t.fingerprint
let factors t = t.factors
let join_evidence t = t.join_evidence

(* "tv.Attr" for an attribute node, "tv.fk=ptv" for a join indicator:
   rendered only for {!pp}. *)
let node_name t node =
  let tables = Schema.tables t.schema in
  let net = t.net in
  let n_attr = Array.length net.needed in
  if node < n_attr then
    let tv, attr = net.needed.(node) in
    net.tv_names.(tv) ^ "." ^ tables.(net.tv_tables.(tv)).Schema.attrs.(attr).Schema.aname
  else
    let ctv, fk, ptv = net.joins.(node - n_attr) in
    net.tv_names.(ctv) ^ "."
    ^ tables.(net.tv_tables.(ctv)).Schema.fks.(fk).Schema.fkname
    ^ "=" ^ net.tv_names.(ptv)

(* The closure's tuple variables with their table names, and its joins
   by name, in closure order. *)
let closure_tables t =
  let tables = Schema.tables t.schema in
  Array.to_list
    (Array.mapi (fun i tv -> (tv, tables.(t.net.tv_tables.(i)).Schema.tname)) t.net.tv_names)

let closure_joins t =
  let tables = Schema.tables t.schema and net = t.net in
  Array.to_list
    (Array.map
       (fun (c, fk, p) ->
         ( net.tv_names.(c),
           tables.(net.tv_tables.(c)).Schema.fks.(fk).Schema.fkname,
           net.tv_names.(p) ))
       net.joins)

let upward_closure t q =
  let joins =
    List.map
      (fun (child, fk, parent) -> Query.join ~child ~fk ~parent)
      (closure_joins t)
  in
  Query.create ~tvars:(closure_tables t) ~joins ~selects:q.Query.selects ()

(* Computed once per plan: the memo is one immutable record swung in a
   single store, so a concurrent reader sees a consistent pair. *)
let scale t ~sizes =
  let m = t.scale_memo in
  if m.for_sizes == sizes then m.value
  else begin
    let value =
      Array.fold_left (fun acc ti -> acc *. float_of_int sizes.(ti)) 1.0 t.net.tv_tables
    in
    t.scale_memo <- { for_sizes = sizes; value };
    value
  end

let bind t q =
  let net = t.net in
  List.map
    (fun s ->
      let tv = tv_index net.tv_names s.Query.sel_tv in
      if tv < 0 then
        invalid_arg
          (Printf.sprintf "Plan.bind: no slot for tuple variable %S" s.Query.sel_tv);
      let attr =
        Schema.attr_index (Schema.tables t.schema).(net.tv_tables.(tv)) s.Query.sel_attr
      in
      let node = net.attr_nodes.(tv).(attr) in
      if node < 0 then
        invalid_arg
          (Printf.sprintf "Plan.bind: no slot for %s.%s (different skeleton)"
             s.Query.sel_tv s.Query.sel_attr);
      (node, s.Query.pred))
    q.Query.selects

(* The scratch's [k]-th select names its attribute by (tv position in
   name order, attr idx) — ids [compile] already resolved — so its node
   is two array reads. *)
let scratch_node t s k =
  let pos = Squery.sel_tv s k and attr = Squery.sel_attr s k in
  let node =
    if pos < Array.length t.scratch_slots && attr < Array.length t.scratch_slots.(pos)
    then t.scratch_slots.(pos).(attr)
    else -1
  in
  if node < 0 then invalid_arg "Plan.execute_scratch: no slot (different skeleton)";
  node

(* ---- schedule memo --------------------------------------------------------- *)

let sched_key restricted = String.concat "," (List.map string_of_int restricted)

(* The schedule for a restricted-variable set, planned on the factor
   shapes that set leaves (nothing is sliced) and memoized. *)
let schedule_for t restricted =
  let key = sched_key restricted in
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.schedules key in
  Mutex.unlock t.mutex;
  match r with
  | Some sched -> sched
  | None ->
    let sched =
      Ve.Schedule.of_shapes ~keep:[||] ~restricted:(Array.of_list restricted) t.shapes
    in
    Mutex.lock t.mutex;
    if not (Hashtbl.mem t.schedules key) then Hashtbl.add t.schedules key sched;
    Mutex.unlock t.mutex;
    sched

(* ---- compiled bytecode programs --------------------------------------------- *)

(* A binding that names a join indicator explicitly would collide with
   the program's static slots, so {!execute} rejects it.  Top-level
   recursion (not a closure) so a warm execute allocates nothing while
   checking. *)
let rec no_join_nodes join_ev = function
  | [] -> true
  | (v, _) :: rest -> (not (List.mem_assoc v join_ev)) && no_join_nodes join_ev rest

let count_allowed mask =
  Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 mask

let program_add t key prog =
  Mutex.lock t.mutex;
  let r =
    match List.assoc_opt key t.programs with
    | Some existing -> existing
    | None ->
      t.programs <- (key, prog) :: t.programs;
      prog
  in
  Mutex.unlock t.mutex;
  r

let program_for t binding =
  if not (no_join_nodes t.join_evidence binding) then None
  else
    (* Classify the binding's evidence shape by its merged allowed-value
       masks: one allowed value restricts (a value slot), two or more —
       including a full-domain mask — carry a mask slot.  The program key
       is the (value nodes, mask nodes) partition, so every range/set
       shape of a skeleton compiles exactly once. *)
    match Ve.merged_masks t.factors (binding @ t.join_evidence) with
    | None -> None (* contradictory binding: execute answers 0 without one *)
    | Some merged -> (
      let eq = ref [] and mask = ref [] in
      List.iter
        (fun (v, m) ->
          if not (List.mem_assoc v t.join_evidence) then
            if count_allowed m = 1 then eq := v :: !eq else mask := v :: !mask)
        merged;
      let slots = List.sort compare !eq in
      let masked = List.sort compare !mask in
      let key =
        sched_key
          (List.sort_uniq compare (slots @ List.map fst t.join_evidence))
        ^ "/" ^ sched_key masked
      in
      Mutex.lock t.mutex;
      let existing = List.assoc_opt key t.programs in
      Mutex.unlock t.mutex;
      match existing with
      | Some prog -> Some prog
      | None ->
        (* Compile the program for this binding's shape against the
           memoized schedule (keyed by the restricted set alone: masked
           dimensions keep their factor shapes). *)
        let sched = schedule_for t (Ve.restricted_of_masks merged) in
        let static =
          List.map
            (fun (node, pred) ->
              match pred with Query.Eq x -> (node, x) | _ -> assert false)
            t.join_evidence
        in
        let prog =
          Bytecode.compile ~factors:t.factors ~slots ~masked ~static
            ~order:sched.Ve.Schedule.order
        in
        Some (program_add t key prog))

(* ---- bind / execute ---------------------------------------------------------- *)

(* The two traced stages: [exec.load] (find the program whose shape the
   evidence fits — compiling it on a memo miss — and write the evidence
   into its slots) and [exec.run] (contractions and read-out).  [load]
   is the span still open when the evidence has loaded. *)
let run_loaded load st =
  let sp = Selest_obs.Span.next load "exec.run" in
  Bytecode.run st;
  let r = Bytecode.result st in
  Selest_obs.Span.exit sp;
  r

(* No program fits: compile one for the binding's restricted set
   (counted as a memo miss), then run it.  Memo accounting lands on the
   domain-local {!Selest_obs.Hotpath} counters only: a request takes no
   lock to count itself. *)
let execute_slow t load binding =
  match program_for t binding with
  | None -> Selest_obs.Span.exit load; 0.0 (* contradictory: empty event *)
  | Some prog -> (
    Selest_obs.Hotpath.program_miss ();
    let st = Bytecode.state_for prog in
    match Bytecode.load prog st binding with
    | `Ok -> run_loaded load st
    | `Contradiction -> Selest_obs.Span.exit load; 0.0
    | `No_match ->
      invalid_arg "Plan.execute: binding does not fit its own compiled program")

(* The evidence sources: a binding list, or a canonical scratch written
   select by select into the same evidence writer. *)
let load_binding _ prog st binding = Bytecode.load prog st binding

let load_scratch t prog st s =
  Bytecode.begin_load prog st;
  for k = 0 to Squery.n_selects s - 1 do
    let node = scratch_node t s k in
    match Squery.sel_kind s k with
    | 0 -> Bytecode.write_eq prog st node (Squery.sel_lo s k)
    | 1 -> Bytecode.write_range prog st node (Squery.sel_lo s k) (Squery.sel_hi s k)
    | _ ->
      Bytecode.begin_set prog st node;
      let o = Squery.sel_lo s k in
      for i = o to o + Squery.sel_hi s k - 1 do
        Bytecode.add_set prog st (Squery.pool s i)
      done;
      Bytecode.end_set prog st
  done;
  Bytecode.finish_load prog st

(* The scratch's binding list, only to compile a shape no program fits. *)
let binding_of_scratch t s =
  List.init (Squery.n_selects s) (fun k -> (scratch_node t s k, Squery.sel_pred s k))

let same_binding _ binding = binding

(* Try each compiled program in turn.  The loader and the fallback are
   top-level functions, so a warm execute builds no closure. *)
let rec execute_scan t load loader to_binding src progs =
  match progs with
  | [] -> execute_slow t load (to_binding t src)
  | (_, prog) :: rest -> (
    let st = Bytecode.state_for prog in
    match loader t prog st src with
    | `Ok ->
      Selest_obs.Hotpath.program_hit ();
      run_loaded load st
    | `Contradiction -> Selest_obs.Span.exit load; 0.0 (* no buffer touched *)
    | `No_match -> execute_scan t load loader to_binding src rest)

let execute_from t loader to_binding src =
  let load = Selest_obs.Span.enter "exec.load" in
  (* [Bytecode.run] never raises, so an exception here left [load] open *)
  match execute_scan t load loader to_binding src t.programs with
  | r -> r
  | exception e ->
    Selest_obs.Span.exit load;
    raise e

let execute t binding =
  if not (no_join_nodes t.join_evidence binding) then
    invalid_arg "Plan.execute: binding names a join indicator";
  execute_from t load_binding same_binding binding

let execute_scratch t s = execute_from t load_scratch binding_of_scratch s

(* A shallow copy: [programs] is a mutable field, so the copy's memo
   misses extend the copy's list and never the original's. *)
let fork t = { t with programs = t.programs }

let estimate t ~sizes q = execute t (bind t q) *. scale t ~sizes

let steps t q =
  match Ve.merged_masks t.factors (bind t q @ t.join_evidence) with
  | None -> []
  | Some merged -> (schedule_for t (Ve.restricted_of_masks merged)).Ve.Schedule.steps

(* ---- compile ------------------------------------------------------------------ *)

(* [f] with its [i]-th variable renamed [nodes.(i)]: the scope re-sorted
   by the new ids and the table re-laid out to match with one strided
   odometer pass.  Every cell is copied, none recomputed. *)
let relabel f nodes =
  let vars = Selest_prob.Factor.unsafe_vars f in
  let cards = Selest_prob.Factor.unsafe_cards f in
  let src = Selest_prob.Factor.unsafe_data f in
  let k = Array.length vars in
  if Array.length nodes <> k then invalid_arg "Plan.relabel: one node per variable";
  (* source dims in ascending new-id order (insertion sort: k is tiny) *)
  let perm = Array.init k Fun.id in
  for i = 1 to k - 1 do
    let d = perm.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && nodes.(perm.(!j)) > nodes.(d) do
      perm.(!j + 1) <- perm.(!j);
      decr j
    done;
    perm.(!j + 1) <- d
  done;
  let src_strides = Array.make k 1 in
  for i = k - 2 downto 0 do
    src_strides.(i) <- src_strides.(i + 1) * cards.(i + 1)
  done;
  let out_vars = Array.make k 0 and out_cards = Array.make k 0 in
  let strides = Array.make k 0 in
  for i = 0 to k - 1 do
    out_vars.(i) <- nodes.(perm.(i));
    out_cards.(i) <- cards.(perm.(i));
    strides.(i) <- src_strides.(perm.(i))
  done;
  let n = Array.length src in
  let dst = Array.create_float n in
  let digits = Array.make k 0 in
  let isrc = ref 0 in
  for j = 0 to n - 1 do
    dst.(j) <- src.(!isrc);
    if j < n - 1 then begin
      let c = ref (k - 1) in
      while digits.(!c) + 1 = out_cards.(!c) do
        digits.(!c) <- 0;
        isrc := !isrc - ((out_cards.(!c) - 1) * strides.(!c));
        decr c
      done;
      digits.(!c) <- digits.(!c) + 1;
      isrc := !isrc + strides.(!c)
    end
  done;
  (* [Factor.create] rejects a non-injective renaming (equal new ids) *)
  Selest_prob.Factor.create ~vars:out_vars ~cards:out_cards dst

let compile prm q =
  Selest_obs.Span.with_ "plan.compile" (fun _ ->
      let schema = prm.Model.schema in
      let net = compute_network prm q in
      let n_attr = Array.length net.needed in
      let attr_node tv attr =
        let node = net.attr_nodes.(tv).(attr) in
        if node < 0 then invalid_arg "Plan: closure missed a parent node (internal error)";
        node
      in
      let join_parent tv f =
        let rec find j =
          let ctv, fk, ptv = net.joins.(j) in
          if ctv = tv && fk = f then ptv else find (j + 1)
        in
        find 0
      in
      (* Each family's table, tabulated once per model over local ids,
         relabelled into node ids.  Its local ids sort as the family's
         parents (in local-id order) with the child inserted: an
         attribute child after the own attributes below it, a join
         indicator (the largest local id) last. *)
      let family_factor table ~child_pos ~child_node parents parent_node =
        let np = Array.length parents in
        let nodes = Array.make (np + 1) child_node in
        Array.iteri
          (fun i p -> nodes.(if i < child_pos then i else i + 1) <- parent_node p)
          parents;
        relabel table nodes
      in
      (* Factors, in the order the network construction has always used
         (each family's factor is consed on, so the list ends up
         reversed) — preserved exactly for bit-identity with the
         pre-plan pipeline. *)
      let factors = ref [] in
      Array.iteri
        (fun node (tv, attr) ->
          let ti = net.tv_tables.(tv) in
          let parents = prm.Model.tables.(ti).Model.attr_families.(attr).Model.parents in
          let child_pos =
            Array.fold_left
              (fun n p -> match p with Model.Own b when b < attr -> n + 1 | _ -> n)
              0 parents
          in
          let parent_node = function
            | Model.Own b -> attr_node tv b
            | Model.Foreign (f, b) -> attr_node (join_parent tv f) b
          in
          factors :=
            family_factor (Model.attr_table prm ti attr) ~child_pos ~child_node:node parents
              parent_node
            :: !factors)
        net.needed;
      Array.iteri
        (fun j (ctv, fk, ptv) ->
          let ti = net.tv_tables.(ctv) in
          let parents = prm.Model.tables.(ti).Model.join_families.(fk).Model.parents in
          let parent_node = function
            | Model.Own a -> attr_node ctv a
            | Model.Foreign (_, b) -> attr_node ptv b
          in
          factors :=
            family_factor (Model.join_table prm ti fk) ~child_pos:(Array.length parents)
              ~child_node:(n_attr + j) parents parent_node
            :: !factors)
        net.joins;
      let factors = !factors in
      let scratch_slots =
        List.sort compare (List.map fst q.Query.tvars)
        |> List.map (fun name -> net.attr_nodes.(tv_index net.tv_names name))
        |> Array.of_list
      in
      let t =
        {
          fingerprint = Model.fingerprint prm;
          query = q;
          schema;
          net;
          factors;
          shapes =
            List.map
              (fun f ->
                (Selest_prob.Factor.unsafe_vars f, Selest_prob.Factor.unsafe_cards f))
              factors;
          scratch_slots;
          join_evidence = List.init (Array.length net.joins) (fun j -> (n_attr + j, Query.Eq 1));
          schedules = Hashtbl.create 4;
          programs = [];
          mutex = Mutex.create ();
          scale_memo = { for_sizes = [||]; value = 1.0 };
        }
      in
      (* Seed the schedule memo and the compiled bytecode program with
         the compile query's own binding shape, so the first execute of
         the skeleton's common form is already a memo hit on the
         zero-allocation fast path.  A contradictory compile query has
         nothing to schedule (execute answers 0 without eliminating). *)
      ignore (program_for t (bind t q));
      t)

(* ---- pretty-printing -------------------------------------------------------- *)

let pp fmt t =
  Format.fprintf fmt "plan %s@." (skeleton t);
  Format.fprintf fmt "  model fingerprint: %s@." t.fingerprint;
  Format.fprintf fmt "  closure tables:";
  List.iter (fun (tv, tbl) -> Format.fprintf fmt " %s:%s" tv tbl) (closure_tables t);
  Format.pp_print_newline fmt ();
  if t.net.joins <> [||] then begin
    Format.fprintf fmt "  joins:";
    List.iter
      (fun (ctv, fk, ptv) -> Format.fprintf fmt " %s.%s=%s" ctv fk ptv)
      (closure_joins t);
    Format.pp_print_newline fmt ()
  end;
  Format.fprintf fmt "  factors (%d):" (List.length t.factors);
  List.iter
    (fun f ->
      let cards = Selest_prob.Factor.cards f in
      Format.fprintf fmt " %s"
        (String.concat "x"
           (Array.to_list (Array.map string_of_int cards))))
    t.factors;
  Format.pp_print_newline fmt ();
  Format.fprintf fmt "  binding slots:";
  Array.iteri
    (fun node _ -> Format.fprintf fmt " %s->%d" (node_name t node) node)
    t.net.needed;
  Format.pp_print_newline fmt ();
  Format.fprintf fmt "  join evidence:";
  List.iter
    (fun (node, _) -> Format.fprintf fmt " %s" (node_name t node))
    t.join_evidence;
  Format.pp_print_newline fmt ();
  Mutex.lock t.mutex;
  let scheds =
    Hashtbl.fold (fun key sched acc -> (key, sched) :: acc) t.schedules []
  in
  Mutex.unlock t.mutex;
  List.iter
    (fun (key, sched) ->
      Format.fprintf fmt "  schedule [restrict %s]: %a (var:entries)@."
        (if key = "" then "-" else key)
        Ve.Schedule.pp sched)
    (List.sort compare scheds)
