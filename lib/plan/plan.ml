(* Bind the library-internal bytecode executor before [open Selest_db]
   shadows the name with the database executor. *)
module Bytecode = Exec

open Selest_db
open Selest_bn
module Model = Selest_prm.Model

(* ---- upward closure (Def. 3.3) ------------------------------------------

   Tuple variables with their tables, joins as (child_tv, fk index,
   parent_tv), and the needed (tv, attr) set — the skeleton-shaped part
   of the online phase, computed once per compiled plan. *)

type closure = {
  c_tvars : (string * int) list;  (* tv -> table index, in insertion order *)
  c_joins : (string * int * string) list;
  c_needed : (string * int) list;  (* needed attribute nodes *)
}

let compute_closure (prm : Model.t) q =
  let schema = prm.Model.schema in
  let tables = Schema.tables schema in
  let tvars =
    ref
      (List.map
         (fun (tv, tbl) -> (tv, Schema.table_index schema tbl))
         q.Query.tvars)
  in
  let joins =
    ref
      (List.map
         (fun j ->
           let ti = List.assoc j.Query.child_tv !tvars in
           let fk = Schema.fk_index tables.(ti) j.Query.fk in
           (j.Query.child_tv, fk, j.Query.parent_tv))
         q.Query.joins)
  in
  let needed = Hashtbl.create 32 in
  let needed_order = ref [] in
  let worklist = Queue.create () in
  let need tv attr =
    if not (Hashtbl.mem needed (tv, attr)) then begin
      Hashtbl.add needed (tv, attr) ();
      needed_order := (tv, attr) :: !needed_order;
      Queue.add (tv, attr) worklist
    end
  in
  let processed_joins = Hashtbl.create 8 in
  (* Ensure a join (tv, fk) exists, creating a fresh parent tuple variable
     when the query does not already contain one; returns the parent tv and
     registers the join indicator's own parent requirements. *)
  let rec ensure_join tv fk =
    let ti = List.assoc tv !tvars in
    match List.find_opt (fun (ctv, f, _) -> ctv = tv && f = fk) !joins with
    | Some (_, _, ptv) ->
      require_join_parents tv ti fk ptv;
      ptv
    | None ->
      let fk_schema = tables.(ti).Schema.fks.(fk) in
      let target_ti = Schema.table_index schema fk_schema.Schema.target in
      let fresh = tv ^ "__" ^ fk_schema.Schema.fkname in
      tvars := !tvars @ [ (fresh, target_ti) ];
      joins := !joins @ [ (tv, fk, fresh) ];
      require_join_parents tv ti fk fresh;
      fresh

  and require_join_parents ctv ti fk ptv =
    if not (Hashtbl.mem processed_joins (ctv, fk)) then begin
      Hashtbl.add processed_joins (ctv, fk) ();
      let jfam = prm.Model.tables.(ti).Model.join_families.(fk) in
      Array.iter
        (fun p ->
          match p with
          | Model.Own a -> need ctv a
          | Model.Foreign (_, b) -> need ptv b)
        jfam.Model.parents
    end
  in
  (* Seeds: selected attributes, plus the indicators of the query's own
     joins (a join with no selects still constrains the result size). *)
  List.iter
    (fun s ->
      let ti = List.assoc s.Query.sel_tv !tvars in
      need s.Query.sel_tv (Schema.attr_index tables.(ti) s.Query.sel_attr))
    q.Query.selects;
  List.iter
    (fun (ctv, fk, ptv) ->
      let ti = List.assoc ctv !tvars in
      require_join_parents ctv ti fk ptv)
    !joins;
  (* Fixpoint: pull in ancestors, materializing joins for cross-table
     parents. *)
  while not (Queue.is_empty worklist) do
    let tv, attr = Queue.pop worklist in
    let ti = List.assoc tv !tvars in
    let fam = prm.Model.tables.(ti).Model.attr_families.(attr) in
    Array.iter
      (fun p ->
        match p with
        | Model.Own b -> need tv b
        | Model.Foreign (f, b) ->
          let ptv = ensure_join tv f in
          need ptv b)
      fam.Model.parents
  done;
  { c_tvars = !tvars; c_joins = !joins; c_needed = List.rev !needed_order }

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
  skeleton : string;
  schema : Schema.t;
  closure : closure;
  factors : Selest_prob.Factor.t list;  (* network construction order *)
  node_of_attr : (string * int, int) Hashtbl.t;  (* (tv, attr idx) -> node *)
  node_names : string array;  (* node id -> "tv.Attr" / "tv.fk=ptv" *)
  join_evidence : binding;  (* every closure join indicator = true *)
  (* Schedules are memoized per restricted-variable set: a binding's [Eq]
     (or singleton-mask) predicates slice those variables out of the
     factors, and the restricted shapes are all the planner sees. *)
  schedules : (string, Ve.Schedule.t) Hashtbl.t;
  (* Compiled bytecode programs, one per restricted-variable set (same
     key space as [schedules]).  The immutable assoc list is scanned
     lock-free on the hot path — [Bytecode.load] itself is the key test —
     and replaced under [mutex] on a miss. *)
  mutable programs : (string * Bytecode.program) list;
  mutex : Mutex.t;
}

let skeleton t = t.skeleton
let fingerprint t = t.fingerprint
let factors t = t.factors
let join_evidence t = t.join_evidence

let closure_tables t =
  let tables = Schema.tables t.schema in
  List.map (fun (tv, ti) -> (tv, tables.(ti).Schema.tname)) t.closure.c_tvars

let upward_closure t q =
  let tables = Schema.tables t.schema in
  let tvars =
    List.map (fun (tv, ti) -> (tv, tables.(ti).Schema.tname)) t.closure.c_tvars
  in
  let joins =
    List.map
      (fun (ctv, fk, ptv) ->
        let ti = List.assoc ctv t.closure.c_tvars in
        Query.join ~child:ctv ~fk:tables.(ti).Schema.fks.(fk).Schema.fkname
          ~parent:ptv)
      t.closure.c_joins
  in
  Query.create ~tvars ~joins ~selects:q.Query.selects ()

let scale t ~sizes =
  List.fold_left
    (fun acc (_, ti) -> acc *. float_of_int sizes.(ti))
    1.0 t.closure.c_tvars

let bind t q =
  List.map
    (fun s ->
      let ti =
        match List.assoc_opt s.Query.sel_tv t.closure.c_tvars with
        | Some ti -> ti
        | None ->
          invalid_arg
            (Printf.sprintf "Plan.bind: no slot for tuple variable %S"
               s.Query.sel_tv)
      in
      let attr = Schema.attr_index (Schema.tables t.schema).(ti) s.Query.sel_attr in
      match Hashtbl.find_opt t.node_of_attr (s.Query.sel_tv, attr) with
      | Some node -> (node, s.Query.pred)
      | None ->
        invalid_arg
          (Printf.sprintf "Plan.bind: no slot for %s.%s (different skeleton)"
             s.Query.sel_tv s.Query.sel_attr))
    q.Query.selects

(* ---- schedule memo --------------------------------------------------------- *)

let sched_key restricted = String.concat "," (List.map string_of_int restricted)

let sched_find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.schedules key in
  Mutex.unlock t.mutex;
  r

let sched_add t key entry =
  Mutex.lock t.mutex;
  if not (Hashtbl.mem t.schedules key) then Hashtbl.add t.schedules key entry;
  Mutex.unlock t.mutex

let schedule_of t prep =
  let key = sched_key (Ve.restricted_vars prep) in
  match sched_find t key with
  | Some sched -> sched
  | None ->
    let sched = Ve.Schedule.plan ~keep:[||] (Ve.prepared_factors prep) in
    sched_add t key sched;
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
    | Some merged ->
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
      (match existing with
      | Some prog -> Some prog
      | None -> (
        (* Compile the program for this binding's shape against the
           memoized schedule (keyed by the restricted set alone: masked
           dimensions keep their factor shapes). *)
        match Ve.prepare t.factors (binding @ t.join_evidence) with
        | None -> None
        | Some prep ->
          let sched = schedule_of t prep in
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
          Some (program_add t key prog)))

(* ---- compile / bind / execute ---------------------------------------------- *)

let execute_generic t binding =
  match Ve.prepare t.factors (binding @ t.join_evidence) with
  | None -> 0.0 (* contradictory binding: the event is empty *)
  | Some prep -> Ve.run prep ~order:(schedule_of t prep).Ve.Schedule.order

(* Memo accounting lands on the domain-local {!Selest_obs.Hotpath}
   counters only: a request takes no lock to count itself. *)
let count_hit () =
  Selest_obs.Hotpath.order_hit ();
  Selest_obs.Hotpath.program_hit ()

let count_miss () =
  Selest_obs.Hotpath.order_miss ();
  Selest_obs.Hotpath.program_miss ()

(* The two traced stages: [exec.load] (find the binding's program —
   compiling it on a memo miss — and write its evidence slots) and
   [exec.run] (contractions and read-out).  [load] is the span still
   open when the binding has loaded. *)
let run_loaded load st =
  let sp = Selest_obs.Span.next load "exec.run" in
  Bytecode.run st;
  let r = Bytecode.result st in
  Selest_obs.Span.exit sp;
  r

(* No program matched the binding: compile one for its restricted set
   (counted as a memo miss, like a fresh schedule), then run it. *)
let execute_slow t load binding =
  match program_for t binding with
  | None -> Selest_obs.Span.exit load; 0.0 (* contradictory: empty event *)
  | Some prog -> (
    count_miss ();
    let st = Bytecode.state_for prog in
    match Bytecode.load prog st binding with
    | `Ok -> run_loaded load st
    | `Contradiction -> Selest_obs.Span.exit load; 0.0
    | `No_match ->
      invalid_arg "Plan.execute: binding does not fit its own compiled program")

let rec execute_scan t load binding progs =
  match progs with
  | [] -> execute_slow t load binding
  | (_, prog) :: rest -> (
    let st = Bytecode.state_for prog in
    match Bytecode.load prog st binding with
    | `Ok ->
      count_hit ();
      run_loaded load st
    | `Contradiction -> Selest_obs.Span.exit load; 0.0 (* no buffer touched *)
    | `No_match -> execute_scan t load binding rest)

let execute t binding =
  if not (no_join_nodes t.join_evidence binding) then
    invalid_arg "Plan.execute: binding names a join indicator";
  let load = Selest_obs.Span.enter "exec.load" in
  (* [Bytecode.run] never raises, so an exception here left [load] open *)
  match execute_scan t load binding t.programs with
  | r -> r
  | exception e ->
    Selest_obs.Span.exit load;
    raise e

let estimate t ~sizes q = execute t (bind t q) *. scale t ~sizes

let steps t q =
  match Ve.prepare t.factors (bind t q @ t.join_evidence) with
  | None -> []
  | Some prep -> (schedule_of t prep).Ve.Schedule.steps

let compile prm q =
  Selest_obs.Span.with_ "plan.compile" (fun _ ->
      let schema = prm.Model.schema in
      let tables = Schema.tables schema in
      let c = compute_closure prm q in
      (* Node ids: needed attributes first, then join indicators. *)
      let node_ids = Hashtbl.create 32 in
      let next = ref 0 in
      List.iter
        (fun (tv, attr) ->
          Hashtbl.add node_ids (`Attr (tv, attr)) !next;
          incr next)
        c.c_needed;
      List.iter
        (fun (ctv, fk, _) ->
          Hashtbl.add node_ids (`Join (ctv, fk)) !next;
          incr next)
        c.c_joins;
      let attr_node tv attr =
        match Hashtbl.find_opt node_ids (`Attr (tv, attr)) with
        | Some id -> id
        | None ->
          invalid_arg "Plan: closure missed a parent node (internal error)"
      in
      (* Factors, in the order the network construction has always used
         (each family's factor is consed on, so the list ends up
         reversed) — preserved exactly for bit-identity with the
         pre-plan pipeline. *)
      let factors = ref [] in
      List.iter
        (fun (tv, attr) ->
          let ti = List.assoc tv c.c_tvars in
          let scope = Model.Scope.of_table schema ti in
          let fam = prm.Model.tables.(ti).Model.attr_families.(attr) in
          let parent_of_local = Hashtbl.create 8 in
          Array.iter
            (fun p ->
              let local = Model.Scope.local_id scope p in
              let node =
                match p with
                | Model.Own b -> attr_node tv b
                | Model.Foreign (f, b) ->
                  let _, _, ptv =
                    List.find (fun (ctv, f', _) -> ctv = tv && f' = f) c.c_joins
                  in
                  attr_node ptv b
              in
              Hashtbl.add parent_of_local local node)
            fam.Model.parents;
          let var_of local =
            if local = attr then attr_node tv attr
            else Hashtbl.find parent_of_local local
          in
          factors := Cpd.to_factor ~var_of ~child:attr fam.Model.cpd :: !factors)
        c.c_needed;
      List.iter
        (fun (ctv, fk, ptv) ->
          let ti = List.assoc ctv c.c_tvars in
          let scope = Model.Scope.of_table schema ti in
          let jfam = prm.Model.tables.(ti).Model.join_families.(fk) in
          let jid = Model.Scope.join_id scope fk in
          let parent_of_local = Hashtbl.create 8 in
          Array.iter
            (fun p ->
              let local = Model.Scope.local_id scope p in
              let node =
                match p with
                | Model.Own a -> attr_node ctv a
                | Model.Foreign (_, b) -> attr_node ptv b
              in
              Hashtbl.add parent_of_local local node)
            jfam.Model.parents;
          let var_of local =
            if local = jid then Hashtbl.find node_ids (`Join (ctv, fk))
            else Hashtbl.find parent_of_local local
          in
          factors := Cpd.to_factor ~var_of ~child:jid jfam.Model.cpd :: !factors)
        c.c_joins;
      (* Binding slots and human names for every node. *)
      let n_nodes = !next in
      let node_of_attr = Hashtbl.create 32 in
      let node_names = Array.make n_nodes "?" in
      List.iter
        (fun (tv, attr) ->
          let node = attr_node tv attr in
          let ti = List.assoc tv c.c_tvars in
          Hashtbl.replace node_of_attr (tv, attr) node;
          node_names.(node) <-
            tv ^ "." ^ tables.(ti).Schema.attrs.(attr).Schema.aname)
        c.c_needed;
      List.iter
        (fun (ctv, fk, ptv) ->
          let node = Hashtbl.find node_ids (`Join (ctv, fk)) in
          let ti = List.assoc ctv c.c_tvars in
          node_names.(node) <-
            ctv ^ "." ^ tables.(ti).Schema.fks.(fk).Schema.fkname ^ "=" ^ ptv)
        c.c_joins;
      let join_evidence =
        List.map
          (fun (ctv, fk, _) ->
            (Hashtbl.find node_ids (`Join (ctv, fk)), Query.Eq 1))
          c.c_joins
      in
      let t =
        {
          fingerprint = Model.fingerprint prm;
          skeleton = skeleton_key q;
          schema;
          closure = c;
          factors = !factors;
          node_of_attr;
          node_names;
          join_evidence;
          schedules = Hashtbl.create 4;
          programs = [];
          mutex = Mutex.create ();
        }
      in
      (* Seed the schedule memo — and the compiled bytecode program —
         with the compile query's own binding shape, so the first
         execute of the skeleton's common form is already a memo hit on
         the zero-allocation fast path.  A contradictory compile query
         has nothing to schedule (execute answers 0 without
         eliminating). *)
      let b0 = bind t q in
      (match Ve.prepare t.factors (b0 @ t.join_evidence) with
      | Some prep -> ignore (schedule_of t prep)
      | None -> ());
      ignore (program_for t b0);
      t)

(* ---- pretty-printing -------------------------------------------------------- *)

let pp fmt t =
  let tables = Schema.tables t.schema in
  Format.fprintf fmt "plan %s@." t.skeleton;
  Format.fprintf fmt "  model fingerprint: %s@." t.fingerprint;
  Format.fprintf fmt "  closure tables:";
  List.iter
    (fun (tv, ti) -> Format.fprintf fmt " %s:%s" tv tables.(ti).Schema.tname)
    t.closure.c_tvars;
  Format.pp_print_newline fmt ();
  if t.closure.c_joins <> [] then begin
    Format.fprintf fmt "  joins:";
    List.iter
      (fun (ctv, fk, ptv) ->
        let ti = List.assoc ctv t.closure.c_tvars in
        Format.fprintf fmt " %s.%s=%s" ctv
          tables.(ti).Schema.fks.(fk).Schema.fkname ptv)
      t.closure.c_joins;
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
  List.iter
    (fun (tv, attr) ->
      let node = Hashtbl.find t.node_of_attr (tv, attr) in
      Format.fprintf fmt " %s->%d" t.node_names.(node) node)
    t.closure.c_needed;
  Format.pp_print_newline fmt ();
  Format.fprintf fmt "  join evidence:";
  List.iter
    (fun (node, _) -> Format.fprintf fmt " %s" t.node_names.(node))
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
