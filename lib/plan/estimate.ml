open Selest_db
module Model = Selest_prm.Model

let upward_closure prm q = Plan.upward_closure (Plan.compile prm q) q

let prob prm q =
  let plan = Plan.compile prm q in
  Plan.execute plan (Plan.bind plan q)

let sizes_of_db db = Array.map Table.size (Database.tables db)

let estimate prm ~sizes q =
  Selest_obs.Span.with_ "prm.estimate" (fun sp ->
      let plan = Plan.compile prm q in
      if Selest_obs.Span.live sp then begin
        Selest_obs.Span.add sp "factors"
          (string_of_int (List.length (Plan.factors plan)));
        Selest_obs.Span.add sp "tvars"
          (String.concat ";" (List.map fst (Plan.closure_tables plan)))
      end;
      Plan.estimate plan ~sizes q)

(* ---- suite-oriented cached estimator ----------------------------------- *)

(* A query suite asks many instantiations of one skeleton: compile its
   plan once and execute it for every instantiation, as the server
   does. *)

let make_cached prm ~sizes =
  let cache : (string, Plan.t) Hashtbl.t = Hashtbl.create 16 in
  let plan_for q =
    let key = Plan.skeleton_key q in
    match Hashtbl.find_opt cache key with
    | Some plan -> plan
    | None ->
      let plan = Plan.compile prm q in
      Hashtbl.add cache key plan;
      plan
  in
  (plan_for, fun q -> Plan.estimate (plan_for q) ~sizes q)

let cached_estimator prm ~sizes = snd (make_cached prm ~sizes)

let prepared_estimator prm ~sizes =
  let plan_for, est = make_cached prm ~sizes in
  ((fun q -> ignore (plan_for q)), est)

(* ---- non-key equality joins (Sec. 6) ----------------------------------- *)

let domain_card prm q tv attr =
  let ts = Schema.find_table prm.Model.schema (Query.table_of q tv) in
  Selest_db.Value.card (Schema.attr ts attr).Schema.domain

let estimate_nonkey prm ~sizes (q1, tv1, a1) (q2, tv2, a2) =
  List.iter
    (fun (tv, _) ->
      if List.mem_assoc tv q2.Query.tvars then
        invalid_arg "Estimate.estimate_nonkey: sub-queries share a tuple variable")
    q1.Query.tvars;
  let c1 = domain_card prm q1 tv1 a1 and c2 = domain_card prm q2 tv2 a2 in
  if c1 <> c2 then
    invalid_arg "Estimate.estimate_nonkey: joined attributes disagree on domain";
  let est = cached_estimator prm ~sizes in
  let acc = ref 0.0 in
  for v = 0 to c1 - 1 do
    let q1v = Query.with_selects q1 (Query.eq tv1 a1 v :: q1.Query.selects) in
    let q2v = Query.with_selects q2 (Query.eq tv2 a2 v :: q2.Query.selects) in
    acc := !acc +. (est q1v *. est q2v)
  done;
  !acc

let group_counts prm ~sizes q ~keys =
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Estimate.group_counts: duplicate key attributes";
  (* Every cell binds the query's selects plus one equality per key: one
     skeleton, so one plan. *)
  let with_cell cell =
    Query.with_selects q
      (q.Query.selects @ List.mapi (fun i (tv, attr) -> Query.eq tv attr cell.(i)) keys)
  in
  let d = List.length keys in
  let cell = Array.make d 0 in
  let plan = Plan.compile prm (with_cell cell) in
  let cards = Array.of_list (List.map (fun (tv, attr) -> domain_card prm q tv attr) keys) in
  let out = ref [] in
  let rec go i =
    if i = d then
      out := (Array.copy cell, Plan.estimate plan ~sizes (with_cell cell)) :: !out
    else
      for v = 0 to cards.(i) - 1 do
        cell.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  List.rev !out
