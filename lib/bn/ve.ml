open Selest_prob
open Selest_db

type evidence = (int * Query.pred) list

let var_card factors v =
  let rec scan = function
    | [] -> raise Not_found
    | f :: rest ->
      let vars = Factor.unsafe_vars f and cards = Factor.unsafe_cards f in
      let rec look i =
        if i >= Array.length vars then scan rest
        else if vars.(i) = v then cards.(i)
        else look (i + 1)
      in
      look 0
  in
  scan factors

let all_vars factors =
  List.sort_uniq compare
    (List.concat_map (fun f -> Array.to_list (Factor.vars f)) factors)

let mentions f v = Factor.mentions f v

(* ---- evidence normalization ---------------------------------------------

   Merge multiple predicates on one variable into a single allowed-value
   mask (their conjunction).  Restricting a factor twice on the same
   variable would silently ignore the second predicate, so this
   normalization is required for correctness, not just tidiness. *)

(* (v, mask) pairs in first-mention order; None on a contradiction. *)
let merged_masks factors ev =
  let allowed : (int, bool array) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (v, pred) ->
      let card =
        try var_card factors v
        with Not_found -> invalid_arg "Ve: evidence variable not in any factor"
      in
      let check x =
        if x < 0 || x >= card then invalid_arg "Ve: evidence value out of range"
      in
      (match pred with
      | Query.Eq x -> check x
      | Query.In_set xs -> List.iter check xs
      | Query.Range (lo, hi) ->
        check lo;
        check hi);
      let mask =
        match Hashtbl.find_opt allowed v with
        | Some m -> m
        | None ->
          let m = Array.make card true in
          Hashtbl.add allowed v m;
          order := v :: !order;
          m
      in
      for x = 0 to card - 1 do
        if not (Query.pred_holds pred x) then mask.(x) <- false
      done)
    ev;
  let merged = List.rev_map (fun v -> (v, Hashtbl.find allowed v)) !order in
  if List.exists (fun (_, m) -> not (Array.exists Fun.id m)) merged then None
  else Some merged

(* A mask with one allowed value out of two or more restricts its
   variable, which then leaves every scope; so these variables, with the
   keep set, fix the restricted factor shapes. *)
let restricted_of_masks merged =
  List.sort compare
    (List.filter_map
       (fun (v, mask) ->
         let n_allowed = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 mask in
         if n_allowed = 1 && Array.length mask > 1 then Some v else None)
       merged)

(* ---- elimination planning -----------------------------------------------

   Greedy minimum-intermediate-size ordering on the interaction graph:
   eliminating v touches only the costs of v's neighbors, so each step
   recomputes O(deg) costs rather than rescanning every factor (the
   induced-graph neighborhoods coincide with the scope unions a factor
   scan computes, so the order — including tie-breaks — is the same).
   Variable ids are small and dense, so the graph is a byte matrix and
   the costs an array indexed by id.  The planner reads scopes only:
   evidence that restricts a variable to one value drops it from every
   scope, which is all the planner needs to know of the evidence. *)

type sched_step = { var : int; predicted_entries : int }
type schedule = { order : int list; steps : sched_step list }

(* [costs.(v)] <- v's elimination cost: its cardinality times its
   neighbors'.  A byte per (v, u) pair; top level, so the planner's
   loops call no closure and box no float. *)
let set_cost costs adj n card v =
  let c = ref (float_of_int card.(v)) in
  let row = v * n in
  for u = 0 to n - 1 do
    if Bytes.unsafe_get adj (row + u) <> '\000' then c := !c *. float_of_int card.(u)
  done;
  costs.(v) <- !c

let plan_shapes ~keep ~restricted shapes =
  let n =
    List.fold_left
      (fun n (vs, _) ->
        Array.fold_left
          (fun n v ->
            if v < 0 then invalid_arg "Ve.Schedule: negative variable id";
            max n (v + 1))
          n vs)
      0 shapes
  in
  let live = Bytes.make n '\001' in
  Array.iter (fun v -> if v >= 0 && v < n then Bytes.set live v '\000') restricted;
  (* card 0: the variable is in no (restricted) scope *)
  let card = Array.make n 0 in
  let adj = Bytes.make (n * n) '\000' in
  List.iter
    (fun (vs, cs) ->
      for i = 0 to Array.length vs - 1 do
        let v = vs.(i) in
        if Bytes.get live v <> '\000' then begin
          if card.(v) = 0 then card.(v) <- cs.(i);
          for j = 0 to Array.length vs - 1 do
            let u = vs.(j) in
            if u <> v && Bytes.get live u <> '\000' then
              Bytes.unsafe_set adj ((v * n) + u) '\001'
          done
        end
      done)
    shapes;
  (* candidates: every scope variable outside [keep], by ascending id *)
  let candidate = Bytes.make n '\000' in
  let costs = Array.make n 0.0 in
  for v = 0 to n - 1 do
    if card.(v) > 0 && not (Factor.mem_sorted keep v) then begin
      Bytes.set candidate v '\001';
      set_cost costs adj n card v
    end
  done;
  let nbrs = Array.make n 0 in
  let order = ref [] and steps = ref [] in
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if Bytes.get candidate v <> '\000' && (!best < 0 || costs.(v) < costs.(!best)) then
        best := v
    done;
    let v = !best in
    if v < 0 then continue := false
    else begin
      Bytes.set candidate v '\000';
      order := v :: !order;
      (* the intermediate factor's scope is v's induced neighborhood, so
         its size is the selection cost divided by v's own cardinality *)
      steps :=
        { var = v; predicted_entries = int_of_float (costs.(v) /. float_of_int card.(v)) }
        :: !steps;
      let k = ref 0 in
      for u = 0 to n - 1 do
        if Bytes.unsafe_get adj ((v * n) + u) <> '\000' then begin
          nbrs.(!k) <- u;
          incr k;
          Bytes.unsafe_set adj ((v * n) + u) '\000';
          Bytes.unsafe_set adj ((u * n) + v) '\000'
        end
      done;
      for i = 0 to !k - 1 do
        for j = 0 to !k - 1 do
          if i <> j then Bytes.unsafe_set adj ((nbrs.(i) * n) + nbrs.(j)) '\001'
        done
      done;
      for i = 0 to !k - 1 do
        let u = nbrs.(i) in
        if Bytes.get candidate u <> '\000' then set_cost costs adj n card u
      done
    end
  done;
  { order = List.rev !order; steps = List.rev !steps }

let shapes_of factors =
  List.map (fun f -> (Factor.unsafe_vars f, Factor.unsafe_cards f)) factors

module Schedule = struct
  type step = sched_step = { var : int; predicted_entries : int }
  type t = schedule = { order : int list; steps : step list }

  let of_shapes = plan_shapes
  let plan ~keep factors = plan_shapes ~keep ~restricted:[||] (shapes_of factors)

  let pp fmt t =
    let pp_step i { var; predicted_entries } =
      if i > 0 then Format.pp_print_string fmt ">";
      Format.fprintf fmt "%d:%d" var predicted_entries
    in
    if t.steps = [] then Format.pp_print_string fmt "-"
    else List.iteri pp_step t.steps
end

let plan_order ~keep factors = (Schedule.plan ~keep factors).order

(* ---- reference implementation --------------------------------------------

   The oracle: per-step greedy cost scans over the whole factor list,
   pairwise products, naive per-entry kernels.  The compiled executor in
   [lib/plan] must agree with it bit for bit. *)

module Reference = struct
  let apply_evidence f ev =
    List.fold_left
      (fun f (v, pred) ->
        match pred with
        | Query.Eq x -> Factor.Reference.restrict f v x
        | Query.In_set xs -> Factor.Reference.observe f v (fun u -> List.mem u xs)
        | Query.Range (lo, hi) ->
          Factor.Reference.observe f v (fun u -> lo <= u && u <= hi))
      f ev

  let elimination_cost factors v =
    let scope = Hashtbl.create 8 in
    List.iter
      (fun f ->
        if mentions f v then begin
          let vars = Factor.vars f and cards = Factor.cards f in
          Array.iteri (fun i u -> Hashtbl.replace scope u cards.(i)) vars
        end)
      factors;
    Hashtbl.fold (fun _ c acc -> acc *. float_of_int c) scope 1.0

  let eliminate_var factors v =
    let touching, rest = List.partition (fun f -> mentions f v) factors in
    match touching with
    | [] -> factors
    | f :: fs ->
      let prod = List.fold_left Factor.Reference.product f fs in
      Factor.Reference.sum_out prod v :: rest

  let eliminate_all factors =
    let rec loop factors =
      match all_vars factors with
      | [] -> List.fold_left (fun acc f -> acc *. Factor.total f) 1.0 factors
      | vars ->
        let v =
          List.fold_left
            (fun best v ->
              match best with
              | None -> Some (v, elimination_cost factors v)
              | Some (_, c0) ->
                let c = elimination_cost factors v in
                if c < c0 then Some (v, c) else best)
            None vars
          |> Option.get |> fst
        in
        loop (eliminate_var factors v)
    in
    loop factors

  let normalize_evidence factors ev =
    match merged_masks factors ev with
    | None -> None
    | Some merged ->
      Some
        (List.map
           (fun (v, mask) ->
             let values = ref [] in
             for x = Array.length mask - 1 downto 0 do
               if mask.(x) then values := x :: !values
             done;
             (v, match !values with [ x ] -> Query.Eq x | xs -> Query.In_set xs))
           merged)

  let prob_of_evidence factors ev =
    match normalize_evidence factors ev with
    | None -> 0.0
    | Some merged ->
      let restricted = List.map (fun f -> apply_evidence f merged) factors in
      eliminate_all restricted
end
