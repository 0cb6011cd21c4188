open Selest_prob

let table_for db q tv = Database.table db (Query.table_of q tv)

let validate db q =
  let schema = Database.schema db in
  List.iter
    (fun (tv, tbl) ->
      match Schema.table_index schema tbl with
      | _ -> ()
      | exception Not_found ->
        invalid_arg (Printf.sprintf "Exec.validate: unknown table %s for %s" tbl tv))
    q.Query.tvars;
  List.iter
    (fun s ->
      let tbl = table_for db q s.Query.sel_tv in
      let ts = Table.schema tbl in
      let attr =
        try Schema.attr ts s.Query.sel_attr
        with Not_found ->
          invalid_arg
            (Printf.sprintf "Exec.validate: no attribute %s in %s" s.Query.sel_attr
               (Table.name tbl))
      in
      let card = Value.card attr.Schema.domain in
      let check v =
        if v < 0 || v >= card then
          invalid_arg
            (Printf.sprintf "Exec.validate: predicate value %d out of domain of %s.%s" v
               (Table.name tbl) s.Query.sel_attr)
      in
      match s.Query.pred with
      | Query.Eq v -> check v
      | Query.In_set vs -> List.iter check vs
      | Query.Range (lo, hi) ->
        check lo;
        check hi;
        if hi < lo then invalid_arg "Exec.validate: empty range";
        if not (Value.is_ordinal attr.Schema.domain) then
          invalid_arg
            (Printf.sprintf "Exec.validate: range predicate on non-ordinal %s.%s"
               (Table.name tbl) s.Query.sel_attr))
    q.Query.selects;
  List.iter
    (fun j ->
      let child = table_for db q j.Query.child_tv in
      let ts = Table.schema child in
      let fk =
        try Schema.fk ts j.Query.fk
        with Not_found ->
          invalid_arg
            (Printf.sprintf "Exec.validate: no foreign key %s in %s" j.Query.fk
               (Table.name child))
      in
      let parent_table = Query.table_of q j.Query.parent_tv in
      if fk.Schema.target <> parent_table then
        invalid_arg
          (Printf.sprintf "Exec.validate: %s.%s targets %s, not %s" (Table.name child)
             j.Query.fk fk.Schema.target parent_table))
    q.Query.joins;
  (* The join graph must be a forest over tuple variables. *)
  let tvs = List.map fst q.Query.tvars in
  let idx tv =
    let rec loop i = function
      | [] -> raise Not_found
      | x :: rest -> if x = tv then i else loop (i + 1) rest
    in
    loop 0 tvs
  in
  let n = List.length tvs in
  let uf = Array.init n (fun i -> i) in
  let rec find i = if uf.(i) = i then i else find uf.(i) in
  List.iter
    (fun j ->
      let a = find (idx j.Query.child_tv) and b = find (idx j.Query.parent_tv) in
      if a = b then invalid_arg "Exec.validate: cyclic join graph (not a keyjoin forest)";
      uf.(a) <- b)
    q.Query.joins;
  (* No tuple variable may bind the same foreign key twice. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let key = (j.Query.child_tv, j.Query.fk) in
      if Hashtbl.mem seen key then
        invalid_arg "Exec.validate: foreign key joined twice from the same tuple variable";
      Hashtbl.add seen key ())
    q.Query.joins

let select_mask db q tv =
  let tbl = table_for db q tv in
  let n = Table.size tbl in
  let mask = Array.make n true in
  List.iter
    (fun s ->
      let col = Table.col_by_name tbl s.Query.sel_attr in
      for r = 0 to n - 1 do
        if mask.(r) && not (Query.pred_holds s.Query.pred col.(r)) then mask.(r) <- false
      done)
    (Query.select_on q tv);
  mask

(* --- Weight propagation over the join forest --------------------------- *)

let query_size db q =
  validate db q;
  let tvs = Array.of_list (List.map fst q.Query.tvars) in
  let n = Array.length tvs in
  let idx tv =
    let rec loop i = if tvs.(i) = tv then i else loop (i + 1) in
    loop 0
  in
  (* Initial weights: the select masks. *)
  let weights =
    Array.map
      (fun tv -> Array.map (fun b -> if b then 1.0 else 0.0) (select_mask db q tv))
      tvs
  in
  (* Undirected adjacency; each edge remembers the join it came from. *)
  let adj = Array.make n [] in
  List.iter
    (fun j ->
      let c = idx j.Query.child_tv and p = idx j.Query.parent_tv in
      adj.(c) <- (p, j) :: adj.(c);
      adj.(p) <- (c, j) :: adj.(p))
    q.Query.joins;
  let visited = Array.make n false in
  let total = ref 1.0 in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      (* BFS to get a processing order (root first). *)
      let order = ref [] in
      let tree_parent = Array.make n (-1) in
      let tree_join = Array.make n None in
      let queue = Queue.create () in
      Queue.add root queue;
      visited.(root) <- true;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        order := u :: !order;
        List.iter
          (fun (v, j) ->
            if not visited.(v) then begin
              visited.(v) <- true;
              tree_parent.(v) <- u;
              tree_join.(v) <- Some j;
              Queue.add v queue
            end)
          adj.(u)
      done;
      (* !order is reverse BFS: leaves first.  Each node folds its weight
         into its tree parent through the joining foreign key. *)
      List.iter
        (fun u ->
          if u <> root then begin
            let p = tree_parent.(u) in
            let j = Option.get tree_join.(u) in
            let child_i = idx j.Query.child_tv in
            let child_tbl = table_for db q j.Query.child_tv in
            let fk = Table.fk_col_by_name child_tbl j.Query.fk in
            if child_i = u then begin
              (* u is the fk holder: scatter-add u's weights onto p's rows. *)
              let acc = Array.make (Array.length weights.(p)) 0.0 in
              Array.iteri (fun r w -> acc.(fk.(r)) <- acc.(fk.(r)) +. w) weights.(u);
              Array.iteri (fun r a -> weights.(p).(r) <- weights.(p).(r) *. a) acc
            end
            else begin
              (* p holds the fk into u: gather u's weight along the fk. *)
              let wp = weights.(p) and wu = weights.(u) in
              Array.iteri (fun r target -> wp.(r) <- wp.(r) *. wu.(target)) fk
            end
          end)
        !order;
      total := !total *. Selest_util.Arrayx.sum weights.(root)
    end
  done;
  if n = 0 then 0.0 else !total

(* --- Column resolution for single-base queries ------------------------- *)

let directed_reach db q base =
  (* Map each tuple variable to its per-base-row row ids, following joins
     away from [base] in the child -> parent direction only. *)
  let result : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let base_tbl = table_for db q base in
  Hashtbl.add result base (Array.init (Table.size base_tbl) (fun i -> i));
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun j ->
        if
          Hashtbl.mem result j.Query.child_tv
          && not (Hashtbl.mem result j.Query.parent_tv)
        then begin
          let child_rows = Hashtbl.find result j.Query.child_tv in
          let child_tbl = table_for db q j.Query.child_tv in
          let fk = Table.fk_col_by_name child_tbl j.Query.fk in
          Hashtbl.add result j.Query.parent_tv (Array.map (fun r -> fk.(r)) child_rows);
          progress := true
        end)
      q.Query.joins
  done;
  result

let single_base db q =
  validate db q;
  let tvs = List.map fst q.Query.tvars in
  let covers base =
    let reach = directed_reach db q base in
    List.for_all (Hashtbl.mem reach) tvs
  in
  List.find_opt covers tvs

let resolve_rows db q ~base ~tv =
  let reach = directed_reach db q base in
  match Hashtbl.find_opt reach tv with
  | Some rows -> rows
  | None ->
    invalid_arg
      (Printf.sprintf "Exec.resolve_rows: %s is not reachable from %s via foreign keys" tv
         base)

let resolve_column db q ~base ~tv ~attr =
  let rows = resolve_rows db q ~base ~tv in
  let col = Table.col_by_name (table_for db q tv) attr in
  Array.map (fun r -> col.(r)) rows

let joint_counts db q ~keys =
  match single_base db q with
  | None ->
    invalid_arg
      "Exec.joint_counts: query has no single base tuple variable (branching join)"
  | Some base ->
    let base_tbl = table_for db q base in
    let n = Table.size base_tbl in
    (* Mask: all selects of all tuple variables, resolved onto base rows. *)
    let mask = Array.make n true in
    List.iter
      (fun (tv, _) ->
        let tv_mask = select_mask db q tv in
        let rows = resolve_rows db q ~base ~tv in
        for r = 0 to n - 1 do
          if mask.(r) && not (tv_mask.(rows.(r))) then mask.(r) <- false
        done)
      q.Query.tvars;
    let cols =
      Array.of_list
        (List.map (fun (tv, attr) -> resolve_column db q ~base ~tv ~attr) keys)
    in
    let cards =
      Array.of_list
        (List.map
           (fun (tv, attr) ->
             let ts = Table.schema (table_for db q tv) in
             Value.card (Schema.attr ts attr).Schema.domain)
           keys)
    in
    Contingency.count_masked ~cards ~mask cols

let nonkey_join_size db (q1, tv1, a1) (q2, tv2, a2) =
  validate db q1;
  validate db q2;
  List.iter
    (fun (tv, _) ->
      if List.mem_assoc tv q2.Query.tvars then
        invalid_arg "Exec.nonkey_join_size: sub-queries share a tuple variable")
    q1.Query.tvars;
  let card_of q tv attr =
    let ts = Table.schema (table_for db q tv) in
    Value.card (Schema.attr ts attr).Schema.domain
  in
  let c1 = card_of q1 tv1 a1 and c2 = card_of q2 tv2 a2 in
  if c1 <> c2 then invalid_arg "Exec.nonkey_join_size: joined attributes disagree on domain";
  let acc = ref 0.0 in
  for v = 0 to c1 - 1 do
    let q1v = Query.with_selects q1 (Query.eq tv1 a1 v :: q1.Query.selects) in
    let q2v = Query.with_selects q2 (Query.eq tv2 a2 v :: q2.Query.selects) in
    acc := !acc +. (query_size db q1v *. query_size db q2v)
  done;
  !acc
