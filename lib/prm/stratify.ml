open Selest_db

type structure = {
  attr_parents : Model.parent array array array;
  join_parents : Model.parent array array array;
}

let empty_structure schema =
  let tables = Schema.tables schema in
  {
    attr_parents =
      Array.map (fun ts -> Array.map (fun _ -> [||]) ts.Schema.attrs) tables;
    join_parents = Array.map (fun ts -> Array.map (fun _ -> [||]) ts.Schema.fks) tables;
  }

let of_model (m : Model.t) =
  {
    attr_parents =
      Array.map (fun tm -> Array.map (fun f -> f.Model.parents) tm.Model.attr_families) m.Model.tables;
    join_parents =
      Array.map (fun tm -> Array.map (fun f -> f.Model.parents) tm.Model.join_families) m.Model.tables;
  }

(* Global ids for value attributes across tables. *)
let attr_offsets schema =
  let tables = Schema.tables schema in
  let offsets = Array.make (Array.length tables) 0 in
  let total = ref 0 in
  Array.iteri
    (fun ti ts ->
      offsets.(ti) <- !total;
      total := !total + Array.length ts.Schema.attrs)
    tables;
  (offsets, !total)

let resolve_parent schema ti p =
  (* Global (table, attr) a parent refers to. *)
  match p with
  | Model.Own a -> (ti, a)
  | Model.Foreign (f, b) ->
    let ts = (Schema.tables schema).(ti) in
    let target = ts.Schema.fks.(f).Schema.target in
    (Schema.table_index schema target, b)

let check schema s =
  let tables = Schema.tables schema in
  let n_tables = Array.length tables in
  let offsets, n_attrs_total = attr_offsets schema in
  (* Attribute-level graph: adjacency child <- parents. *)
  let parents_of = Array.make n_attrs_total [] in
  let table_edges = Hashtbl.create 16 in
  (try
     Array.iteri
       (fun ti per_attr ->
         Array.iteri
           (fun a ps ->
             Array.iter
               (fun p ->
                 let pt, pa = resolve_parent schema ti p in
                 parents_of.(offsets.(ti) + a) <- (offsets.(pt) + pa) :: parents_of.(offsets.(ti) + a);
                 if pt <> ti then Hashtbl.replace table_edges (pt, ti) ())
               ps)
           per_attr)
       s.attr_parents
   with Invalid_argument msg -> invalid_arg ("Stratify.check: " ^ msg));
  (* Join-indicator parents must belong to the child table or to the fk's
     own target; they impose no ordering constraints (indicators are
     sinks), but must be well-formed. *)
  let join_ok = ref (Ok ()) in
  Array.iteri
    (fun ti per_fk ->
      Array.iteri
        (fun f ps ->
          Array.iter
            (fun p ->
              match p with
              | Model.Own a ->
                if a < 0 || a >= Array.length tables.(ti).Schema.attrs then
                  join_ok := Error "join-indicator parent attr out of range"
              | Model.Foreign (f', _) ->
                if f' <> f then
                  join_ok :=
                    Error "join-indicator parent reaches through a different foreign key")
            ps)
        per_fk)
    s.join_parents;
  match !join_ok with
  | Error _ as e -> e
  | Ok () ->
    (* Cycle check over attributes AND join indicators.  A join indicator
       J_F gates every attribute with a cross-table parent through F (the
       CPD is the J = true fork), so J_F -> R.A edges are real dependency
       edges; combined with X -> J_F parent edges they forbid an attribute
       from both feeding J_F and (transitively) depending on it — the
       double-counting cycle of Sec. 3.2's semantics. *)
    let join_base = n_attrs_total in
    let join_id = Hashtbl.create 16 in
    let n_joins = ref 0 in
    Array.iteri
      (fun ti per_fk ->
        Array.iteri
          (fun f _ ->
            Hashtbl.add join_id (ti, f) (join_base + !n_joins);
            incr n_joins)
          per_fk)
      s.join_parents;
    let n_nodes = n_attrs_total + !n_joins in
    let parents_of_all = Array.make n_nodes [] in
    Array.iteri (fun v ps -> parents_of_all.(v) <- ps) parents_of;
    (* Gating edges: J_F -> R.A for every cross-table parent of R.A. *)
    Array.iteri
      (fun ti per_attr ->
        Array.iteri
          (fun a ps ->
            Array.iter
              (function
                | Model.Foreign (f, _) ->
                  let j = Hashtbl.find join_id (ti, f) in
                  let v = offsets.(ti) + a in
                  if not (List.mem j parents_of_all.(v)) then
                    parents_of_all.(v) <- j :: parents_of_all.(v)
                | Model.Own _ -> ())
              ps)
          per_attr)
      s.attr_parents;
    (* Parent edges into join indicators. *)
    Array.iteri
      (fun ti per_fk ->
        Array.iteri
          (fun f ps ->
            let j = Hashtbl.find join_id (ti, f) in
            Array.iter
              (fun p ->
                let pt, pa = resolve_parent schema ti p in
                parents_of_all.(j) <- (offsets.(pt) + pa) :: parents_of_all.(j))
              ps)
          per_fk)
      s.join_parents;
    let in_deg = Array.map List.length parents_of_all in
    let children = Array.make n_nodes [] in
    Array.iteri
      (fun v ps -> List.iter (fun p -> children.(p) <- v :: children.(p)) ps)
      parents_of_all;
    let queue = Queue.create () in
    Array.iteri (fun v d -> if d = 0 then Queue.add v queue) in_deg;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr seen;
      List.iter
        (fun c ->
          in_deg.(c) <- in_deg.(c) - 1;
          if in_deg.(c) = 0 then Queue.add c queue)
        children.(v)
    done;
    if !seen <> n_nodes then Error "dependency graph has a cycle (possibly through a join indicator)"
    else begin
      (* Table stratification: the cross-table edge set must be acyclic. *)
      let t_in = Array.make n_tables 0 in
      let t_children = Array.make n_tables [] in
      Hashtbl.iter
        (fun (src, dst) () ->
          t_in.(dst) <- t_in.(dst) + 1;
          t_children.(src) <- dst :: t_children.(src))
        table_edges;
      let queue = Queue.create () in
      Array.iteri (fun t d -> if d = 0 then Queue.add t queue) t_in;
      let seen = ref 0 in
      while not (Queue.is_empty queue) do
        let t = Queue.pop queue in
        incr seen;
        List.iter
          (fun c ->
            t_in.(c) <- t_in.(c) - 1;
            if t_in.(c) = 0 then Queue.add c queue)
          t_children.(t)
      done;
      if !seen <> n_tables then Error "structure is not table-stratified" else Ok ()
    end

let is_legal schema s = match check schema s with Ok () -> true | Error _ -> false

let table_order schema s =
  (match check schema s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Stratify.table_order: " ^ e));
  let tables = Schema.tables schema in
  let n_tables = Array.length tables in
  let table_edges = Hashtbl.create 16 in
  Array.iteri
    (fun ti per_attr ->
      Array.iter
        (fun ps ->
          Array.iter
            (fun p ->
              let pt, _ = resolve_parent schema ti p in
              if pt <> ti then Hashtbl.replace table_edges (pt, ti) ())
            ps)
        per_attr)
    s.attr_parents;
  let t_in = Array.make n_tables 0 in
  let t_children = Array.make n_tables [] in
  Hashtbl.iter
    (fun (src, dst) () ->
      t_in.(dst) <- t_in.(dst) + 1;
      t_children.(src) <- dst :: t_children.(src))
    table_edges;
  let queue = Queue.create () in
  Array.iteri (fun t d -> if d = 0 then Queue.add t queue) t_in;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    out := t :: !out;
    List.iter
      (fun c ->
        t_in.(c) <- t_in.(c) - 1;
        if t_in.(c) = 0 then Queue.add c queue)
      t_children.(t)
  done;
  Array.of_list (List.rev !out)
