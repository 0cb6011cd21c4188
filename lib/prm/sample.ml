open Selest_util
open Selest_db
open Selest_bn

(* Order tables so every foreign key's target is sampled before its child
   (the child needs the target's rows for fk assignment, and possibly its
   attribute values for J-parents and cross-table parents). *)
let fk_table_order schema =
  let tables = Schema.tables schema in
  let n = Array.length tables in
  let in_deg = Array.make n 0 in
  let children = Array.make n [] in
  Array.iteri
    (fun ci ts ->
      Array.iter
        (fun f ->
          let ti = Schema.table_index schema f.Schema.target in
          if ti <> ci then begin
            in_deg.(ci) <- in_deg.(ci) + 1;
            children.(ti) <- ci :: children.(ti)
          end)
        ts.Schema.fks)
    tables;
  let queue = Queue.create () in
  Array.iteri (fun t d -> if d = 0 then Queue.add t queue) in_deg;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    out := t :: !out;
    List.iter
      (fun c ->
        in_deg.(c) <- in_deg.(c) - 1;
        if in_deg.(c) = 0 then Queue.add c queue)
      children.(t)
  done;
  if List.length !out <> n then
    invalid_arg "Prm.Sample: cyclic foreign-key graph between tables";
  Array.of_list (List.rev !out)

(* Per-table event order: attribute and fk-assignment steps respecting the
   model's intra-table dependencies (guaranteed acyclic by legality). *)
type event = E_attr of int | E_fk of int

let event_order (tm : Model.table_model) ~n_attrs ~n_fks =
  let n_events = n_attrs + n_fks in
  let id = function E_attr a -> a | E_fk f -> n_attrs + f in
  let in_deg = Array.make n_events 0 in
  let children = Array.make n_events [] in
  let edge src dst =
    in_deg.(id dst) <- in_deg.(id dst) + 1;
    children.(id src) <- dst :: children.(id src)
  in
  Array.iteri
    (fun a fam ->
      Array.iter
        (function
          | Model.Own b -> edge (E_attr b) (E_attr a)
          | Model.Foreign (f, _) -> edge (E_fk f) (E_attr a))
        fam.Model.parents)
    tm.Model.attr_families;
  Array.iteri
    (fun f fam ->
      Array.iter
        (function
          | Model.Own a -> edge (E_attr a) (E_fk f)
          | Model.Foreign (_, _) -> () (* target side: already sampled *))
        fam.Model.parents)
    tm.Model.join_families;
  let queue = Queue.create () in
  for e = 0 to n_events - 1 do
    if in_deg.(e) = 0 then Queue.add e queue
  done;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let e = Queue.pop queue in
    out := (if e < n_attrs then E_attr e else E_fk (e - n_attrs)) :: !out;
    List.iter
      (fun dst ->
        in_deg.(id dst) <- in_deg.(id dst) - 1;
        if in_deg.(id dst) = 0 then Queue.add (id dst) queue)
      children.(e)
  done;
  if List.length !out <> n_events then
    invalid_arg "Prm.Sample: model structure has a dependency cycle";
  List.rev !out

let database rng (model : Model.t) ~sizes =
  let schema = model.Model.schema in
  (match Stratify.check schema (Stratify.of_model model) with
  | Ok () -> ()
  | Error e -> invalid_arg ("Prm.Sample: " ^ e));
  let tables = Schema.tables schema in
  if Array.length sizes <> Array.length tables then
    invalid_arg "Prm.Sample: sizes arity mismatch";
  let sampled_cols : int array array array = Array.make (Array.length tables) [||] in
  let sampled_fks : int array array array = Array.make (Array.length tables) [||] in
  Array.iter
    (fun ti ->
      let ts = tables.(ti) in
      let tm = model.Model.tables.(ti) in
      let n = sizes.(ti) in
      let n_attrs = Array.length ts.Schema.attrs in
      let n_fks = Array.length ts.Schema.fks in
      let cols =
        Array.map (fun a -> ignore a; Array.make n 0) ts.Schema.attrs
      in
      let fk_cols = Array.map (fun f -> ignore f; Array.make n 0) ts.Schema.fks in
      let target_ti = Array.map (fun f -> Schema.table_index schema f.Schema.target) ts.Schema.fks in
      Array.iter
        (fun f ->
          let t = Schema.table_index schema f.Schema.target in
          if sizes.(t) = 0 && n > 0 then
            invalid_arg "Prm.Sample: non-empty child of an empty target table")
        ts.Schema.fks;
      let parent_value ~row = function
        | Model.Own b -> cols.(b).(row)
        | Model.Foreign (f, b) ->
          sampled_cols.(target_ti.(f)).(b).(fk_cols.(f).(row))
      in
      List.iter
        (function
          | E_attr a ->
            let fam = tm.Model.attr_families.(a) in
            let pvals = Array.make (Array.length fam.Model.parents) 0 in
            for row = 0 to n - 1 do
              Array.iteri (fun i p -> pvals.(i) <- parent_value ~row p) fam.Model.parents;
              cols.(a).(row) <- Rng.categorical rng (Cpd.dist fam.Model.cpd pvals)
            done
          | E_fk f ->
            let fam = tm.Model.join_families.(f) in
            let target = target_ti.(f) in
            let target_size = sizes.(target) in
            (* Split the indicator's parents into child-side and
               target-side; both are sorted by local id, so the child-side
               block precedes the target-side block in CPD parent order. *)
            let own_ps, target_ps =
              Array.to_list fam.Model.parents
              |> List.partition (function Model.Own _ -> true | Model.Foreign _ -> false)
            in
            let own_ps = Array.of_list own_ps and target_ps = Array.of_list target_ps in
            (* Target configuration of each target row. *)
            let target_attr = Array.map (function
                | Model.Foreign (_, b) -> b
                | Model.Own _ -> assert false) target_ps in
            let target_cards =
              Array.map (fun b ->
                  Value.card tables.(target).Schema.attrs.(b).Schema.domain)
                target_attr
            in
            let n_cfgs = Array.fold_left ( * ) 1 target_cards in
            let cfg_of_target_row r =
              let cfg = ref 0 in
              Array.iteri
                (fun i b ->
                  cfg := (!cfg * target_cards.(i)) + sampled_cols.(target).(b).(r))
                target_attr;
              !cfg
            in
            let groups = Array.make n_cfgs [] in
            for r = target_size - 1 downto 0 do
              let c = cfg_of_target_row r in
              groups.(c) <- r :: groups.(c)
            done;
            let groups = Array.map Array.of_list groups in
            (* Decode a target cfg back into attribute values. *)
            let decode_cfg cfg =
              let out = Array.make (Array.length target_attr) 0 in
              let rem = ref cfg in
              for i = Array.length target_attr - 1 downto 0 do
                out.(i) <- !rem mod target_cards.(i);
                rem := !rem / target_cards.(i)
              done;
              out
            in
            (* Weights per (own config): count(cfg) * P(J=1 | own, cfg),
               as a prefix-sum table, or [None] when they sum to zero;
               memoized because own configurations repeat across rows. *)
            let weight_cache : (int list, Rng.cdf option) Hashtbl.t = Hashtbl.create 16 in
            let weights_for own_vals =
              let key = Array.to_list own_vals in
              match Hashtbl.find_opt weight_cache key with
              | Some w -> w
              | None ->
                let w =
                  Array.init n_cfgs (fun cfg ->
                      let cnt = float_of_int (Array.length groups.(cfg)) in
                      if cnt = 0.0 then 0.0
                      else begin
                        let pvals = Array.append own_vals (decode_cfg cfg) in
                        cnt *. (Cpd.dist fam.Model.cpd pvals).(1)
                      end)
                in
                let cdf = if Arrayx.sum w > 0.0 then Some (Rng.cdf w) else None in
                Hashtbl.add weight_cache key cdf;
                cdf
            in
            for row = 0 to n - 1 do
              let own_vals = Array.map (fun p -> parent_value ~row p) own_ps in
              match weights_for own_vals with
              | Some cdf ->
                let group = groups.(Rng.draw rng cdf) in
                fk_cols.(f).(row) <- group.(Rng.int rng (Array.length group))
              | None ->
                (* Degenerate indicator (e.g. unseen own config): uniform. *)
                fk_cols.(f).(row) <- Rng.int rng target_size
            done)
        (event_order tm ~n_attrs ~n_fks);
      sampled_cols.(ti) <- cols;
      sampled_fks.(ti) <- fk_cols)
    (fk_table_order schema);
  let table_list =
    Array.to_list
      (Array.mapi
         (fun ti ts -> Table.create ts ~cols:sampled_cols.(ti) ~fk_cols:sampled_fks.(ti))
         tables)
  in
  Database.create schema table_list
