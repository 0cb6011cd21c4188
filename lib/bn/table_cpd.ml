open Selest_util
open Selest_prob

type t = {
  child_card : int;
  parents : int array;
  parent_cards : int array;
  table : float array;
  fitted_weight : float;
}

let check_parents parents =
  for i = 1 to Array.length parents - 1 do
    if parents.(i - 1) >= parents.(i) then
      invalid_arg "Table_cpd: parents must be strictly increasing"
  done

let n_configs parent_cards = Array.fold_left ( * ) 1 parent_cards

let normalize_rows ~child_card table =
  let configs = Array.length table / child_card in
  for cfg = 0 to configs - 1 do
    let base = cfg * child_card in
    let total = ref 0.0 in
    for v = 0 to child_card - 1 do
      total := !total +. table.(base + v)
    done;
    if !total > 0.0 then
      for v = 0 to child_card - 1 do
        table.(base + v) <- table.(base + v) /. !total
      done
    else
      for v = 0 to child_card - 1 do
        table.(base + v) <- 1.0 /. float_of_int child_card
      done
  done

let fit data ~child ~parents =
  check_parents parents;
  let child_card = data.Data.cards.(child) in
  let parent_cards = Array.map (fun p -> data.Data.cards.(p)) parents in
  let configs = n_configs parent_cards in
  let table = Array.make (configs * child_card) 0.0 in
  let child_col = data.Data.cols.(child) in
  let parent_cols = Array.map (fun p -> data.Data.cols.(p)) parents in
  let np = Array.length parents in
  for r = 0 to data.Data.n - 1 do
    let cfg = ref 0 in
    for i = 0 to np - 1 do
      cfg := (!cfg * parent_cards.(i)) + parent_cols.(i).(r)
    done;
    let idx = (!cfg * child_card) + child_col.(r) in
    table.(idx) <- table.(idx) +. 1.0
  done;
  Counts.record_scan ();
  normalize_rows ~child_card table;
  { child_card; parents; parent_cards; table; fitted_weight = Data.total_weight data }

let fit_counted kernel ~table:table_id data ~child ~parents =
  (* The kernel's prefix key over dims = parents @ [child] is exactly
     [fit]'s configuration index, and both accumulate exact integer
     counts — the normalized table is bitwise identical.  The kernel
     array is shared, so copy before normalizing in place. *)
  check_parents parents;
  let child_card = data.Data.cards.(child) in
  let parent_cards = Array.map (fun p -> data.Data.cards.(p)) parents in
  let dims = Array.append parents [| child |] in
  let cards = Array.append parent_cards [| child_card |] in
  let cols = Array.map (fun a -> data.Data.cols.(a)) dims in
  let counts =
    Counts.counts kernel ~table:table_id ~dims ~cards ~cols ~n_rows:data.Data.n
  in
  let table = Array.copy counts in
  normalize_rows ~child_card table;
  { child_card; parents; parent_cards; table; fitted_weight = Data.total_weight data }

let of_table ~child_card ~parents ~parent_cards table =
  check_parents parents;
  if Array.length parents <> Array.length parent_cards then
    invalid_arg "Table_cpd.of_table: parents/cards mismatch";
  if Array.length table <> n_configs parent_cards * child_card then
    invalid_arg "Table_cpd.of_table: wrong table size";
  let table = Array.copy table in
  normalize_rows ~child_card table;
  { child_card; parents; parent_cards; table; fitted_weight = 0.0 }

let config_of t pvals =
  let cfg = ref 0 in
  for i = 0 to Array.length t.parents - 1 do
    let v = pvals.(i) in
    if v < 0 || v >= t.parent_cards.(i) then invalid_arg "Table_cpd.dist: value out of range";
    cfg := (!cfg * t.parent_cards.(i)) + v
  done;
  !cfg

let dist t pvals =
  if Array.length pvals <> Array.length t.parents then
    invalid_arg "Table_cpd.dist: wrong number of parent values";
  let cfg = config_of t pvals in
  Array.sub t.table (cfg * t.child_card) t.child_card

let n_params t = n_configs t.parent_cards * (t.child_card - 1)
let n_parents t = Array.length t.parents

let loglik t data ~child =
  let child_col = data.Data.cols.(child) in
  let parent_cols = Array.map (fun p -> data.Data.cols.(p)) t.parents in
  let np = Array.length t.parents in
  let acc = ref 0.0 in
  for r = 0 to data.Data.n - 1 do
    let cfg = ref 0 in
    for i = 0 to np - 1 do
      cfg := (!cfg * t.parent_cards.(i)) + parent_cols.(i).(r)
    done;
    let p = t.table.((!cfg * t.child_card) + child_col.(r)) in
    acc := !acc +. Arrayx.log2 (Float.max p 1e-300)
  done;
  Counts.record_scan ();
  !acc

let loglik_tabulated t data ~child =
  (* [loglik] with the table's log2 values precomputed once; same per-row
     accumulation over identical floats, so the sum is bitwise equal. *)
  let logt = Array.map (fun p -> Arrayx.log2 (Float.max p 1e-300)) t.table in
  let child_col = data.Data.cols.(child) in
  let parent_cols = Array.map (fun p -> data.Data.cols.(p)) t.parents in
  let np = Array.length t.parents in
  let acc = ref 0.0 in
  for r = 0 to data.Data.n - 1 do
    let cfg = ref 0 in
    for i = 0 to np - 1 do
      cfg := (!cfg * t.parent_cards.(i)) + parent_cols.(i).(r)
    done;
    acc := !acc +. logt.((!cfg * t.child_card) + child_col.(r))
  done;
  Counts.record_scan ();
  !acc

let to_factor ~var_of ~child t =
  (* Scope = child + parents under the renaming; Factor requires sorted
     variable ids, so build by tabulation. *)
  let scope =
    Array.append [| (var_of child, (-1)) |]
      (Array.mapi (fun i p -> (var_of p, i)) t.parents)
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) scope;
  let vars = Array.map fst scope in
  for i = 1 to Array.length vars - 1 do
    if vars.(i - 1) = vars.(i) then invalid_arg "Table_cpd.to_factor: var_of not injective"
  done;
  let cards =
    Array.map
      (fun (_, role) -> if role = -1 then t.child_card else t.parent_cards.(role))
      scope
  in
  let pvals = Array.make (Array.length t.parents) 0 in
  Factor.of_fun ~vars ~cards (fun asg ->
      let child_val = ref 0 in
      Array.iteri
        (fun i (_, role) ->
          if role = -1 then child_val := asg.(i) else pvals.(role) <- asg.(i))
        scope;
      let cfg = config_of t pvals in
      t.table.((cfg * t.child_card) + !child_val))
