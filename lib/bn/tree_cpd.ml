open Selest_util
open Selest_prob

type node =
  | Leaf of { dist : float array; weight : float }
  | Split of { pindex : int; arms : arms }

and arms =
  | Multi of node array
  | Thresh of int * node * node

type t = {
  child_card : int;
  parents : int array;
  parent_cards : int array;
  parent_ordinal : bool array;
  root : node;
  n_leaves : int;
  n_splits : int;
  fitted_weight : float;
}

(* ---- fitting ----------------------------------------------------------- *)

type split_desc =
  | D_multi of int  (* pindex *)
  | D_thresh of int * int  (* pindex, cut *)

type 'l mnode = { mutable content : 'l mcontent }

and 'l mcontent =
  | M_leaf of 'l
  | M_split of int * 'l marms

and 'l marms = M_multi of 'l mnode array | M_thresh of int * 'l mnode * 'l mnode

(* Σ c·log2 c over the child counts of a row set: the only statistic split
   gains need (gain in bits = Σ_branches clogc(b) - m_b log m_b, minus the
   same for the unsplit leaf). *)
let leaf_stats data ~child rows =
  let card = data.Data.cards.(child) in
  let counts = Array.make card 0.0 in
  let col = data.Data.cols.(child) in
  Array.iter (fun r -> counts.(col.(r)) <- counts.(col.(r)) +. 1.0) rows;
  Counts.record_scan ();
  counts

let loglik_of_counts counts =
  let m = Arrayx.sum counts in
  if m <= 0.0 then 0.0
  else Array.fold_left (fun acc c -> acc +. Arrayx.xlogx c) 0.0 counts -. Arrayx.xlogx m

(* A fit works off one abstract leaf representation plus four statistics
   queries.  The row-backed ops scan the leaf's row set directly — one
   column pass per query, the reference cost model.  [fit_counted]'s ops
   instead aggregate cached group-by counts from a {!Counts} kernel and
   never revisit rows after the kernel's single scan per attribute set.
   Every count either way is a sum of 1.0s — an exact
   small-integer float whatever the accumulation order — so both routes
   produce bitwise-identical count arrays and hence identical split
   decisions, leaf distributions, and parameter tallies. *)
type 'l leaf_ops = {
  lo_child_counts : 'l -> float array;
  lo_pair_counts : 'l -> int -> float array;
      (* [lo_pair_counts leaf pi]: counts.(pval * child_card + cval) *)
  lo_branch_multi : 'l -> int -> 'l array;
  lo_branch_thresh : 'l -> int -> int -> 'l * 'l;
}

(* Best split of one leaf: returns (gain_bits, delta_params, descriptor). *)
let best_split_with ops ~child_card ~parent_cards ~parent_ordinal leaf =
  let base = loglik_of_counts (ops.lo_child_counts leaf) in
  let best = ref None in
  let consider gain dparams desc =
    if gain > 0.0 then
      match !best with
      | Some (g, dp, _) when gain /. float_of_int dparams <= g /. float_of_int dp -> ()
      | _ -> best := Some (gain, dparams, desc)
  in
  Array.iteri
    (fun pi pcard ->
      if pcard > 1 then begin
        let counts = ops.lo_pair_counts leaf pi in
        (* Multiway: one branch per parent value. *)
        let multi_ll = ref 0.0 in
        let n_nonempty = ref 0 in
        for v = 0 to pcard - 1 do
          let branch = Array.sub counts (v * child_card) child_card in
          let m = Arrayx.sum branch in
          if m > 0.0 then incr n_nonempty;
          multi_ll := !multi_ll +. loglik_of_counts branch
        done;
        if !n_nonempty > 1 then
          consider (!multi_ll -. base)
            (((pcard - 1) * (child_card - 1)) + 2)
            (D_multi pi);
        (* Threshold cuts for ordinal parents: one extra leaf per split. *)
        if parent_ordinal.(pi) then begin
          let lo = Array.make child_card 0.0 in
          let hi = Array.make child_card 0.0 in
          for v = 0 to pcard - 1 do
            for c = 0 to child_card - 1 do
              hi.(c) <- hi.(c) +. counts.((v * child_card) + c)
            done
          done;
          for cut = 1 to pcard - 1 do
            (* move value (cut-1) from hi to lo *)
            for c = 0 to child_card - 1 do
              let w = counts.(((cut - 1) * child_card) + c) in
              lo.(c) <- lo.(c) +. w;
              hi.(c) <- hi.(c) -. w
            done;
            if Arrayx.sum lo > 0.0 && Arrayx.sum hi > 0.0 then
              consider
                (loglik_of_counts lo +. loglik_of_counts hi -. base)
                (child_card - 1 + 2)
                (D_thresh (pi, cut))
          done
        end
      end)
    parent_cards;
  !best

let partition_rows data ~pvar rows ~branches ~branch_of =
  let groups = Array.make branches [] in
  let pcol = data.Data.cols.(pvar) in
  (* Build in reverse then rev to keep original row order. *)
  Array.iter (fun r -> groups.(branch_of pcol.(r)) <- r :: groups.(branch_of pcol.(r))) rows;
  Counts.record_scan ();
  Array.map (fun l -> Array.of_list (List.rev l)) groups

let fit_with ops ~child_card ~parents ~parent_cards ~parent_ordinal ~total_weight
    ?param_budget ?gain_threshold root_leaf =
  let gain_threshold =
    match gain_threshold with
    | Some g -> g
    | None -> Arrayx.log2 (Float.max 2.0 total_weight) /. 2.0
  in
  let budget = match param_budget with Some b -> b | None -> max_int in
  let root = { content = M_leaf root_leaf } in
  let params = ref (child_card - 1) in
  let n_leaves = ref 1 and n_splits = ref 0 in
  (* Frontier of splittable leaves with their precomputed best candidate. *)
  let frontier = ref [] in
  let push mn leaf =
    match best_split_with ops ~child_card ~parent_cards ~parent_ordinal leaf with
    | Some cand -> frontier := (mn, leaf, cand) :: !frontier
    | None -> ()
  in
  push root root_leaf;
  let continue = ref true in
  while !continue do
    (* Best ratio candidate that fits the budget and clears the gain floor. *)
    let pick =
      List.fold_left
        (fun acc ((_, _, (gain, dp, _)) as item) ->
          if
            gain >= gain_threshold *. float_of_int dp
            && !params + dp <= budget
          then
            match acc with
            | Some (_, _, (g0, dp0, _))
              when g0 /. float_of_int dp0 >= gain /. float_of_int dp ->
              acc
            | _ -> Some item
          else acc)
        None !frontier
    in
    match pick with
    | None -> continue := false
    | Some (mn, leaf, (_, dp, desc)) ->
      frontier := List.filter (fun (m, _, _) -> m != mn) !frontier;
      (match desc with
      | D_multi pi ->
        let groups = ops.lo_branch_multi leaf pi in
        let kids = Array.map (fun g -> { content = M_leaf g }) groups in
        mn.content <- M_split (pi, M_multi kids);
        Array.iteri (fun i kid -> push kid groups.(i)) kids;
        n_leaves := !n_leaves + parent_cards.(pi) - 1;
        incr n_splits
      | D_thresh (pi, cut) ->
        let glo, ghi = ops.lo_branch_thresh leaf pi cut in
        let lo = { content = M_leaf glo } and hi = { content = M_leaf ghi } in
        mn.content <- M_split (pi, M_thresh (cut, lo, hi));
        push lo glo;
        push hi ghi;
        n_leaves := !n_leaves + 1;
        incr n_splits);
      params := !params + dp
  done;
  (* Freeze: leaves get maximum-likelihood distributions. *)
  let rec freeze mn =
    match mn.content with
    | M_leaf leaf ->
      let counts = ops.lo_child_counts leaf in
      Leaf { dist = Arrayx.normalize counts; weight = Arrayx.sum counts }
    | M_split (pi, M_multi kids) ->
      Split { pindex = pi; arms = Multi (Array.map freeze kids) }
    | M_split (pi, M_thresh (cut, lo, hi)) ->
      Split { pindex = pi; arms = Thresh (cut, freeze lo, freeze hi) }
  in
  {
    child_card;
    parents;
    parent_cards;
    parent_ordinal;
    root = freeze root;
    n_leaves = !n_leaves;
    n_splits = !n_splits;
    fitted_weight = total_weight;
  }

let check_increasing parents =
  for i = 1 to Array.length parents - 1 do
    if parents.(i - 1) >= parents.(i) then
      invalid_arg "Tree_cpd.fit: parents must be strictly increasing"
  done

(* Row-backed statistics: a leaf is its row-index set. *)
let row_ops data ~child ~parents =
  let child_card = data.Data.cards.(child) in
  let child_col = data.Data.cols.(child) in
  {
    lo_child_counts = (fun rows -> leaf_stats data ~child rows);
    lo_pair_counts =
      (fun rows pi ->
        let pcard = data.Data.cards.(parents.(pi)) in
        let pcol = data.Data.cols.(parents.(pi)) in
        (* counts.(pval * child_card + cval) *)
        let counts = Array.make (pcard * child_card) 0.0 in
        Array.iter
          (fun r ->
            let idx = (pcol.(r) * child_card) + child_col.(r) in
            counts.(idx) <- counts.(idx) +. 1.0)
          rows;
        Counts.record_scan ();
        counts);
    lo_branch_multi =
      (fun rows pi ->
        partition_rows data ~pvar:parents.(pi) rows
          ~branches:data.Data.cards.(parents.(pi)) ~branch_of:(fun v -> v));
    lo_branch_thresh =
      (fun rows pi cut ->
        let groups =
          partition_rows data ~pvar:parents.(pi) rows ~branches:2 ~branch_of:(fun v ->
              if v < cut then 0 else 1)
        in
        (groups.(0), groups.(1)));
  }

let fit data ~child ~parents ?param_budget ?gain_threshold () =
  check_increasing parents;
  let child_card = data.Data.cards.(child) in
  let parent_cards = Array.map (fun p -> data.Data.cards.(p)) parents in
  let parent_ordinal = Array.map (fun p -> data.Data.ordinal.(p)) parents in
  let all_rows = Array.init data.Data.n (fun i -> i) in
  fit_with (row_ops data ~child ~parents) ~child_card ~parents ~parent_cards
    ~parent_ordinal ~total_weight:(Data.total_weight data) ?param_budget
    ?gain_threshold all_rows

(* Count-backed statistics: a leaf is the conjunction of per-parent value
   masks its path imposes ([None] = unconstrained), and every query is an
   aggregation of one kernel group-by over (constrained parents ∪ queried
   parent, child).  The kernel scans the data once per distinct attribute
   set across the whole structure search; everything afterwards is
   arithmetic on the cached joint counts. *)
let count_ops kernel ~table data ~child ~parents ~parent_cards =
  let child_card = data.Data.cards.(child) in
  let n_rows = data.Data.n in
  let counts_over dims =
    let cards = Array.map (fun a -> data.Data.cards.(a)) dims in
    let cols = Array.map (fun a -> data.Data.cols.(a)) dims in
    Counts.counts kernel ~table ~dims ~cards ~cols ~n_rows
  in
  (* Joint over queried parent indices [qis] (increasing) and the child,
     filtered through the leaf's masks and projected by [slot].  The child
     is the fastest-varying digit of the kernel's prefix key. *)
  let aggregate masks qis ~out_size ~slot =
    let nq = Array.length qis in
    let dims = Array.append (Array.map (fun pi -> parents.(pi)) qis) [| child |] in
    let joint = counts_over dims in
    let out = Array.make out_size 0.0 in
    let digits = Array.make nq 0 in
    Array.iteri
      (fun cfg w ->
        if w > 0.0 then begin
          let cv = cfg mod child_card in
          let rest = ref (cfg / child_card) in
          for i = nq - 1 downto 0 do
            digits.(i) <- !rest mod parent_cards.(qis.(i));
            rest := !rest / parent_cards.(qis.(i))
          done;
          let ok = ref true in
          for i = 0 to nq - 1 do
            match masks.(qis.(i)) with
            | Some m when not m.(digits.(i)) -> ok := false
            | _ -> ()
          done;
          if !ok then begin
            let s = slot digits cv in
            out.(s) <- out.(s) +. w
          end
        end)
      joint;
    out
  in
  let constrained masks =
    let out = ref [] in
    Array.iteri (fun pi m -> if m <> None then out := pi :: !out) masks;
    Array.of_list (List.rev !out)
  in
  {
    lo_child_counts =
      (fun masks ->
        aggregate masks (constrained masks) ~out_size:child_card
          ~slot:(fun _ cv -> cv));
    lo_pair_counts =
      (fun masks pi ->
        let cons = constrained masks in
        let qis =
          if Array.exists (fun q -> q = pi) cons then cons
          else begin
            let merged = Array.append cons [| pi |] in
            Array.sort compare merged;
            merged
          end
        in
        let pos = ref 0 in
        Array.iteri (fun i q -> if q = pi then pos := i) qis;
        let pos = !pos in
        aggregate masks qis ~out_size:(parent_cards.(pi) * child_card)
          ~slot:(fun digits cv -> (digits.(pos) * child_card) + cv));
    lo_branch_multi =
      (fun masks pi ->
        let pcard = parent_cards.(pi) in
        Array.init pcard (fun v ->
            let keep = match masks.(pi) with Some m -> m.(v) | None -> true in
            let m = Array.make pcard false in
            m.(v) <- keep;
            let leaf = Array.copy masks in
            leaf.(pi) <- Some m;
            leaf));
    lo_branch_thresh =
      (fun masks pi cut ->
        let pcard = parent_cards.(pi) in
        let allow v = match masks.(pi) with Some m -> m.(v) | None -> true in
        let lo = Array.copy masks and hi = Array.copy masks in
        lo.(pi) <- Some (Array.init pcard (fun v -> v < cut && allow v));
        hi.(pi) <- Some (Array.init pcard (fun v -> v >= cut && allow v));
        (lo, hi));
  }

let fit_counted kernel ~table data ~child ~parents ?param_budget ?gain_threshold () =
  check_increasing parents;
  let child_card = data.Data.cards.(child) in
  let parent_cards = Array.map (fun p -> data.Data.cards.(p)) parents in
  let parent_ordinal = Array.map (fun p -> data.Data.ordinal.(p)) parents in
  let root_leaf = Array.make (Array.length parents) None in
  fit_with (count_ops kernel ~table data ~child ~parents ~parent_cards)
    ~child_card ~parents ~parent_cards ~parent_ordinal
    ~total_weight:(Data.total_weight data) ?param_budget ?gain_threshold root_leaf

let refit t data ~child =
  (* Keep the split structure, refresh every leaf's distribution from the
     rows that reach it — the parameter-only update of incremental
     maintenance. *)
  if data.Data.cards.(child) <> t.child_card then
    invalid_arg "Tree_cpd.refit: child arity mismatch";
  Array.iteri
    (fun i p ->
      if data.Data.cards.(p) <> t.parent_cards.(i) then
        invalid_arg "Tree_cpd.refit: parent arity mismatch")
    t.parents;
  let all_rows = Array.init data.Data.n (fun i -> i) in
  let rec rebuild node rows =
    match node with
    | Leaf _ ->
      let counts = leaf_stats data ~child rows in
      Leaf { dist = Arrayx.normalize counts; weight = Arrayx.sum counts }
    | Split { pindex; arms = Multi kids } ->
      let groups =
        partition_rows data ~pvar:t.parents.(pindex) rows
          ~branches:t.parent_cards.(pindex) ~branch_of:(fun v -> v)
      in
      Split { pindex; arms = Multi (Array.mapi (fun v kid -> rebuild kid groups.(v)) kids) }
    | Split { pindex; arms = Thresh (cut, lo, hi) } ->
      let groups =
        partition_rows data ~pvar:t.parents.(pindex) rows ~branches:2
          ~branch_of:(fun v -> if v < cut then 0 else 1)
      in
      Split { pindex; arms = Thresh (cut, rebuild lo groups.(0), rebuild hi groups.(1)) }
  in
  { t with root = rebuild t.root all_rows; fitted_weight = Data.total_weight data }

(* ---- explicit construction -------------------------------------------- *)

let leaf dist =
  Leaf { dist = Arrayx.normalize (Array.copy dist); weight = Arrayx.sum dist }

let of_tree ~child_card ~parents ~parent_cards ?parent_ordinal node =
  let np = Array.length parents in
  if Array.length parent_cards <> np then invalid_arg "Tree_cpd.of_tree: cards mismatch";
  let parent_ordinal =
    match parent_ordinal with Some o -> o | None -> Array.make np true
  in
  let n_leaves = ref 0 and n_splits = ref 0 in
  let rec check = function
    | Leaf { dist; _ } ->
      if Array.length dist <> child_card then invalid_arg "Tree_cpd.of_tree: leaf arity";
      incr n_leaves
    | Split { pindex; arms } ->
      if pindex < 0 || pindex >= np then invalid_arg "Tree_cpd.of_tree: bad pindex";
      incr n_splits;
      (match arms with
      | Multi kids ->
        if Array.length kids <> parent_cards.(pindex) then
          invalid_arg "Tree_cpd.of_tree: multiway arity";
        Array.iter check kids
      | Thresh (cut, lo, hi) ->
        if cut <= 0 || cut >= parent_cards.(pindex) then
          invalid_arg "Tree_cpd.of_tree: bad cut";
        check lo;
        check hi)
  in
  check node;
  {
    child_card;
    parents;
    parent_cards;
    parent_ordinal;
    root = node;
    n_leaves = !n_leaves;
    n_splits = !n_splits;
    fitted_weight = 0.0;
  }

(* ---- use --------------------------------------------------------------- *)

let rec walk node pvals =
  match node with
  | Leaf { dist; _ } -> dist
  | Split { pindex; arms = Multi kids } -> walk kids.(pvals.(pindex)) pvals
  | Split { pindex; arms = Thresh (cut, lo, hi) } ->
    walk (if pvals.(pindex) < cut then lo else hi) pvals

let dist t pvals =
  if Array.length pvals <> Array.length t.parents then
    invalid_arg "Tree_cpd.dist: wrong number of parent values";
  Array.iteri
    (fun i v ->
      if v < 0 || v >= t.parent_cards.(i) then
        invalid_arg "Tree_cpd.dist: parent value out of range")
    pvals;
  walk t.root pvals

let n_params t = (t.n_leaves * (t.child_card - 1)) + (2 * t.n_splits)
let n_parents t = Array.length t.parents

let used_parents t =
  let used = Array.make (Array.length t.parents) false in
  let rec go = function
    | Leaf _ -> ()
    | Split { pindex; arms } ->
      used.(pindex) <- true;
      (match arms with
      | Multi kids -> Array.iter go kids
      | Thresh (_, lo, hi) ->
        go lo;
        go hi)
  in
  go t.root;
  let out = ref [] in
  Array.iteri (fun i u -> if u then out := t.parents.(i) :: !out) used;
  Array.of_list (List.rev !out)

let loglik t data ~child =
  let child_col = data.Data.cols.(child) in
  let parent_cols = Array.map (fun p -> data.Data.cols.(p)) t.parents in
  let pvals = Array.make (Array.length t.parents) 0 in
  let acc = ref 0.0 in
  for r = 0 to data.Data.n - 1 do
    Array.iteri (fun i col -> pvals.(i) <- col.(r)) parent_cols;
    let d = walk t.root pvals in
    acc := !acc +. Arrayx.log2 (Float.max d.(child_col.(r)) 1e-300)
  done;
  Counts.record_scan ();
  !acc

let loglik_tabulated t data ~child =
  (* Same per-row sum as [loglik], with each leaf's log2 values computed
     once up front instead of once per row.  log2 on an identical input is
     deterministic in-process, and the row-order accumulation is unchanged,
     so the result is bitwise equal to [loglik]'s. *)
  let rec tab = function
    | Leaf { dist; weight } ->
      Leaf
        { dist = Array.map (fun p -> Arrayx.log2 (Float.max p 1e-300)) dist; weight }
    | Split { pindex; arms = Multi kids } ->
      Split { pindex; arms = Multi (Array.map tab kids) }
    | Split { pindex; arms = Thresh (cut, lo, hi) } ->
      Split { pindex; arms = Thresh (cut, tab lo, tab hi) }
  in
  let lroot = tab t.root in
  let child_col = data.Data.cols.(child) in
  let parent_cols = Array.map (fun p -> data.Data.cols.(p)) t.parents in
  let pvals = Array.make (Array.length t.parents) 0 in
  let acc = ref 0.0 in
  for r = 0 to data.Data.n - 1 do
    Array.iteri (fun i col -> pvals.(i) <- col.(r)) parent_cols;
    let d = walk lroot pvals in
    acc := !acc +. d.(child_col.(r))
  done;
  Counts.record_scan ();
  !acc

let to_factor ~var_of ~child t =
  let scope =
    Array.append [| (var_of child, (-1)) |]
      (Array.mapi (fun i p -> (var_of p, i)) t.parents)
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) scope;
  let vars = Array.map fst scope in
  for i = 1 to Array.length vars - 1 do
    if vars.(i - 1) = vars.(i) then invalid_arg "Tree_cpd.to_factor: var_of not injective"
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
      (walk t.root pvals).(!child_val))

let depth t =
  let rec go = function
    | Leaf _ -> 0
    | Split { arms = Multi kids; _ } ->
      1 + Array.fold_left (fun acc k -> max acc (go k)) 0 kids
    | Split { arms = Thresh (_, lo, hi); _ } -> 1 + max (go lo) (go hi)
  in
  go t.root

let pp ~names ppf t =
  let rec go indent node =
    match node with
    | Leaf { dist; weight } ->
      Format.fprintf ppf "%sleaf (w=%.0f) %a@." indent weight Dist.pp
        (Dist.of_weights (Array.copy dist))
    | Split { pindex; arms = Multi kids } ->
      Format.fprintf ppf "%ssplit %s:@." indent (names t.parents.(pindex));
      Array.iteri
        (fun v kid ->
          Format.fprintf ppf "%s =%d:@." indent v;
          go (indent ^ "  ") kid)
        kids
    | Split { pindex; arms = Thresh (cut, lo, hi) } ->
      Format.fprintf ppf "%ssplit %s < %d:@." indent (names t.parents.(pindex)) cut;
      go (indent ^ "  ") lo;
      Format.fprintf ppf "%s >= %d:@." indent cut;
      go (indent ^ "  ") hi
  in
  go "" t.root
