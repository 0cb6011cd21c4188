open Selest_db
module Estimator = Selest_est.Estimator

type result = {
  tree : Jointree.t;
  cost : float;
  n_subsets : int;
  n_fallbacks : int;
}

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let bits mask =
  let rec go acc i m =
    if m = 0 then List.rev acc
    else go (if m land 1 = 1 then i :: acc else acc) (i + 1) (m lsr 1)
  in
  go [] 0 mask

let best ?(bushy = false) ?fallback ~cost q =
  let tvs = Array.of_list (List.map fst q.Query.tvars) in
  let n = Array.length tvs in
  if n < 2 then invalid_arg "Optimizer.best: need at least two tuple variables";
  if n > Sys.int_size - 2 then invalid_arg "Optimizer.best: too many tuple variables";
  let idx tv =
    let rec go i = if tvs.(i) = tv then i else go (i + 1) in
    go 0
  in
  (* Adjacency bitmasks from the query's join edges. *)
  let adj = Array.make n 0 in
  List.iter
    (fun j ->
      let c = idx j.Query.child_tv and p = idx j.Query.parent_tv in
      adj.(c) <- adj.(c) lor (1 lsl p);
      adj.(p) <- adj.(p) lor (1 lsl c))
    q.Query.joins;
  let connected mask =
    let seed = mask land -mask in
    let reach = ref seed in
    let frontier = ref seed in
    while !frontier <> 0 do
      let next = ref 0 in
      List.iter (fun i -> next := !next lor (adj.(i) land mask)) (bits !frontier);
      frontier := !next land lnot !reach;
      reach := !reach lor !next
    done;
    !reach = mask
  in
  let full = (1 lsl n) - 1 in
  if not (connected full) then invalid_arg "Optimizer.best: disconnected join graph";
  (* One estimate per connected subset, memoized; Unsupported sub-queries
     fall back to the secondary oracle when one is given. *)
  let sizes : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let n_fallbacks = ref 0 in
  let price mask =
    match Hashtbl.find_opt sizes mask with
    | Some s -> s
    | None ->
      let sub = Jointree.subquery q (List.map (fun i -> tvs.(i)) (bits mask)) in
      let s =
        try cost sub
        with Estimator.Unsupported _ as exn -> (
          match fallback with
          | None -> raise exn
          | Some fb ->
            incr n_fallbacks;
            fb sub)
      in
      Hashtbl.add sizes mask s;
      s
  in
  (* dp.(mask) = cheapest tree producing that connected subset, with its
     C_out; singletons are free (scans are not charged by C_out). *)
  let dp : (int, float * Jointree.t) Hashtbl.t = Hashtbl.create 64 in
  let rec solve mask =
    match Hashtbl.find_opt dp mask with
    | Some r -> r
    | None ->
      let r =
        if popcount mask = 1 then (0.0, Jointree.Leaf tvs.(List.hd (bits mask)))
        else begin
          let here = price mask in
          let best_cost = ref infinity and best_tree = ref None in
          let consider c t = if c < !best_cost then begin
            best_cost := c;
            best_tree := Some t
          end in
          if bushy then begin
            (* Every split into two connected halves; fixing the lowest
               bit on the left halves the enumeration (Join(a,b) and
               Join(b,a) cost the same). *)
            let low = mask land -mask in
            let rec submasks s =
              if s <> 0 then begin
                let left = s lor low in
                let right = mask land lnot left in
                if right <> 0 && connected left && connected right then begin
                  let cl, tl = solve left and cr, tr = solve right in
                  consider (cl +. cr) (Jointree.Join (tl, tr))
                end;
                submasks ((s - 1) land mask land lnot low)
              end
            in
            submasks (mask land lnot low);
            (* low alone on the left *)
            let right = mask land lnot low in
            if connected right then begin
              let cl, tl = solve low and cr, tr = solve right in
              consider (cl +. cr) (Jointree.Join (tl, tr))
            end
          end
          else
            (* Left-deep: peel one tuple variable off the right. *)
            List.iter
              (fun i ->
                let rest = mask land lnot (1 lsl i) in
                if connected rest then begin
                  let cr, tr = solve rest in
                  consider cr (Jointree.Join (tr, Jointree.Leaf tvs.(i)))
                end)
              (bits mask);
          match !best_tree with
          | Some t -> (here +. !best_cost, t)
          | None -> assert false (* mask connected => a valid step exists *)
        end
      in
      Hashtbl.add dp mask r;
      r
  in
  let cost, tree = solve full in
  { tree; cost; n_subsets = Hashtbl.length sizes; n_fallbacks = !n_fallbacks }

let order_cost ~cost q order =
  let rec go acc prefix = function
    | [] -> acc
    | tv :: rest ->
      let prefix = tv :: prefix in
      let acc =
        if List.length prefix >= 2 then acc +. cost (Jointree.subquery q prefix)
        else acc
      in
      go acc prefix rest
  in
  go 0.0 [] order

let sum_intermediates ~cost q tree =
  let rec go = function
    | Jointree.Leaf _ -> 0.0
    | Jointree.Join (l, r) as t ->
      go l +. go r +. cost (Jointree.subquery q (Jointree.leaves t))
  in
  go tree

let independence db =
  let est = lazy (Selest_est.Avi.build db) in
  fun q -> (Lazy.force est).Estimator.estimate q

let rank_correlation xs ys =
  if List.length xs <> List.length ys then invalid_arg "Optimizer.rank_correlation";
  let ranks l =
    let arr = Array.of_list l in
    let idx = Array.init (Array.length arr) (fun i -> i) in
    Array.sort (fun a b -> compare arr.(a) arr.(b)) idx;
    let r = Array.make (Array.length arr) 0.0 in
    (* average ranks for ties *)
    let i = ref 0 in
    while !i < Array.length idx do
      let j = ref !i in
      while !j + 1 < Array.length idx && arr.(idx.(!j + 1)) = arr.(idx.(!i)) do
        incr j
      done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = ranks xs and ry = ranks ys in
  let n = Array.length rx in
  if n < 2 then 1.0
  else begin
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
    for i = 0 to n - 1 do
      num := !num +. ((rx.(i) -. mx) *. (ry.(i) -. my));
      dx := !dx +. ((rx.(i) -. mx) ** 2.0);
      dy := !dy +. ((ry.(i) -. my) ** 2.0)
    done;
    if !dx = 0.0 || !dy = 0.0 then 1.0 else !num /. sqrt (!dx *. !dy)
  end
