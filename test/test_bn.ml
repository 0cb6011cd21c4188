open Selest_bn
open Selest_db

let check_float = Alcotest.(check (float 1e-6))

(* ---- Dag ----------------------------------------------------------------- *)

let test_dag_basics () =
  let d = Dag.empty 4 in
  let d = Dag.add_edge d ~src:0 ~dst:1 in
  let d = Dag.add_edge d ~src:1 ~dst:2 in
  let d = Dag.add_edge d ~src:0 ~dst:2 in
  Alcotest.(check int) "edges" 3 (Dag.n_edges d);
  Alcotest.(check (array int)) "parents sorted" [| 0; 1 |] (Dag.parents d 2);
  Alcotest.(check (array int)) "children" [| 1; 2 |] (Dag.children d 0);
  Alcotest.(check bool) "has edge" true (Dag.has_edge d ~src:1 ~dst:2);
  let d2 = Dag.remove_edge d ~src:0 ~dst:2 in
  Alcotest.(check (array int)) "removed" [| 1 |] (Dag.parents d2 2)

let test_dag_cycle_rejection () =
  let d = Dag.add_edge (Dag.empty 3) ~src:0 ~dst:1 in
  let d = Dag.add_edge d ~src:1 ~dst:2 in
  Alcotest.(check bool) "detects cycle" true (Dag.creates_cycle d ~src:2 ~dst:0);
  Alcotest.check_raises "raises" (Invalid_argument "Dag.add_edge: would create a cycle")
    (fun () -> ignore (Dag.add_edge d ~src:2 ~dst:0));
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.add_edge: self-loop") (fun () ->
      ignore (Dag.add_edge d ~src:1 ~dst:1))

let test_dag_topological () =
  let d = Dag.add_edge (Dag.empty 4) ~src:2 ~dst:0 in
  let d = Dag.add_edge d ~src:0 ~dst:3 in
  let order = Dag.topological_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "2 before 0" true (pos.(2) < pos.(0));
  Alcotest.(check bool) "0 before 3" true (pos.(0) < pos.(3))

(* ---- fixture data --------------------------------------------------------- *)

(* The Education -> Income -> HomeOwner example of Sec. 2.1. *)
let eih_data =
  (* 1000 rows sampled deterministically from the paper's Fig. 1 joint. *)
  let joint =
    [|
      (* e, i, h, weight*1000 *)
      (0, 0, 0, 270); (0, 0, 1, 30); (0, 1, 0, 105); (0, 1, 1, 45); (0, 2, 0, 5);
      (0, 2, 1, 45); (1, 0, 0, 135); (1, 0, 1, 15); (1, 1, 0, 63); (1, 1, 1, 27);
      (1, 2, 0, 6); (1, 2, 1, 54); (2, 0, 0, 18); (2, 0, 1, 2); (2, 1, 0, 42);
      (2, 1, 1, 18); (2, 2, 0, 12); (2, 2, 1, 108);
    |]
  in
  let e = ref [] and i = ref [] and h = ref [] in
  Array.iter
    (fun (ev, iv, hv, w) ->
      for _ = 1 to w do
        e := ev :: !e;
        i := iv :: !i;
        h := hv :: !h
      done)
    joint;
  Data.create ~names:[| "E"; "I"; "H" |] ~cards:[| 3; 3; 2 |]
    ~ordinal:[| false; true; false |]
    [| Array.of_list !e; Array.of_list !i; Array.of_list !h |]

let test_data_of_table () =
  let db = Selest_synth.Census.generate ~rows:100 ~seed:0 () in
  let data = Data.of_table (Database.table db "person") in
  Alcotest.(check int) "vars" 12 (Data.n_vars data);
  check_float "weight" 100.0 (Data.total_weight data)

let test_data_validation () =
  Alcotest.(check bool) "rejects out-of-range" true
    (try
       ignore (Data.create ~names:[| "A" |] ~cards:[| 2 |] [| [| 0; 5 |] |]);
       false
     with Invalid_argument _ -> true)

(* ---- Table CPDs ------------------------------------------------------------ *)

let test_table_cpd_fit () =
  let cpd = Table_cpd.fit eih_data ~child:2 ~parents:[| 1 |] in
  (* P(H=1 | I=2) = 0.9 in the paper's Fig. 1(b). *)
  let d = Table_cpd.dist cpd [| 2 |] in
  check_float "P(h|i=high)" 0.9 d.(1);
  let d0 = Table_cpd.dist cpd [| 0 |] in
  check_float "P(h|i=low)" 0.1 d0.(1);
  Alcotest.(check int) "params" 3 (Table_cpd.n_params cpd)

let test_table_cpd_marginal () =
  let cpd = Table_cpd.fit eih_data ~child:0 ~parents:[||] in
  let d = Table_cpd.dist cpd [||] in
  check_float "P(E=hs)" 0.5 d.(0);
  check_float "P(E=col)" 0.3 d.(1)

let test_table_cpd_unseen_config_uniform () =
  let data =
    Data.create ~names:[| "A"; "B" |] ~cards:[| 2; 2 |]
      [| [| 0; 0 |]; [| 0; 1 |] |]
  in
  let cpd = Table_cpd.fit data ~child:1 ~parents:[| 0 |] in
  let d = Table_cpd.dist cpd [| 1 |] in
  check_float "unseen parent config is uniform" 0.5 d.(0)

let test_table_cpd_factor () =
  let cpd = Table_cpd.fit eih_data ~child:2 ~parents:[| 1 |] in
  let f = Table_cpd.to_factor ~var_of:(fun v -> v) ~child:2 cpd in
  Alcotest.(check (array int)) "scope" [| 1; 2 |] (Selest_prob.Factor.vars f);
  check_float "entry" 0.9 (Selest_prob.Factor.get f [| 2; 1 |]);
  (* renaming that reverses the order *)
  let g = Table_cpd.to_factor ~var_of:(fun v -> 10 - v) ~child:2 cpd in
  Alcotest.(check (array int)) "renamed scope" [| 8; 9 |] (Selest_prob.Factor.vars g);
  check_float "renamed entry" 0.9 (Selest_prob.Factor.get g [| 1; 2 |])

(* ---- Tree CPDs -------------------------------------------------------------- *)

let test_tree_cpd_fit_matches_conditional () =
  let cpd = Tree_cpd.fit eih_data ~child:2 ~parents:[| 1 |] ~gain_threshold:1.0 () in
  let d = Tree_cpd.dist cpd [| 2 |] in
  check_float "tree P(h|i=high)" 0.9 d.(1);
  Alcotest.(check (array int)) "uses income" [| 1 |] (Tree_cpd.used_parents cpd)

let test_tree_cpd_ignores_useless_parent () =
  (* H is independent of E given nothing here: E column is random noise
     w.r.t. a constant-distribution H. *)
  let n = 2000 in
  let rng = Selest_util.Rng.create 2 in
  let e = Array.init n (fun _ -> Selest_util.Rng.int rng 3) in
  let h = Array.init n (fun _ -> Selest_util.Rng.int rng 2) in
  let data = Data.create ~names:[| "E"; "H" |] ~cards:[| 3; 2 |] [| e; h |] in
  let cpd = Tree_cpd.fit data ~child:1 ~parents:[| 0 |] () in
  Alcotest.(check (array int)) "no split on noise" [||] (Tree_cpd.used_parents cpd);
  Alcotest.(check int) "single leaf" 1 cpd.Tree_cpd.n_leaves

let test_tree_cpd_param_budget () =
  let cpd =
    Tree_cpd.fit eih_data ~child:2 ~parents:[| 0; 1 |] ~param_budget:1 ~gain_threshold:0.0 ()
  in
  Alcotest.(check int) "respects budget" 1 (Tree_cpd.n_params cpd);
  let big =
    Tree_cpd.fit eih_data ~child:2 ~parents:[| 0; 1 |] ~param_budget:1000
      ~gain_threshold:0.0 ()
  in
  Alcotest.(check bool) "grows when allowed" true (Tree_cpd.n_params big > 1)

let test_tree_threshold_splits () =
  (* Child flips when ordinal parent crosses 5: a single threshold split
     should capture it more cheaply than a 10-way split. *)
  let n = 1000 in
  let rng = Selest_util.Rng.create 4 in
  let p = Array.init n (fun _ -> Selest_util.Rng.int rng 10) in
  let c = Array.map (fun v -> if v < 5 then 0 else 1) p in
  let data =
    Data.create ~names:[| "P"; "C" |] ~cards:[| 10; 2 |] ~ordinal:[| true; false |]
      [| p; c |]
  in
  let cpd = Tree_cpd.fit data ~child:1 ~parents:[| 0 |] () in
  Alcotest.(check int) "two leaves" 2 cpd.Tree_cpd.n_leaves;
  check_float "lo branch" 1.0 (Tree_cpd.dist cpd [| 3 |]).(0);
  check_float "hi branch" 1.0 (Tree_cpd.dist cpd [| 7 |]).(1);
  Alcotest.(check int) "depth 1" 1 (Tree_cpd.depth cpd)

let test_tree_vs_table_loglik () =
  (* With unlimited structure, a tree can always match the table fit. *)
  let table = Table_cpd.fit eih_data ~child:2 ~parents:[| 0; 1 |] in
  let tree =
    Tree_cpd.fit eih_data ~child:2 ~parents:[| 0; 1 |] ~gain_threshold:0.0 ()
  in
  let ll_table = Table_cpd.loglik table eih_data ~child:2 in
  let ll_tree = Tree_cpd.loglik tree eih_data ~child:2 in
  Alcotest.(check bool) "tree reaches table loglik" true (ll_tree >= ll_table -. 1e-6)

let test_tree_explicit_construction () =
  let node =
    Tree_cpd.Split
      {
        pindex = 0;
        arms =
          Tree_cpd.Thresh (1, Tree_cpd.leaf [| 1.0; 0.0 |], Tree_cpd.leaf [| 0.0; 1.0 |]);
      }
  in
  let cpd = Tree_cpd.of_tree ~child_card:2 ~parents:[| 5 |] ~parent_cards:[| 3 |] node in
  check_float "lo" 1.0 (Tree_cpd.dist cpd [| 0 |]).(0);
  check_float "hi" 1.0 (Tree_cpd.dist cpd [| 2 |]).(1);
  Alcotest.(check int) "params: 2 leaves + split" 4 (Tree_cpd.n_params cpd)

(* ---- Bn + Ve ----------------------------------------------------------------- *)

let eih_bn kind =
  let dag = Dag.add_edge (Dag.empty 3) ~src:0 ~dst:1 in
  let dag = Dag.add_edge dag ~src:1 ~dst:2 in
  Bn.fit eih_data ~dag ~kind

let test_bn_joint_prob () =
  let bn = eih_bn Cpd.Tables in
  (* P(e=0,i=0,h=0) = 0.5 * 0.6 * 0.9 = 0.27 as in Fig. 1(a). *)
  check_float "chain rule" 0.27 (Bn.joint_prob bn [| 0; 0; 0 |]);
  check_float "another cell" 0.108 (Bn.joint_prob bn [| 2; 2; 1 |])

let test_bn_factored_equals_joint () =
  (* The BN with the correct structure reproduces the exact joint: the
     Fig. 1 sanity check. *)
  let bn = eih_bn Cpd.Tables in
  let joint = Data.contingency eih_data [| 0; 1; 2 |] in
  let n = Selest_prob.Contingency.total joint in
  let max_err = ref 0.0 in
  Selest_prob.Contingency.iter joint (fun values w ->
      let p = Bn.joint_prob bn values in
      max_err := Float.max !max_err (abs_float (p -. (w /. n))));
  Alcotest.(check bool) "factored = joint" true (!max_err < 1e-9)

(* P(evidence) on the oracle engine, over the network's CPD factors. *)
let p_evidence bn evidence = Ve.Reference.prob_of_evidence (Bn.factors bn) evidence

let test_bn_prob_of_evidence () =
  let bn = eih_bn Cpd.Tables in
  (* P(i=2, h=1) = sum over e of joint. *)
  let expected = 0.045 +. 0.054 +. 0.108 in
  check_float "P(i=high, h=yes)" expected (p_evidence bn [ (1, Query.Eq 2); (2, Query.Eq 1) ]);
  (* Range evidence: P(i >= 1). *)
  check_float "P(i>=med)"
    (1.0 -. 0.27 -. 0.03 -. 0.135 -. 0.015 -. 0.018 -. 0.002)
    (p_evidence bn [ (1, Query.Range (1, 2)) ]);
  check_float "empty evidence" 1.0 (p_evidence bn [])

let test_bn_marginal_and_sample () =
  let bn = eih_bn Cpd.Tables in
  check_float "marginal I" 0.47 (p_evidence bn [ (1, Query.Eq 0) ]);
  let rng = Selest_util.Rng.create 12 in
  let counts = Array.make 3 0 in
  for _ = 1 to 20_000 do
    let s = Bn.sample rng bn in
    counts.(s.(1)) <- counts.(s.(1)) + 1
  done;
  let p0 = float_of_int counts.(0) /. 20_000.0 in
  Alcotest.(check bool) "sampler calibrated" true (abs_float (p0 -. 0.47) < 0.02)

let test_bn_loglik_improves_with_structure () =
  let empty = Bn.fit eih_data ~dag:(Dag.empty 3) ~kind:Cpd.Tables in
  let chain = eih_bn Cpd.Tables in
  Alcotest.(check bool) "structure helps" true (Bn.loglik chain eih_data > Bn.loglik empty eih_data)

(* VE vs brute-force enumeration on random BNs. *)
let gen_random_bn_and_evidence =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  let rng = Selest_util.Rng.create seed in
  let n_vars = 3 + Selest_util.Rng.int rng 2 in
  let cards = Array.init n_vars (fun _ -> 2 + Selest_util.Rng.int rng 2) in
  (* random DAG respecting variable order *)
  let dag = ref (Dag.empty n_vars) in
  for child = 1 to n_vars - 1 do
    for parent = 0 to child - 1 do
      if Selest_util.Rng.float rng < 0.4 then dag := Dag.add_edge !dag ~src:parent ~dst:child
    done
  done;
  (* random data *)
  let n_rows = 200 in
  let cols = Array.map (fun c -> Array.init n_rows (fun _ -> Selest_util.Rng.int rng c)) cards in
  let data =
    Data.create
      ~names:(Array.init n_vars (fun i -> Printf.sprintf "V%d" i))
      ~cards cols
  in
  let bn = Bn.fit data ~dag:!dag ~kind:Cpd.Tables in
  (* random evidence over a subset *)
  let evidence =
    List.filter_map
      (fun v ->
        if Selest_util.Rng.float rng < 0.5 then
          Some (v, Query.Eq (Selest_util.Rng.int rng cards.(v)))
        else None)
      (List.init n_vars (fun i -> i))
  in
  pure (bn, cards, evidence)

let brute_force_prob bn cards evidence =
  let n = Array.length cards in
  let total = ref 0.0 in
  let rec go v asg =
    if v = n then begin
      if
        List.for_all (fun (var, pred) -> Query.pred_holds pred asg.(var)) evidence
      then total := !total +. Bn.joint_prob bn asg
    end
    else
      for x = 0 to cards.(v) - 1 do
        asg.(v) <- x;
        go (v + 1) asg
      done
  in
  go 0 (Array.make n 0);
  !total

let prop_ve_matches_enumeration =
  QCheck2.Test.make ~name:"VE = enumeration" ~count:100 gen_random_bn_and_evidence
    (fun (bn, cards, evidence) ->
      let ve = p_evidence bn evidence in
      let bf = brute_force_prob bn cards evidence in
      abs_float (ve -. bf) < 1e-9)

let prop_ve_total_is_one =
  QCheck2.Test.make ~name:"VE total mass 1" ~count:100 gen_random_bn_and_evidence
    (fun (bn, _, _) -> abs_float (p_evidence bn [] -. 1.0) < 1e-9)

let test_ve_schedule () =
  let bn = eih_bn Cpd.Tables in
  let fs = Bn.factors bn in
  let ev = [ (0, Query.Eq 1); (2, Query.Eq 1) ] in
  (* the schedule is the order plus per-step predictions, consistently *)
  let sched = Ve.Schedule.plan ~keep:[||] fs in
  Alcotest.(check (list int))
    "order = step vars"
    (List.map (fun s -> s.Ve.Schedule.var) sched.Ve.Schedule.steps)
    sched.Ve.Schedule.order;
  Alcotest.(check (list int))
    "plan_order agrees" (Ve.plan_order ~keep:[||] fs) sched.Ve.Schedule.order;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        "predicted entries positive" true
        (s.Ve.Schedule.predicted_entries >= 1))
    sched.Ve.Schedule.steps;
  (* the evidence restricts both variables it names, and the schedule
     planned on shapes alone is the one planned on the sliced factors *)
  match Ve.merged_masks fs ev with
  | None -> Alcotest.fail "evidence is satisfiable"
  | Some merged ->
    let restricted = Ve.restricted_of_masks merged in
    Alcotest.(check (list int)) "restricted vars" [ 0; 2 ] restricted;
    let sliced =
      List.map
        (fun f ->
          List.fold_left
            (fun f (v, pred) ->
              match pred with
              | Query.Eq x -> Selest_prob.Factor.Reference.restrict f v x
              | _ -> f)
            f ev)
        fs
    in
    let shapes =
      List.map (fun f -> (Selest_prob.Factor.vars f, Selest_prob.Factor.cards f)) fs
    in
    Alcotest.(check (list int))
      "shape schedule = sliced schedule"
      (Ve.plan_order ~keep:[||] sliced)
      (Ve.Schedule.of_shapes ~keep:[||] ~restricted:(Array.of_list restricted) shapes)
        .Ve.Schedule.order

let test_normalize_evidence () =
  let bn = eih_bn Cpd.Tables in
  let fs = Bn.factors bn in
  let masks ev = Ve.merged_masks fs ev in
  (* all-true predicates leave a full mask and restrict nothing (cards
     are E=3, I=3, H=2) *)
  Alcotest.(check bool) "full range is a full mask" true
    (masks [ (1, Query.Range (0, 2)) ] = Some [ (1, [| true; true; true |]) ]);
  Alcotest.(check bool) "full set is a full mask" true
    (masks [ (2, Query.In_set [ 1; 0 ]) ] = Some [ (2, [| true; true |]) ]);
  Alcotest.(check (list int)) "full masks restrict nothing" []
    (Ve.restricted_of_masks (Option.get (masks [ (1, Query.Range (0, 2)) ])));
  (* conjunction on one variable narrows to the intersection *)
  let conj = masks [ (1, Query.In_set [ 0; 2 ]); (1, Query.Range (1, 2)) ] in
  Alcotest.(check bool) "conjunction intersects" true
    (conj = Some [ (1, [| false; false; true |]) ]);
  Alcotest.(check (list int)) "a one-value conjunction restricts" [ 1 ]
    (Ve.restricted_of_masks (Option.get conj));
  (* contradictory conjunction *)
  Alcotest.(check bool) "contradiction" true
    (masks [ (1, Query.Eq 0); (1, Query.Eq 1) ] = None);
  (* a no-op predicate leaves the probability untouched *)
  check_float "no-op evidence mass" 1.0
    (Ve.Reference.prob_of_evidence fs [ (1, Query.Range (0, 2)) ]);
  Alcotest.(check bool) "out-of-range value rejected" true
    (try
       ignore (masks [ (1, Query.Eq 99) ]);
       false
     with Invalid_argument _ -> true)

let test_plan_order_covers_non_keep () =
  let bn = eih_bn Cpd.Tables in
  let order = Ve.plan_order ~keep:[| 1 |] (Bn.factors bn) in
  Alcotest.(check (list int)) "eliminates exactly the non-keep vars"
    [ 0; 2 ]
    (List.sort compare order);
  Alcotest.(check bool) "keep var untouched" true (not (List.mem 1 order))

let test_refit_same_data_is_noop () =
  let tree = Tree_cpd.fit eih_data ~child:2 ~parents:[| 0; 1 |] ~gain_threshold:0.0 () in
  let refit = Tree_cpd.refit tree eih_data ~child:2 in
  Alcotest.(check int) "same leaves" tree.Tree_cpd.n_leaves refit.Tree_cpd.n_leaves;
  Alcotest.(check int) "same splits" tree.Tree_cpd.n_splits refit.Tree_cpd.n_splits;
  (* distributions unchanged *)
  for e = 0 to 2 do
    for i = 0 to 2 do
      let a = Tree_cpd.dist tree [| e; i |] and b = Tree_cpd.dist refit [| e; i |] in
      Array.iteri (fun k x -> check_float "same leaf dist" x b.(k)) a
    done
  done

let test_refit_updates_parameters () =
  (* New data with inverted H|I relationship: structure kept, leaves move. *)
  let inverted =
    let e = ref [] and i = ref [] and h = ref [] in
    Array.iter
      (fun (ev, iv, hv, w) ->
        for _ = 1 to w do
          e := ev :: !e;
          i := iv :: !i;
          h := (1 - hv) :: !h
        done)
      [| (0, 0, 0, 270); (0, 0, 1, 30); (0, 2, 0, 5); (0, 2, 1, 45);
         (1, 1, 0, 63); (1, 1, 1, 27); (2, 2, 0, 12); (2, 2, 1, 108) |]
    |> fun () ->
    Data.create ~names:[| "E"; "I"; "H" |] ~cards:[| 3; 3; 2 |]
      [| Array.of_list !e; Array.of_list !i; Array.of_list !h |]
  in
  let tree = Tree_cpd.fit eih_data ~child:2 ~parents:[| 1 |] ~gain_threshold:1.0 () in
  let refit = Tree_cpd.refit tree inverted ~child:2 in
  Alcotest.(check int) "structure kept" tree.Tree_cpd.n_splits refit.Tree_cpd.n_splits;
  (* P(h=1 | i=high) flipped from 0.9 to ~0.1-ish *)
  Alcotest.(check bool) "parameters moved" true
    ((Tree_cpd.dist refit [| 2 |]).(1) < 0.5)

let test_cpd_refit_dispatch () =
  let table = Cpd.fit Cpd.Tables eih_data ~child:2 ~parents:[| 1 |] () in
  let tree = Cpd.fit Cpd.Trees eih_data ~child:2 ~parents:[| 1 |] () in
  let rt = Cpd.refit table eih_data ~child:2 in
  let rr = Cpd.refit tree eih_data ~child:2 in
  check_float "table refit" (Cpd.dist table [| 2 |]).(1) (Cpd.dist rt [| 2 |]).(1);
  check_float "tree refit" (Cpd.dist tree [| 2 |]).(1) (Cpd.dist rr [| 2 |]).(1)

(* Random-fit properties for tree CPDs. *)
let prop_tree_dists_normalized =
  QCheck2.Test.make ~name:"tree CPD rows are distributions" ~count:100
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Selest_util.Rng.create seed in
      let n = 300 in
      let cards = [| 3; 4; 2 |] in
      let cols =
        Array.map (fun c -> Array.init n (fun _ -> Selest_util.Rng.int rng c)) cards
      in
      let data =
        Data.create ~names:[| "A"; "B"; "C" |] ~cards ~ordinal:[| true; true; false |]
          cols
      in
      let cpd = Tree_cpd.fit data ~child:2 ~parents:[| 0; 1 |] ~gain_threshold:0.0 () in
      let ok = ref true in
      for a = 0 to 2 do
        for b = 0 to 3 do
          let d = Tree_cpd.dist cpd [| a; b |] in
          let total = Array.fold_left ( +. ) 0.0 d in
          if abs_float (total -. 1.0) > 1e-9 then ok := false;
          Array.iter (fun p -> if p < -1e-12 then ok := false) d
        done
      done;
      !ok)

let prop_tree_loglik_monotone_in_budget =
  QCheck2.Test.make ~name:"tree loglik non-decreasing in parameter budget" ~count:50
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Selest_util.Rng.create seed in
      let n = 400 in
      let p = Array.init n (fun _ -> Selest_util.Rng.int rng 6) in
      let c = Array.map (fun v -> if Selest_util.Rng.int rng 4 = 0 then 1 - (v mod 2) else v mod 2) p in
      let data =
        Data.create ~names:[| "P"; "C" |] ~cards:[| 6; 2 |] ~ordinal:[| true; false |]
          [| p; c |]
      in
      let ll budget =
        let cpd = Tree_cpd.fit data ~child:1 ~parents:[| 0 |] ~param_budget:budget ~gain_threshold:0.0 () in
        Tree_cpd.loglik cpd data ~child:1
      in
      ll 20 >= ll 1 -. 1e-9)

(* ---- Scores ------------------------------------------------------------------ *)

let test_score_cache_incremental () =
  let cache = Score.create_cache ~kind:Cpd.Tables eih_data in
  let f1 = Score.family cache ~child:2 ~parents:[| 1 |] in
  let f2 = Score.family cache ~child:2 ~parents:[| 1 |] in
  Alcotest.(check int) "one evaluation" 1 (Score.n_evaluations cache);
  Alcotest.(check bool) "same object" true (f1 == f2)

(* The structure learner is Prm.Learn on a one-table database without
   foreign keys: its incremental climber (per-family delta move cache +
   legality oracle) must retrace the naive reference climber move for
   move, with an identical family-fit count.  Random data of 3-5 columns
   of 2-4 values and 150-299 rows, both CPD kinds, both byte-aware rules,
   restarts exercising walk/restore invalidation. *)
let prop_incremental_learn_matches_reference =
  QCheck2.Test.make ~name:"incremental climber = reference climber" ~count:15 ~long_factor:20
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let module Learn = Selest_prm.Learn in
      let rng = Selest_util.Rng.create seed in
      let n_vars = 3 + Selest_util.Rng.int rng 3 in
      let cards = Array.init n_vars (fun _ -> 2 + Selest_util.Rng.int rng 3) in
      let n_rows = 150 + Selest_util.Rng.int rng 150 in
      let cols =
        Array.map (fun c -> Array.init n_rows (fun _ -> Selest_util.Rng.int rng c)) cards
      in
      let ts =
        Schema.table_schema ~name:"t"
          ~attrs:(List.init n_vars (fun i -> (Printf.sprintf "V%d" i, Value.ints cards.(i))))
          ()
      in
      let db = Database.create (Schema.create [ ts ]) [ Table.create ts ~cols ~fk_cols:[||] ] in
      let cfg =
        {
          (Learn.bn_config ~budget_bytes:(800 + Selest_util.Rng.int rng 1_500)) with
          Learn.kind = (if Selest_util.Rng.int rng 2 = 0 then Cpd.Tables else Cpd.Trees);
          rule = (if Selest_util.Rng.int rng 2 = 0 then Learn.Ssn else Learn.Mdl);
          max_parents = 2 + Selest_util.Rng.int rng 2;
          random_restarts = 1 + Selest_util.Rng.int rng 2;
          random_walk_length = 2 + Selest_util.Rng.int rng 3;
          seed;
        }
      in
      let fast = Learn.learn ~config:cfg db in
      let naive = Learn.learn_reference ~config:cfg db in
      let fingerprint m = Selest_util.Sexp.to_string (Selest_prm.Serialize.to_sexp m) in
      fast.Learn.trajectory = naive.Learn.trajectory
      && fast.Learn.loglik = naive.Learn.loglik
      && fast.Learn.bytes = naive.Learn.bytes
      && fast.Learn.family_evaluations = naive.Learn.family_evaluations
      && fingerprint fast.Learn.model = fingerprint naive.Learn.model)

let test_score_mi () =
  (* MI(E;I) > MI(E;H): conditional independence E ⊥ H | I weakens the
     E-H link relative to the direct one. *)
  let mi_ei = Score.mutual_information eih_data [| 0 |] [| 1 |] in
  let mi_eh = Score.mutual_information eih_data [| 0 |] [| 2 |] in
  Alcotest.(check bool) "direct beats mediated" true (mi_ei > mi_eh)

let () =
  Alcotest.run "bn"
    [
      ( "dag",
        [
          Alcotest.test_case "basics" `Quick test_dag_basics;
          Alcotest.test_case "cycle rejection" `Quick test_dag_cycle_rejection;
          Alcotest.test_case "topological order" `Quick test_dag_topological;
        ] );
      ( "data",
        [
          Alcotest.test_case "of_table" `Quick test_data_of_table;
          Alcotest.test_case "validation" `Quick test_data_validation;
        ] );
      ( "table-cpd",
        [
          Alcotest.test_case "fit" `Quick test_table_cpd_fit;
          Alcotest.test_case "marginal" `Quick test_table_cpd_marginal;
          Alcotest.test_case "unseen config" `Quick test_table_cpd_unseen_config_uniform;
          Alcotest.test_case "to_factor" `Quick test_table_cpd_factor;
        ] );
      ( "tree-cpd",
        [
          Alcotest.test_case "fit matches conditional" `Quick test_tree_cpd_fit_matches_conditional;
          Alcotest.test_case "ignores useless parent" `Quick test_tree_cpd_ignores_useless_parent;
          Alcotest.test_case "param budget" `Quick test_tree_cpd_param_budget;
          Alcotest.test_case "threshold splits" `Quick test_tree_threshold_splits;
          Alcotest.test_case "tree reaches table loglik" `Quick test_tree_vs_table_loglik;
          Alcotest.test_case "explicit construction" `Quick test_tree_explicit_construction;
        ] );
      ( "bn-inference",
        [
          Alcotest.test_case "joint prob" `Quick test_bn_joint_prob;
          Alcotest.test_case "factored = joint (Fig 1)" `Quick test_bn_factored_equals_joint;
          Alcotest.test_case "prob of evidence" `Quick test_bn_prob_of_evidence;
          Alcotest.test_case "marginal and sample" `Quick test_bn_marginal_and_sample;
          Alcotest.test_case "structure improves loglik" `Quick test_bn_loglik_improves_with_structure;
          Alcotest.test_case "schedule" `Quick test_ve_schedule;
          Alcotest.test_case "normalize evidence" `Quick test_normalize_evidence;
          Alcotest.test_case "plan order" `Quick test_plan_order_covers_non_keep;
        ] );
      ( "refit",
        [
          Alcotest.test_case "same data noop" `Quick test_refit_same_data_is_noop;
          Alcotest.test_case "updates parameters" `Quick test_refit_updates_parameters;
          Alcotest.test_case "cpd dispatch" `Quick test_cpd_refit_dispatch;
        ] );
      ( "tree-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tree_dists_normalized; prop_tree_loglik_monotone_in_budget ] );
      ( "ve-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ve_matches_enumeration;
            prop_ve_total_is_one;
          ] );
      ( "learning",
        [
          Alcotest.test_case "score cache incremental" `Quick test_score_cache_incremental;
          Alcotest.test_case "mutual information" `Quick test_score_mi;
        ] );
      ( "learn-incremental",
        List.map QCheck_alcotest.to_alcotest [ prop_incremental_learn_matches_reference ]
      );
    ]
