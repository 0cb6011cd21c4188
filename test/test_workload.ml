open Selest_db
open Selest_workload
module Jointree = Selest_opt.Jointree
module Optimizer = Selest_opt.Optimizer

let check_float = Alcotest.(check (float 1e-6))

let census = lazy (Selest_synth.Census.generate ~rows:5_000 ~seed:33 ())
let tb = lazy (Selest_synth.Tb.generate ~patients:300 ~contacts:2_000 ~strains:250 ~seed:33 ())

(* ---- Suite -------------------------------------------------------------- *)

let test_suite_enumeration () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex"; "Earner" ] in
  Alcotest.(check (array int)) "cards" [| 2; 3 |] (Suite.cards db suite);
  Alcotest.(check int) "count" 6 (Suite.n_queries db suite);
  let q = Suite.query_of_cell suite [| 1; 2 |] in
  Alcotest.(check int) "selects" 2 (List.length q.Query.selects)

let test_suite_ground_truth_matches_exec () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex"; "Earner" ] in
  let truth = Suite.ground_truth db suite in
  for sex = 0 to 1 do
    for e = 0 to 2 do
      let q = Suite.query_of_cell suite [| sex; e |] in
      check_float "cell matches query_size"
        (Exec.query_size db q)
        (Selest_prob.Contingency.get truth [| sex; e |])
    done
  done

let test_suite_join_skeleton () =
  let db = Lazy.force tb in
  let skeleton =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ()
  in
  let suite =
    Suite.make ~name:"join" ~skeleton ~attrs:[ ("c", "Contype"); ("p", "USBorn") ]
  in
  Alcotest.(check int) "count" 10 (Suite.n_queries db suite);
  let truth = Suite.ground_truth db suite in
  check_float "total = join size" 2_000.0 (Selest_prob.Contingency.total truth);
  let q = Suite.query_of_cell suite [| 0; 1 |] in
  check_float "cell" (Exec.query_size db q) (Selest_prob.Contingency.get truth [| 0; 1 |])

(* ---- Runner -------------------------------------------------------------- *)

(* A perfect estimator: exact sizes via the executor. *)
let oracle db = {
  Selest_est.Estimator.name = "oracle";
  bytes = 0;
  prepare = ignore;
  estimate = (fun q -> Exec.query_size db q);
}

(* A constant estimator. *)
let constant name value = {
  Selest_est.Estimator.name;
  bytes = 0;
  prepare = ignore;
  estimate = (fun _ -> value);
}

let test_runner_oracle_zero_error () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex"; "Earner" ] in
  let o = Runner.run db suite (oracle db) () in
  check_float "avg" 0.0 o.Runner.avg_error;
  check_float "median" 0.0 o.Runner.median_error;
  Alcotest.(check int) "queries" 6 o.Runner.n_queries;
  Alcotest.(check int) "none skipped" 0 o.Runner.n_unsupported

let test_runner_constant_error () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex" ] in
  (* truth values t0, t1 sum to 5000; estimator says 0 -> error = 100% each *)
  let o = Runner.run db suite (constant "zero" 0.0) () in
  check_float "all 100%" 100.0 o.Runner.avg_error

let test_runner_subsampling_deterministic () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Age"; "Income" ] in
  let a = Runner.run db suite (oracle db) ~max_queries:100 ~seed:7 () in
  let b = Runner.run db suite (oracle db) ~max_queries:100 ~seed:7 () in
  Alcotest.(check int) "100 queries" 100 a.Runner.n_queries;
  check_float "deterministic" a.Runner.avg_error b.Runner.avg_error

let test_runner_counts_unsupported () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex" ] in
  let refuser = {
    Selest_est.Estimator.name = "refuser";
    bytes = 0;
    prepare = ignore;
    estimate = (fun _ -> raise (Selest_est.Estimator.Unsupported "no"));
  } in
  let o = Runner.run db suite refuser () in
  Alcotest.(check int) "all skipped" 2 o.Runner.n_unsupported;
  Alcotest.(check int) "none answered" 0 o.Runner.n_queries

let test_per_query_pairs () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex" ] in
  let pairs = Runner.per_query db suite (oracle db) () in
  Alcotest.(check int) "two cells" 2 (List.length pairs);
  List.iter (fun (t, e) -> check_float "oracle pairs equal" t e) pairs;
  check_float "totals" 5_000.0 (List.fold_left (fun acc (t, _) -> acc +. t) 0.0 pairs)

(* ---- Report --------------------------------------------------------------- *)

let test_report_tables () =
  let db = Lazy.force census in
  let suite = Suite.single_table ~name:"s" ~table:"person" ~attrs:[ "Sex" ] in
  let o = Runner.run db suite (oracle db) () in
  let s = Report.outcomes_table [ o ] in
  Alcotest.(check bool) "mentions estimator" true
    (String.length s > 0 && String.index_opt s 'o' <> None);
  let sweep = Report.sweep_table ~xlabel:"budget" ~rows:[ ("1KB", [ o ]); ("2KB", [ o ]) ] in
  Alcotest.(check bool) "sweep rendered" true (String.length sweep > 0)

let test_report_scatter_summary () =
  let a = [ (10.0, 10.0); (20.0, 40.0) ] in
  let b = [ (10.0, 20.0); (20.0, 20.0) ] in
  let s = Report.scatter_summary a b in
  Alcotest.(check bool) "summary text" true (String.length s > 0);
  Alcotest.(check bool) "mismatched lengths rejected" true
    (try
       ignore (Report.scatter_summary a [ (1.0, 1.0) ]);
       false
     with Invalid_argument _ -> true)

(* ---- End-to-end: PRM wins on a correlated suite ----------------------------- *)

let test_end_to_end_prm_beats_avi () =
  let db = Lazy.force census in
  let attrs = [ "Age"; "Income" ] in
  let suite = Suite.single_table ~name:"2attr" ~table:"person" ~attrs in
  let avi = Selest_est.Avi.build ~attrs:(List.map (fun a -> ("person", a)) attrs) db in
  let bn = Selest_est.Bn_est.build ~table:"person" ~attrs ~budget_bytes:1_000 db in
  let o_avi = Runner.run db suite avi () in
  let o_bn = Runner.run db suite bn () in
  Alcotest.(check bool)
    (Printf.sprintf "PRM %.1f%% < AVI %.1f%%" o_bn.Runner.avg_error o_avi.Runner.avg_error)
    true
    (o_bn.Runner.avg_error < o_avi.Runner.avg_error)

let test_end_to_end_join_suite () =
  let db = Lazy.force tb in
  let skeleton =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ()
  in
  let suite = Suite.make ~name:"tbjoin" ~skeleton ~attrs:[ ("c", "Contype"); ("p", "Age") ] in
  let prm = Selest_est.Prm_est.build ~budget_bytes:3_000 db in
  let uj = Selest_est.Prm_est.build_bn_uj ~budget_bytes:3_000 db in
  let o_prm = Runner.run db suite prm () in
  let o_uj = Runner.run db suite uj () in
  Alcotest.(check bool)
    (Printf.sprintf "PRM %.1f%% <= BN+UJ %.1f%%" o_prm.Runner.avg_error o_uj.Runner.avg_error)
    true
    (o_prm.Runner.avg_error <= o_uj.Runner.avg_error +. 1.0)


(* ---- Planner ---------------------------------------------------------------- *)

let tb_plan_query db =
  ignore db;
  Query.create
    ~tvars:[ ("c", "contact"); ("p", "patient"); ("s", "strain") ]
    ~joins:
      [
        Query.join ~child:"c" ~fk:"patient" ~parent:"p";
        Query.join ~child:"p" ~fk:"strain" ~parent:"s";
      ]
    ~selects:[ Query.eq "p" "HIV" 1 ]
    ()

let test_planner_enumerates_connected_orders () =
  let db = Lazy.force tb in
  let q = tb_plan_query db in
  let all = Jointree.orders q in
  (* chain of 3: 4 connected left-deep orders *)
  Alcotest.(check int) "4 plans" 4 (List.length all);
  List.iter
    (fun p -> Alcotest.(check int) "full length" 3 (List.length p))
    all;
  (* c and s are never adjacent in the join graph, so no plan starts c,s *)
  List.iter
    (fun p ->
      match p with
      | a :: b :: _ ->
        Alcotest.(check bool) "prefix connected" false
          ((a = "c" && b = "s") || (a = "s" && b = "c"))
      | _ -> ())
    all

let test_planner_prefix_query () =
  let db = Lazy.force tb in
  let q = tb_plan_query db in
  let sub = Jointree.subquery q [ "c"; "p" ] in
  Alcotest.(check int) "tvars" 2 (List.length sub.Query.tvars);
  Alcotest.(check int) "joins" 1 (List.length sub.Query.joins);
  Alcotest.(check int) "selects kept" 1 (List.length sub.Query.selects);
  (* prefix query evaluates *)
  Alcotest.(check bool) "evaluates" true (Exec.query_size db sub >= 0.0)

let test_planner_cost_with_oracle () =
  let db = Lazy.force tb in
  let q = tb_plan_query db in
  let truth qq = Exec.query_size db qq in
  let plan = [ "c"; "p"; "s" ] in
  let expected =
    truth (Jointree.subquery q [ "c"; "p" ]) +. truth q
  in
  Alcotest.(check (float 1e-6)) "cost = prefix + final" expected
    (Optimizer.order_cost ~cost:truth q plan);
  let best = Optimizer.best ~cost:truth q in
  let cost = best.Optimizer.cost in
  Alcotest.(check int) "best is a full plan" 3
    (List.length (Option.get (Jointree.order_of best.Optimizer.tree)));
  List.iter
    (fun p ->
      Alcotest.(check bool) "best is minimal" true (Optimizer.order_cost ~cost:truth q p >= cost -. 1e-9))
    (Jointree.orders q)

let test_rank_correlation () =
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Optimizer.rank_correlation [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 30.0 ]);
  Alcotest.(check (float 1e-9)) "reversed" (-1.0)
    (Optimizer.rank_correlation [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  let r = Optimizer.rank_correlation [ 1.0; 2.0; 3.0; 4.0 ] [ 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check bool) "partial between" true (r > 0.0 && r < 1.0)

let () =
  Alcotest.run "workload"
    [
      ( "suite",
        [
          Alcotest.test_case "enumeration" `Quick test_suite_enumeration;
          Alcotest.test_case "ground truth" `Quick test_suite_ground_truth_matches_exec;
          Alcotest.test_case "join skeleton" `Quick test_suite_join_skeleton;
        ] );
      ( "runner",
        [
          Alcotest.test_case "oracle zero error" `Quick test_runner_oracle_zero_error;
          Alcotest.test_case "constant estimator" `Quick test_runner_constant_error;
          Alcotest.test_case "deterministic subsampling" `Quick test_runner_subsampling_deterministic;
          Alcotest.test_case "unsupported counting" `Quick test_runner_counts_unsupported;
          Alcotest.test_case "per-query pairs" `Quick test_per_query_pairs;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables" `Quick test_report_tables;
          Alcotest.test_case "scatter summary" `Quick test_report_scatter_summary;
        ] );
      ( "planner",
        [
          Alcotest.test_case "connected orders" `Quick test_planner_enumerates_connected_orders;
          Alcotest.test_case "prefix query" `Quick test_planner_prefix_query;
          Alcotest.test_case "cost and best plan" `Quick test_planner_cost_with_oracle;
          Alcotest.test_case "rank correlation" `Quick test_rank_correlation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "PRM beats AVI" `Quick test_end_to_end_prm_beats_avi;
          Alcotest.test_case "join suite" `Quick test_end_to_end_join_suite;
        ] );
    ]
