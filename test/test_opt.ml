open Selest_db
open Selest_opt
module Estimator = Selest_est.Estimator

let check_float = Alcotest.(check (float 1e-9))

(* ---- fixtures ------------------------------------------------------------ *)

(* A deterministic four-table foreign-key chain a <- b <- c <- d with
   skewed columns, so different join orders genuinely differ in cost. *)
let chain4_db () =
  let schema =
    Schema.create
      [
        Schema.table_schema ~name:"a" ~attrs:[ ("X", Value.ints 3) ] ();
        Schema.table_schema ~name:"b" ~attrs:[ ("Y", Value.ints 2) ] ~fks:[ ("a", "a") ] ();
        Schema.table_schema ~name:"c" ~attrs:[ ("Z", Value.ints 2) ] ~fks:[ ("b", "b") ] ();
        Schema.table_schema ~name:"d" ~attrs:[ ("W", Value.ints 2) ] ~fks:[ ("c", "c") ] ();
      ]
  in
  let mk name n col fks =
    Table.create (Schema.find_table schema name)
      ~cols:[| Array.init n col |]
      ~fk_cols:(match fks with None -> [||] | Some f -> [| Array.init n f |])
  in
  let a = mk "a" 4 (fun i -> i mod 3) None in
  let b = mk "b" 7 (fun i -> i mod 2) (Some (fun i -> i mod 4)) in
  let c = mk "c" 11 (fun i -> i * i mod 2) (Some (fun i -> i * 3 mod 7)) in
  let d = mk "d" 17 (fun i -> i mod 2) (Some (fun i -> i * 5 mod 11)) in
  Database.create schema [ a; b; c; d ]

let chain4_query ?(selects = [ Query.eq "a" "X" 1; Query.eq "d" "W" 0 ]) () =
  Query.create
    ~tvars:[ ("a", "a"); ("b", "b"); ("c", "c"); ("d", "d") ]
    ~joins:
      [
        Query.join ~child:"b" ~fk:"a" ~parent:"a";
        Query.join ~child:"c" ~fk:"b" ~parent:"b";
        Query.join ~child:"d" ~fk:"c" ~parent:"c";
      ]
    ~selects ()

let oracle db = fun q -> Exec.query_size db q

(* ---- Jointree ------------------------------------------------------------ *)

let test_jointree_roundtrip () =
  let tree = Jointree.left_deep [ "a"; "b"; "c" ] in
  Alcotest.(check (option (list string)))
    "order_of inverts left_deep"
    (Some [ "a"; "b"; "c" ])
    (Jointree.order_of tree);
  Alcotest.(check (list string)) "leaves" [ "a"; "b"; "c" ] (Jointree.leaves tree);
  let bushy = Jointree.Join (tree, Jointree.Join (Jointree.Leaf "d", Jointree.Leaf "e")) in
  Alcotest.(check (option (list string))) "bushy has no order" None (Jointree.order_of bushy)

(* ---- executor vs weight propagation -------------------------------------- *)

let test_executor_matches_exec_fixture () =
  let db = chain4_db () in
  let q = chain4_query () in
  let truth = Exec.query_size db q in
  List.iter
    (fun order ->
      check_float
        (Printf.sprintf "order %s" (String.concat ">" order))
        truth
        (Hashjoin.count db q (Jointree.left_deep order)))
    (Jointree.orders q);
  (* a bushy shape: (a ⨝ b) ⨝ (c ⨝ d) *)
  let bushy =
    Jointree.Join
      ( Jointree.Join (Jointree.Leaf "a", Jointree.Leaf "b"),
        Jointree.Join (Jointree.Leaf "c", Jointree.Leaf "d") )
  in
  check_float "bushy tree" truth (Hashjoin.count db q bushy)

let test_executor_cartesian () =
  let db = chain4_db () in
  let q =
    Query.create
      ~tvars:[ ("a", "a"); ("d", "d") ]
      ~selects:[ Query.eq "d" "W" 0 ]
      ()
  in
  check_float "cartesian product"
    (Exec.query_size db q)
    (Hashjoin.count db q (Jointree.Join (Jointree.Leaf "a", Jointree.Leaf "d")))

let test_executor_accounting () =
  let db = chain4_db () in
  let q = chain4_query () in
  let result = Hashjoin.run db q (Jointree.left_deep [ "a"; "b"; "c"; "d" ]) in
  Alcotest.(check int) "ops: 4 scans + 3 joins" 7 (List.length (Hashjoin.ops result));
  let joins =
    List.filter (fun (n : Hashjoin.node) -> n.children <> []) (Hashjoin.ops result)
  in
  Alcotest.(check int) "intermediate rows = sum of join outputs"
    (List.fold_left (fun acc (n : Hashjoin.node) -> acc + n.out_rows) 0 joins)
    result.Hashjoin.intermediate_rows;
  Alcotest.(check int) "final rows = root output"
    result.Hashjoin.root.Hashjoin.out_rows result.Hashjoin.rows;
  List.iter
    (fun (n : Hashjoin.node) ->
      let width = List.length (Jointree.leaves n.subtree) in
      Alcotest.(check int) "bytes = rows * width * 8" (n.out_rows * width * 8) n.out_bytes)
    (Hashjoin.ops result)

let test_executor_rejects_wrong_tree () =
  let db = chain4_db () in
  let q = chain4_query () in
  Alcotest.check_raises "missing leaf"
    (Invalid_argument "Hashjoin.run: tree leaves do not match the query's tuple variables")
    (fun () -> ignore (Hashjoin.run db q (Jointree.left_deep [ "a"; "b"; "c" ])))

(* qcheck: random child-parent-grandparent chains, every left-deep order
   and the truth-optimal bushy tree agree bit-for-bit with query_size. *)
let gen_chain3_db =
  let open QCheck2.Gen in
  let* n_a = int_range 1 5 in
  let* n_b = int_range 1 8 in
  let* n_c = int_range 1 15 in
  let* acol = array_size (pure n_a) (int_range 0 2) in
  let* bcol = array_size (pure n_b) (int_range 0 1) in
  let* ccol = array_size (pure n_c) (int_range 0 1) in
  let* bfk = array_size (pure n_b) (int_range 0 (n_a - 1)) in
  let* cfk = array_size (pure n_c) (int_range 0 (n_b - 1)) in
  let schema =
    Schema.create
      [
        Schema.table_schema ~name:"a" ~attrs:[ ("X", Value.ints 3) ] ();
        Schema.table_schema ~name:"b" ~attrs:[ ("Y", Value.ints 2) ] ~fks:[ ("a", "a") ] ();
        Schema.table_schema ~name:"c" ~attrs:[ ("Z", Value.ints 2) ] ~fks:[ ("b", "b") ] ();
      ]
  in
  let a = Table.create (Schema.find_table schema "a") ~cols:[| acol |] ~fk_cols:[||] in
  let b = Table.create (Schema.find_table schema "b") ~cols:[| bcol |] ~fk_cols:[| bfk |] in
  let c = Table.create (Schema.find_table schema "c") ~cols:[| ccol |] ~fk_cols:[| cfk |] in
  pure (Database.create schema [ a; b; c ])

let chain3_query selects =
  Query.create
    ~tvars:[ ("a", "a"); ("b", "b"); ("c", "c") ]
    ~joins:
      [
        Query.join ~child:"b" ~fk:"a" ~parent:"a";
        Query.join ~child:"c" ~fk:"b" ~parent:"b";
      ]
    ~selects ()

let prop_executor_matches_exec =
  QCheck2.Test.make ~name:"hash-join executor = query_size (all orders)" ~count:150
    gen_chain3_db (fun db ->
      let ok = ref true in
      List.iter
        (fun selects ->
          let q = chain3_query selects in
          let truth = Exec.query_size db q in
          List.iter
            (fun order ->
              if Hashjoin.count db q (Jointree.left_deep order) <> truth then ok := false)
            (Jointree.orders q);
          let best = Optimizer.best ~bushy:true ~cost:(oracle db) q in
          if Hashjoin.count db q best.Optimizer.tree <> truth then ok := false)
        [
          [];
          [ Query.eq "a" "X" 1 ];
          [ Query.eq "a" "X" 0; Query.eq "c" "Z" 1 ];
          [ Query.eq "b" "Y" 0; Query.eq "c" "Z" 0 ];
        ];
      !ok)

(* ---- optimizer ------------------------------------------------------------ *)

let test_dp_matches_exhaustive () =
  let db = chain4_db () in
  List.iter
    (fun selects ->
      let q = chain4_query ~selects () in
      let truth = oracle db in
      let exhaustive =
        List.fold_left
          (fun acc order -> Float.min acc (Optimizer.order_cost ~cost:truth q order))
          infinity (Jointree.orders q)
      in
      let dp = Optimizer.best ~cost:truth q in
      check_float "dp cost = exhaustive min" exhaustive dp.Optimizer.cost;
      check_float "reported cost prices the reported tree"
        (Optimizer.sum_intermediates ~cost:truth q dp.Optimizer.tree)
        dp.Optimizer.cost;
      let bushy = Optimizer.best ~bushy:true ~cost:truth q in
      Alcotest.(check bool) "bushy <= left-deep" true
        (bushy.Optimizer.cost <= dp.Optimizer.cost +. 1e-9))
    [ []; [ Query.eq "a" "X" 1 ]; [ Query.eq "a" "X" 1; Query.eq "d" "W" 0 ] ]

let test_optimizer_rejects () =
  let db = chain4_db () in
  ignore db;
  let single = Query.create ~tvars:[ ("a", "a") ] () in
  Alcotest.(check bool) "single tv" true
    (try
       ignore (Optimizer.best ~cost:(fun _ -> 1.0) single);
       false
     with Invalid_argument _ -> true);
  let disconnected = Query.create ~tvars:[ ("a", "a"); ("d", "d") ] () in
  Alcotest.(check bool) "disconnected" true
    (try
       ignore (Optimizer.best ~cost:(fun _ -> 1.0) disconnected);
       false
     with Invalid_argument _ -> true)

(* Estimators that cannot price multi-join sub-queries must not abort the
   enumeration: the fallback prices them, and the chosen plan equals the
   plan the fallback oracle would pick on its own. *)
let test_unsupported_fallback () =
  let db = chain4_db () in
  let q = chain4_query () in
  let partial q' =
    if List.length q'.Query.tvars >= 2 then
      raise (Estimator.Unsupported "joins not supported")
    else oracle db q'
  in
  Alcotest.(check bool) "without a fallback, Unsupported propagates" true
    (try
       ignore (Optimizer.best ~cost:partial q);
       false
     with Estimator.Unsupported _ -> true);
  let fb = Optimizer.independence db in
  let with_fb = Optimizer.best ~fallback:fb ~cost:partial q in
  Alcotest.(check bool) "every priced subset used the fallback" true
    (with_fb.Optimizer.n_fallbacks = with_fb.Optimizer.n_subsets
    && with_fb.Optimizer.n_fallbacks > 0);
  let pure_fb = Optimizer.best ~cost:fb q in
  Alcotest.(check bool) "plan = the fallback oracle's own plan" true
    (with_fb.Optimizer.tree = pure_fb.Optimizer.tree);
  check_float "cost = the fallback oracle's own cost" pure_fb.Optimizer.cost
    with_fb.Optimizer.cost

let test_memoized_pricing () =
  let db = chain4_db () in
  let q = chain4_query () in
  let calls = ref 0 in
  let counting q' =
    incr calls;
    oracle db q'
  in
  let r = Optimizer.best ~cost:counting q in
  Alcotest.(check int) "one oracle call per connected subset" r.Optimizer.n_subsets !calls;
  (* 4-chain connected subsets of size >= 2: 3 pairs + 2 triples + 1 full *)
  Alcotest.(check int) "chain-4 connected subsets" 6 r.Optimizer.n_subsets

(* ---- regret --------------------------------------------------------------- *)

let test_regret_exact_oracle_is_one () =
  let db = chain4_db () in
  let suite =
    Selest_workload.Suite.make ~name:"opt-test"
      ~skeleton:(chain4_query ~selects:[] ())
      ~attrs:[ ("a", "X"); ("d", "W") ]
  in
  let exact =
    { Estimator.name = "exact"; bytes = 0; prepare = ignore; estimate = oracle db }
  in
  let avi = Selest_est.Avi.build db in
  match Selest_workload.Regret.run db suite [ exact; avi ] with
  | [ e; a ] ->
    Alcotest.(check int) "all cells swept" 6 e.Selest_workload.Regret.n_queries;
    Alcotest.(check int) "exact picks the optimal plan every time"
      e.Selest_workload.Regret.n_queries e.Selest_workload.Regret.n_plan_matches;
    check_float "exact runtime regret" 1.0 e.Selest_workload.Regret.runtime_regret_mean;
    check_float "exact rows regret" 1.0 e.Selest_workload.Regret.rows_regret_mean;
    check_float "exact rows regret max" 1.0 e.Selest_workload.Regret.rows_regret_max;
    Alcotest.(check bool) "avi rows regret >= 1" true
      (a.Selest_workload.Regret.rows_regret_mean >= 1.0)
  | _ -> Alcotest.fail "expected two outcomes"

(* ---- explain --------------------------------------------------------------- *)

let test_explain_render () =
  let db = chain4_db () in
  let q = chain4_query () in
  let best = Optimizer.best ~cost:(oracle db) q in
  let result = Hashjoin.run db q best.Optimizer.tree in
  let text = Explain.render ~est:(oracle db) q result in
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "renders estimates" true (has "est=");
  Alcotest.(check bool) "renders actuals" true (has "actual=");
  Alcotest.(check bool) "renders joins" true (has "hash_join");
  Alcotest.(check bool) "renders scans" true (has "scan a=a");
  (* an exact oracle's per-operator estimates equal the actual rows *)
  List.iter
    (fun (n : Hashjoin.node) ->
      check_float "est = actual under the exact oracle"
        (float_of_int n.out_rows)
        (oracle db (Jointree.subquery q (Jointree.leaves n.subtree))))
    (Hashjoin.ops result)

(* ---- left-deep order view --------------------------------------------------- *)

(* The order-based view of the optimizer's choice (what the CLI [plan]
   command prints) prices to the optimizer's own cost. *)
let test_planner_shim_consistent () =
  let db = chain4_db () in
  let q = chain4_query () in
  let truth = oracle db in
  let opt = Optimizer.best ~cost:truth q in
  let order = Option.get (Jointree.order_of opt.Optimizer.tree) in
  check_float "order's best cost = optimizer best cost" opt.Optimizer.cost
    (Optimizer.order_cost ~cost:truth q order)

let () =
  Alcotest.run "opt"
    [
      ( "jointree",
        [ Alcotest.test_case "roundtrip" `Quick test_jointree_roundtrip ] );
      ( "executor",
        [
          Alcotest.test_case "matches exec on fixture" `Quick
            test_executor_matches_exec_fixture;
          Alcotest.test_case "cartesian" `Quick test_executor_cartesian;
          Alcotest.test_case "per-operator accounting" `Quick test_executor_accounting;
          Alcotest.test_case "rejects wrong tree" `Quick test_executor_rejects_wrong_tree;
          QCheck_alcotest.to_alcotest prop_executor_matches_exec;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "dp = exhaustive" `Quick test_dp_matches_exhaustive;
          Alcotest.test_case "rejects degenerate queries" `Quick test_optimizer_rejects;
          Alcotest.test_case "unsupported fallback" `Quick test_unsupported_fallback;
          Alcotest.test_case "memoized pricing" `Quick test_memoized_pricing;
        ] );
      ( "regret",
        [ Alcotest.test_case "exact oracle regret = 1.0" `Quick
            test_regret_exact_oracle_is_one ] );
      ( "explain",
        [ Alcotest.test_case "render" `Quick test_explain_render ] );
      ( "planner shim",
        [ Alcotest.test_case "consistent with optimizer" `Quick
            test_planner_shim_consistent ] );
    ]
