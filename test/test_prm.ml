open Selest_db
open Selest_prm
module Estimate = Selest_plan.Estimate

let check_float = Alcotest.(check (float 1e-6))

let check_bits name expected actual =
  Alcotest.(check int64) name (Int64.bits_of_float expected) (Int64.bits_of_float actual)

(* Small two-table fixture: dept <- emp, with strong cross-table
   correlation (Rank tracks Budget) and join skew (big-budget departments
   have more employees). *)
let fixture_schema =
  Schema.create
    [
      Schema.table_schema ~name:"dept"
        ~attrs:[ ("Budget", Value.ints 2); ("Floor", Value.ints 3) ]
        ();
      Schema.table_schema ~name:"emp"
        ~attrs:[ ("Rank", Value.ints 2); ("Age", Value.ints 3) ]
        ~fks:[ ("dept", "dept") ]
        ();
    ]

let fixture_db () =
  let n_dept = 40 and n_emp = 1200 in
  let rng = Selest_util.Rng.create 77 in
  let budget = Array.init n_dept (fun _ -> if Selest_util.Rng.float rng < 0.5 then 1 else 0) in
  let floor = Array.init n_dept (fun _ -> Selest_util.Rng.int rng 3) in
  let weight d = if budget.(d) = 1 then 4.0 else 1.0 in
  let fk =
    Selest_synth.Gen.assign_children rng ~parent_count:n_dept ~total:n_emp ~weight
  in
  let rank =
    Array.map
      (fun d -> if Selest_util.Rng.float rng < if budget.(d) = 1 then 0.8 else 0.2 then 1 else 0)
      fk
  in
  let age = Array.init n_emp (fun _ -> Selest_util.Rng.int rng 3) in
  let dept =
    Table.create (Schema.find_table fixture_schema "dept") ~cols:[| budget; floor |]
      ~fk_cols:[||]
  in
  let emp =
    Table.create (Schema.find_table fixture_schema "emp") ~cols:[| rank; age |]
      ~fk_cols:[| fk |]
  in
  Database.create fixture_schema [ dept; emp ]

let db = lazy (fixture_db ())

(* ---- Scope ------------------------------------------------------------- *)

let test_scope_ids () =
  let s = Model.Scope.of_table fixture_schema 1 (* emp *) in
  Alcotest.(check int) "n_attrs" 2 (Model.Scope.n_attrs s);
  Alcotest.(check int) "n_ext" 4 (Model.Scope.n_ext s);
  Alcotest.(check int) "n_all" 5 (Model.Scope.n_all s);
  Alcotest.(check int) "own id" 1 (Model.Scope.local_id s (Model.Own 1));
  Alcotest.(check int) "foreign id" 3 (Model.Scope.local_id s (Model.Foreign (0, 1)));
  Alcotest.(check int) "join id" 4 (Model.Scope.join_id s 0);
  Alcotest.(check bool) "roundtrip own" true
    (Model.Scope.parent_of_local s 0 = Model.Own 0);
  Alcotest.(check bool) "roundtrip foreign" true
    (Model.Scope.parent_of_local s 2 = Model.Foreign (0, 0));
  Alcotest.(check int) "own card" 3 (Model.Scope.card s 1);
  Alcotest.(check int) "foreign card" 2 (Model.Scope.card s 2);
  Alcotest.(check int) "join card" 2 (Model.Scope.card s 4);
  Alcotest.(check string) "foreign name" "dept.Budget" (Model.Scope.name s 2);
  Alcotest.(check string) "join name" "J_dept" (Model.Scope.name s 4)

(* ---- Suffstats ----------------------------------------------------------- *)

let test_extended_data () =
  let db = Lazy.force db in
  let ext = Suffstats.extended_data db 1 in
  Alcotest.(check int) "columns" 4 (Selest_bn.Data.n_vars ext);
  Alcotest.(check string) "resolved name" "dept.Budget" ext.Selest_bn.Data.names.(2);
  (* resolved column matches manual dereference *)
  let emp = Database.table db "emp" and dept = Database.table db "dept" in
  let fk = Table.fk_col_by_name emp "dept" in
  let budget = Table.col_by_name dept "Budget" in
  let expected = Array.map (fun d -> budget.(d)) fk in
  Alcotest.(check (array int)) "resolved values" expected ext.Selest_bn.Data.cols.(2)

let test_join_stats_uniform () =
  let db = Lazy.force db in
  let js = Suffstats.fit_join db ~table:1 ~fk:0 ~parents:[||] in
  (* No parents: P(J) = 1/|dept|. *)
  let d = Selest_bn.Cpd.dist js.Suffstats.cpd [||] in
  check_float "uniform join prob" (1.0 /. 40.0) d.(1);
  Alcotest.(check int) "one param" 1 js.Suffstats.params

let test_join_stats_calibration () =
  let db = Lazy.force db in
  (* With parent dept.Budget: sum over configs of cnt_emp * cnt_dept(b) *
     p(b) must equal |emp| (every employee joins exactly one dept). *)
  let js = Suffstats.fit_join db ~table:1 ~fk:0 ~parents:[| Model.Foreign (0, 0) |] in
  let dept = Database.table db "dept" in
  let budget = Table.col_by_name dept "Budget" in
  let cnt_b = Array.make 2 0.0 in
  Array.iter (fun b -> cnt_b.(b) <- cnt_b.(b) +. 1.0) budget;
  let n_emp = float_of_int (Database.n_rows db "emp") in
  let total =
    (Selest_bn.Cpd.dist js.Suffstats.cpd [| 0 |]).(1) *. n_emp *. cnt_b.(0)
    +. (Selest_bn.Cpd.dist js.Suffstats.cpd [| 1 |]).(1) *. n_emp *. cnt_b.(1)
  in
  check_float "calibrated" n_emp total

let test_join_stats_detects_skew () =
  let db = Lazy.force db in
  let js = Suffstats.fit_join db ~table:1 ~fk:0 ~parents:[| Model.Foreign (0, 0) |] in
  let p_hi = (Selest_bn.Cpd.dist js.Suffstats.cpd [| 1 |]).(1) in
  let p_lo = (Selest_bn.Cpd.dist js.Suffstats.cpd [| 0 |]).(1) in
  Alcotest.(check bool) "big-budget depts attract more" true (p_hi > 2.0 *. p_lo)

let test_join_stats_validation () =
  let db = Lazy.force db in
  Alcotest.(check bool) "wrong fk parent rejected" true
    (try
       ignore (Suffstats.fit_join db ~table:1 ~fk:5 ~parents:[||]);
       false
     with Invalid_argument _ -> true)

(* ---- Stratify -------------------------------------------------------------- *)

let test_stratify_empty_legal () =
  let s = Stratify.empty_structure fixture_schema in
  Alcotest.(check bool) "empty is legal" true (Stratify.is_legal fixture_schema s)

let test_stratify_attr_cycle () =
  let s = Stratify.empty_structure fixture_schema in
  s.Stratify.attr_parents.(0).(0) <- [| Model.Own 1 |];
  s.Stratify.attr_parents.(0).(1) <- [| Model.Own 0 |];
  Alcotest.(check bool) "intra-table cycle illegal" false (Stratify.is_legal fixture_schema s)

let test_stratify_gating_cycle () =
  (* emp.Rank has a foreign parent through fk 0 AND feeds J_0: illegal. *)
  let s = Stratify.empty_structure fixture_schema in
  s.Stratify.attr_parents.(1).(0) <- [| Model.Foreign (0, 0) |];
  s.Stratify.join_parents.(1).(0) <- [| Model.Own 0 |];
  Alcotest.(check bool) "gating cycle illegal" false (Stratify.is_legal fixture_schema s);
  (* but J fed by an unrelated own attribute is fine *)
  s.Stratify.join_parents.(1).(0) <- [| Model.Own 1 |];
  Alcotest.(check bool) "ungated parent fine" true (Stratify.is_legal fixture_schema s)

let test_stratify_table_order () =
  let s = Stratify.empty_structure fixture_schema in
  s.Stratify.attr_parents.(1).(0) <- [| Model.Foreign (0, 0) |];
  let order = Stratify.table_order fixture_schema s in
  let pos t = Selest_util.Arrayx.fold_lefti (fun acc i x -> if x = t then i else acc) 0 order in
  Alcotest.(check bool) "dept before emp" true (pos 0 < pos 1)

let test_stratify_transitive_gating () =
  (* Rank <- dept.Budget (gated); Age <- Rank; J <- Age: transitive cycle
     through the gating edge must be caught. *)
  let s = Stratify.empty_structure fixture_schema in
  s.Stratify.attr_parents.(1).(0) <- [| Model.Foreign (0, 0) |];
  s.Stratify.attr_parents.(1).(1) <- [| Model.Own 0 |];
  s.Stratify.join_parents.(1).(0) <- [| Model.Own 1 |];
  Alcotest.(check bool) "transitive gating cycle illegal" false
    (Stratify.is_legal fixture_schema s)

(* ---- Learning + estimation --------------------------------------------------- *)

let learned = lazy (Learn.learn ~config:(Learn.default_config ~budget_bytes:3000) (Lazy.force db))

let test_learn_within_budget () =
  let r = Lazy.force learned in
  Alcotest.(check bool) "fits" true (r.Learn.bytes <= 3000);
  Alcotest.(check bool) "model size agrees" true
    (abs (Model.size_bytes r.Learn.model - r.Learn.bytes) <= 8)

let test_learn_finds_cross_structure () =
  let r = Lazy.force learned in
  (* The planted cross correlation or join skew must be picked up. *)
  Alcotest.(check bool) "relational structure found" true
    (Model.n_cross_edges r.Learn.model + Model.n_join_parents r.Learn.model > 0)

let test_estimate_single_table_query () =
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  let q =
    Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Rank" 1 ] ()
  in
  let truth = Exec.query_size db q in
  let est = Estimate.estimate r.Learn.model ~sizes q in
  Alcotest.(check bool) "close" true (abs_float (est -. truth) /. truth < 0.1)

let test_estimate_join_query_beats_uniform () =
  let db = Lazy.force db in
  let sizes = Estimate.sizes_of_db db in
  let q =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ~selects:[ Query.eq "d" "Budget" 1; Query.eq "e" "Rank" 1 ]
      ()
  in
  let truth = Exec.query_size db q in
  let prm = Lazy.force learned in
  let uj = Learn.learn ~config:(Learn.bn_uj_config ~budget_bytes:3000) db in
  let err m = abs_float (Estimate.estimate m ~sizes q -. truth) /. truth in
  let e_prm = err prm.Learn.model and e_uj = err uj.Learn.model in
  Alcotest.(check bool)
    (Printf.sprintf "PRM (%.3f) beats BN+UJ (%.3f)" e_prm e_uj)
    true (e_prm < e_uj);
  Alcotest.(check bool) "PRM accurate" true (e_prm < 0.15)

let test_estimate_join_no_selects () =
  (* With no selects, the estimated join size should be near |emp|. *)
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  let q =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  let est = Estimate.estimate r.Learn.model ~sizes q in
  let truth = float_of_int (Database.n_rows db "emp") in
  Alcotest.(check bool) "join size calibrated" true (abs_float (est -. truth) /. truth < 0.05)

let test_upward_closure () =
  let db = Lazy.force db in
  let r = Lazy.force learned in
  (* If the model has a cross-table parent for some emp attribute, a
     single-tv query over emp must close to include dept. *)
  let q = Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Rank" 1 ] () in
  let closed = Estimate.upward_closure r.Learn.model q in
  if Model.n_cross_edges r.Learn.model > 0 then
    Alcotest.(check bool) "closure adds dept" true (List.length closed.Query.tvars >= 2);
  (* Idempotence. *)
  let closed2 = Estimate.upward_closure r.Learn.model closed in
  Alcotest.(check int) "idempotent tvars" (List.length closed.Query.tvars)
    (List.length closed2.Query.tvars);
  Alcotest.(check int) "idempotent joins" (List.length closed.Query.joins)
    (List.length closed2.Query.joins);
  (* Closure preserves exact size (Prop. 3.4). *)
  check_float "size preserved" (Exec.query_size db q) (Exec.query_size db closed)

let test_cached_estimator_matches () =
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  let cached = Estimate.cached_estimator r.Learn.model ~sizes in
  let skeleton =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  for b = 0 to 1 do
    for rk = 0 to 1 do
      let q = Query.with_selects skeleton [ Query.eq "d" "Budget" b; Query.eq "e" "Rank" rk ] in
      check_bits "cached = direct" (Estimate.estimate r.Learn.model ~sizes q) (cached q)
    done
  done;
  (* a range instantiation runs on the same cached plan *)
  let q = Query.with_selects skeleton [ Query.range "e" "Age" 1 2 ] in
  check_bits "range fallback" (Estimate.estimate r.Learn.model ~sizes q) (cached q)

let test_estimates_sum_to_join_size () =
  (* Summing the PRM estimate over all instantiations of a suite must give
     the estimated unselected join size (the model is a distribution). *)
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  let skeleton =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  let total = ref 0.0 in
  for b = 0 to 1 do
    for rk = 0 to 1 do
      let q = Query.with_selects skeleton [ Query.eq "d" "Budget" b; Query.eq "e" "Rank" rk ] in
      total := !total +. Estimate.estimate r.Learn.model ~sizes q
    done
  done;
  check_float "sums to unselected estimate"
    (Estimate.estimate r.Learn.model ~sizes skeleton)
    !total

let test_tb_three_table_estimation () =
  let db = Selest_synth.Tb.generate ~patients:400 ~contacts:2_500 ~strains:300 ~seed:3 () in
  let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) db in
  let sizes = Estimate.sizes_of_db db in
  let q =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient"); ("s", "strain") ]
      ~joins:
        [
          Query.join ~child:"c" ~fk:"patient" ~parent:"p";
          Query.join ~child:"p" ~fk:"strain" ~parent:"s";
        ]
      ~selects:[ Query.eq "p" "USBorn" 1; Query.eq "s" "Unique" 0 ]
      ()
  in
  let truth = Exec.query_size db q in
  let est = Estimate.estimate r.Learn.model ~sizes q in
  Alcotest.(check bool)
    (Printf.sprintf "3-table estimate %.0f vs truth %.0f" est truth)
    true
    (abs_float (est -. truth) /. Float.max 1.0 truth < 0.35)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_model_pp_and_counts () =
  let r = Lazy.force learned in
  let s = Format.asprintf "%a" Model.pp r.Learn.model in
  Alcotest.(check bool) "pp mentions emp" true (contains s "emp");
  Alcotest.(check bool) "pp mentions the join indicator" true (contains s "J_dept")


(* ---- Forward sampling -------------------------------------------------------- *)

let test_sample_shapes () =
  let r = Lazy.force learned in
  let rng = Selest_util.Rng.create 99 in
  let sizes = [| 40; 1200 |] in
  let sampled = Sample.database rng r.Learn.model ~sizes in
  Alcotest.(check int) "dept rows" 40 (Database.n_rows sampled "dept");
  Alcotest.(check int) "emp rows" 1200 (Database.n_rows sampled "emp");
  Alcotest.(check bool) "integrity" true
    (Integrity.is_clean (Integrity.audit sampled))

let test_sample_reproduces_statistics () =
  (* Fit a PRM, sample a database of the same size, and check the sample
     reproduces the original's (a) marginals, (b) cross-table correlation,
     (c) join skew. *)
  let db = Lazy.force db in
  let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:8000) db in
  let rng = Selest_util.Rng.create 7 in
  let sampled = Sample.database rng r.Learn.model ~sizes:(Estimate.sizes_of_db db) in
  let skel =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  let frac dbx rank budget =
    let q = Query.with_selects skel [ Query.eq "e" "Rank" rank; Query.eq "d" "Budget" budget ] in
    Exec.query_size dbx q /. float_of_int (Database.n_rows dbx "emp")
  in
  (* joint (rank, budget) fractions within 7 points *)
  for rank = 0 to 1 do
    for budget = 0 to 1 do
      let orig = frac db rank budget and synth = frac sampled rank budget in
      Alcotest.(check bool)
        (Printf.sprintf "joint (%d,%d): %.3f vs %.3f" rank budget orig synth)
        true
        (abs_float (orig -. synth) < 0.07)
    done
  done

let test_sample_determinism () =
  let r = Lazy.force learned in
  let mk seed =
    Sample.database (Selest_util.Rng.create seed) r.Learn.model ~sizes:[| 20; 300 |]
  in
  let a = mk 5 and b = mk 5 and c = mk 6 in
  Alcotest.(check (array int)) "same seed same data"
    (Table.col (Database.table a "emp") 0)
    (Table.col (Database.table b "emp") 0);
  Alcotest.(check bool) "different seed differs" false
    (Table.col (Database.table a "emp") 0 = Table.col (Database.table c "emp") 0)

(* ---- Non-key joins (Sec. 6) --------------------------------------------------- *)

let test_nonkey_join_estimate () =
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  (* join two independent copies of emp on Age (non-key). *)
  let q1 = Query.create ~tvars:[ ("x", "emp") ] ~selects:[ Query.eq "x" "Rank" 1 ] () in
  let q2 = Query.create ~tvars:[ ("y", "emp") ] () in
  let truth = Exec.nonkey_join_size db (q1, "x", "Age") (q2, "y", "Age") in
  let est = Estimate.estimate_nonkey r.Learn.model ~sizes (q1, "x", "Age") (q2, "y", "Age") in
  Alcotest.(check bool)
    (Printf.sprintf "nonkey est %.0f vs truth %.0f" est truth)
    true
    (abs_float (est -. truth) /. truth < 0.1)

let test_nonkey_join_validation () =
  let db = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db in
  let q1 = Query.create ~tvars:[ ("x", "emp") ] () in
  let q2 = Query.create ~tvars:[ ("x", "dept") ] () in
  Alcotest.(check bool) "shared tv rejected" true
    (try
       ignore (Estimate.estimate_nonkey r.Learn.model ~sizes (q1, "x", "Age") (q2, "x", "Floor"));
       false
     with Invalid_argument _ -> true);
  let q2b = Query.create ~tvars:[ ("y", "dept") ] () in
  Alcotest.(check bool) "domain mismatch rejected" true
    (try
       ignore (Exec.nonkey_join_size db (q1, "x", "Rank") (q2b, "y", "Floor"));
       false
     with Invalid_argument _ -> true)


(* ---- Incremental maintenance (Sec. 6) ---------------------------------------- *)

(* A shifted version of the fixture: the rank-budget correlation flips. *)
let shifted_db () =
  let n_dept = 40 and n_emp = 1200 in
  let rng = Selest_util.Rng.create 1234 in
  let budget = Array.init n_dept (fun _ -> if Selest_util.Rng.float rng < 0.5 then 1 else 0) in
  let floor = Array.init n_dept (fun _ -> Selest_util.Rng.int rng 3) in
  let fk =
    Selest_synth.Gen.assign_children rng ~parent_count:n_dept ~total:n_emp
      ~weight:(fun d -> if budget.(d) = 1 then 0.5 else 2.0)
  in
  let rank =
    Array.map
      (fun d -> if Selest_util.Rng.float rng < (if budget.(d) = 1 then 0.15 else 0.85) then 1 else 0)
      fk
  in
  let age = Array.init n_emp (fun _ -> Selest_util.Rng.int rng 3) in
  let dept =
    Table.create (Schema.find_table fixture_schema "dept") ~cols:[| budget; floor |]
      ~fk_cols:[||]
  in
  let emp =
    Table.create (Schema.find_table fixture_schema "emp") ~cols:[| rank; age |]
      ~fk_cols:[| fk |]
  in
  Database.create fixture_schema [ dept; emp ]

let test_update_refresh_keeps_structure () =
  let r = Lazy.force learned in
  let shifted = shifted_db () in
  let fresh = Update.refresh r.Learn.model shifted in
  (* structure identical *)
  Array.iteri
    (fun ti tm ->
      Array.iteri
        (fun a fam ->
          Alcotest.(check bool) "same attr parents" true
            (fam.Model.parents = fresh.Model.tables.(ti).Model.attr_families.(a).Model.parents))
        tm.Model.attr_families)
    r.Learn.model.Model.tables;
  (* refreshed parameters fit the new data better than stale ones *)
  let q =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ~selects:[ Query.eq "d" "Budget" 1; Query.eq "e" "Rank" 1 ]
      ()
  in
  let sizes = Estimate.sizes_of_db shifted in
  let truth = Exec.query_size shifted q in
  let err m = abs_float (Estimate.estimate m ~sizes q -. truth) /. Float.max 1.0 truth in
  Alcotest.(check bool)
    (Printf.sprintf "refreshed (%.2f) beats stale (%.2f)" (err fresh) (err r.Learn.model))
    true
    (err fresh < err r.Learn.model)

let test_update_drift_detection () =
  let db0 = Lazy.force db in
  let r = Lazy.force learned in
  (* same data: negligible drift *)
  let d_same = Update.drift r.Learn.model db0 in
  Alcotest.(check bool) "no drift on same data" true (d_same.Update.gap_per_unit < 1e-6);
  (* shifted data: substantial drift *)
  let d_shift = Update.drift r.Learn.model (shifted_db ()) in
  Alcotest.(check bool)
    (Printf.sprintf "drift detected (%.3f)" d_shift.Update.gap_per_unit)
    true
    (d_shift.Update.gap_per_unit > 0.05);
  Alcotest.(check bool) "fresh >= stale" true
    (d_shift.Update.fresh_loglik >= d_shift.Update.stale_loglik)

let test_update_maintain_decision () =
  let db0 = Lazy.force db in
  let r = Lazy.force learned in
  (match Update.maintain r.Learn.model db0 with
  | `Fresh _ -> ()
  | `Restructure_advised _ -> Alcotest.fail "same data should not advise restructuring");
  match Update.maintain r.Learn.model (shifted_db ()) with
  | `Restructure_advised _ -> ()
  | `Fresh _ -> Alcotest.fail "shifted data should advise restructuring"


(* ---- Serialization ------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let db0 = Lazy.force db in
  let r = Lazy.force learned in
  let path = Filename.temp_file "selest" ".prm" in
  Serialize.save path r.Learn.model;
  let loaded = Serialize.load path ~schema:fixture_schema in
  Sys.remove path;
  (* identical estimates across a grid of queries *)
  let sizes = Estimate.sizes_of_db db0 in
  let skel =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  for b = 0 to 1 do
    for rk = 0 to 1 do
      for fl = 0 to 2 do
        let q =
          Query.with_selects skel
            [ Query.eq "d" "Budget" b; Query.eq "e" "Rank" rk; Query.eq "d" "Floor" fl ]
        in
        check_float "same estimate"
          (Estimate.estimate r.Learn.model ~sizes q)
          (Estimate.estimate loaded ~sizes q)
      done
    done
  done;
  Alcotest.(check int) "same size accounting"
    (Model.size_bytes r.Learn.model) (Model.size_bytes loaded)

let test_serialize_tree_cpds () =
  (* force tree CPDs with a structure that certainly contains splits *)
  let db0 = Lazy.force db in
  let cfg = { (Learn.default_config ~budget_bytes:6000) with Learn.max_parents = 2 } in
  let r = Learn.learn ~config:cfg db0 in
  let path = Filename.temp_file "selest" ".prm" in
  Serialize.save path r.Learn.model;
  let loaded = Serialize.load path ~schema:fixture_schema in
  Sys.remove path;
  let sizes = Estimate.sizes_of_db db0 in
  let q = Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Rank" 1 ] () in
  check_float "tree model survives"
    (Estimate.estimate r.Learn.model ~sizes q)
    (Estimate.estimate loaded ~sizes q)

let test_serialize_schema_mismatch () =
  let r = Lazy.force learned in
  let path = Filename.temp_file "selest" ".prm" in
  Serialize.save path r.Learn.model;
  let other_schema =
    Schema.create
      [ Schema.table_schema ~name:"dept" ~attrs:[ ("Budget", Value.ints 3) ] () ]
  in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Serialize.load path ~schema:other_schema);
       false
     with Serialize.Error _ -> true);
  Sys.remove path

let test_serialize_rejects_garbage () =
  let path = Filename.temp_file "selest" ".prm" in
  let oc = open_out path in
  output_string oc "(not-a-model 42)";
  close_out oc;
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Serialize.load path ~schema:fixture_schema);
       false
     with Serialize.Error _ -> true);
  Sys.remove path


(* ---- GROUP BY estimation -------------------------------------------------------- *)

let test_group_counts_consistency () =
  let db0 = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db0 in
  let skel =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ()
  in
  let groups = Estimate.group_counts r.Learn.model ~sizes skel ~keys:[ ("d", "Budget") ] in
  Alcotest.(check int) "one cell per budget value" 2 (List.length groups);
  (* each group estimate matches the equivalent select query *)
  List.iter
    (fun (cell, est) ->
      let q = Query.with_selects skel [ Query.eq "d" "Budget" cell.(0) ] in
      check_bits "cell = select estimate" (Estimate.estimate r.Learn.model ~sizes q) est)
    groups;
  (* groups partition the ungrouped estimate *)
  let total = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 groups in
  check_float "partition" (Estimate.estimate r.Learn.model ~sizes skel) total

let test_group_counts_with_selects_and_two_keys () =
  let db0 = Lazy.force db in
  let r = Lazy.force learned in
  let sizes = Estimate.sizes_of_db db0 in
  let q =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ~selects:[ Query.eq "e" "Age" 1 ]
      ()
  in
  let groups =
    Estimate.group_counts r.Learn.model ~sizes q ~keys:[ ("e", "Rank"); ("d", "Budget") ]
  in
  Alcotest.(check int) "2x2 cells" 4 (List.length groups);
  List.iter
    (fun (cell, est) ->
      let qq =
        Query.with_selects q
          (Query.eq "e" "Age" 1 :: [ Query.eq "e" "Rank" cell.(0); Query.eq "d" "Budget" cell.(1) ])
      in
      check_bits "cell matches" (Estimate.estimate r.Learn.model ~sizes qq) est)
    groups;
  (* group estimates track the exact group sizes reasonably *)
  let truth_err =
    List.fold_left
      (fun acc (cell, est) ->
        let qq =
          Query.with_selects q
            (Query.eq "e" "Age" 1 :: [ Query.eq "e" "Rank" cell.(0); Query.eq "d" "Budget" cell.(1) ])
        in
        let truth = Exec.query_size db0 qq in
        acc +. (abs_float (est -. truth) /. Float.max 1.0 truth))
      0.0 groups
    /. 4.0
  in
  Alcotest.(check bool) (Printf.sprintf "avg group error %.2f" truth_err) true (truth_err < 0.3)


(* ---- End-to-end properties over random fixtures -------------------------------- *)

let random_fixture seed =
  let n_dept = 10 + (seed mod 20) and n_emp = 300 + (seed mod 400) in
  let rng = Selest_util.Rng.create (seed * 7919) in
  let budget = Array.init n_dept (fun _ -> Selest_util.Rng.int rng 2) in
  let floor = Array.init n_dept (fun _ -> Selest_util.Rng.int rng 3) in
  let fk =
    Selest_synth.Gen.assign_children rng ~parent_count:n_dept ~total:n_emp
      ~weight:(fun d -> 1.0 +. (2.0 *. float_of_int budget.(d)))
  in
  let rank =
    Array.map
      (fun d ->
        if Selest_util.Rng.float rng < (if budget.(d) = 1 then 0.7 else 0.3) then 1 else 0)
      fk
  in
  let age = Array.init n_emp (fun _ -> Selest_util.Rng.int rng 3) in
  let dept =
    Table.create (Schema.find_table fixture_schema "dept") ~cols:[| budget; floor |]
      ~fk_cols:[||]
  in
  let emp =
    Table.create (Schema.find_table fixture_schema "emp") ~cols:[| rank; age |]
      ~fk_cols:[| fk |]
  in
  Database.create fixture_schema [ dept; emp ]

let skel =
  Query.create
    ~tvars:[ ("e", "emp"); ("d", "dept") ]
    ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
    ()

let prop_estimates_partition =
  QCheck2.Test.make ~name:"suite estimates sum to the unselected estimate" ~count:15
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let sizes = Estimate.sizes_of_db dbx in
      let est = Estimate.cached_estimator r.Learn.model ~sizes in
      let total = ref 0.0 in
      for rk = 0 to 1 do
        for b = 0 to 1 do
          for fl = 0 to 2 do
            total :=
              !total
              +. est
                   (Query.with_selects skel
                      [ Query.eq "e" "Rank" rk; Query.eq "d" "Budget" b;
                        Query.eq "d" "Floor" fl ])
          done
        done
      done;
      abs_float (!total -. est skel) < 1e-6 *. Float.max 1.0 (est skel))

let prop_range_is_sum_of_points =
  QCheck2.Test.make ~name:"range estimate = sum of point estimates" ~count:15
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let sizes = Estimate.sizes_of_db dbx in
      let range_est =
        Estimate.estimate r.Learn.model ~sizes
          (Query.with_selects skel [ Query.range "e" "Age" 1 2 ])
      in
      let point_sum =
        Estimate.estimate r.Learn.model ~sizes
          (Query.with_selects skel [ Query.eq "e" "Age" 1 ])
        +. Estimate.estimate r.Learn.model ~sizes
             (Query.with_selects skel [ Query.eq "e" "Age" 2 ])
      in
      abs_float (range_est -. point_sum) < 1e-6 *. Float.max 1.0 point_sum)

let prop_closure_preserves_estimate =
  QCheck2.Test.make ~name:"closing a query does not change its estimate" ~count:15
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let sizes = Estimate.sizes_of_db dbx in
      let q = Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Rank" 1 ] () in
      let closed = Estimate.upward_closure r.Learn.model q in
      let a = Estimate.estimate r.Learn.model ~sizes q in
      let b = Estimate.estimate r.Learn.model ~sizes closed in
      abs_float (a -. b) < 1e-6 *. Float.max 1.0 a)

let prop_sampled_db_valid =
  QCheck2.Test.make ~name:"sampled database is well-formed" ~count:10
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let rng = Selest_util.Rng.create seed in
      let synth = Sample.database rng r.Learn.model ~sizes:[| 25; 600 |] in
      Database.n_rows synth "dept" = 25
      && Database.n_rows synth "emp" = 600
      && Integrity.is_clean (Integrity.audit synth))

let prop_serialize_stable =
  QCheck2.Test.make ~name:"serialization round-trips estimates" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let loaded =
        Serialize.of_sexp ~schema:fixture_schema (Serialize.to_sexp r.Learn.model)
      in
      let sizes = Estimate.sizes_of_db dbx in
      let q = Query.with_selects skel [ Query.eq "e" "Rank" 1; Query.eq "d" "Budget" 0 ] in
      Estimate.estimate r.Learn.model ~sizes q = Estimate.estimate loaded ~sizes q)

(* Every instantiation of one skeleton, in an order rotated by [seed] so
   that different instantiations compile the cached plan: equalities,
   duplicate equalities, contradictions and ranges, each with its
   selects in the given order, reversed, and with its first select
   repeated last.  [Plan.compile] numbers the network's nodes by
   (tuple variable, attribute), not by select order, so every one of
   them compiles the same network. *)
let instantiations seed =
  let rank v = Query.eq "e" "Rank" v and floor v = Query.eq "d" "Floor" v in
  let qs =
    List.concat_map
      (fun fl ->
        [ [ rank 0; floor fl ]; [ rank 1; floor fl ];
          [ rank 1; rank 1; floor fl ]; [ rank 0; floor fl; floor fl ];
          [ rank 0; rank 1; floor fl ]; [ rank 1; floor fl; floor ((fl + 1) mod 3) ];
          [ Query.range "e" "Rank" 0 1; floor fl ];
          [ rank 0; Query.range "d" "Floor" fl 2 ];
          [ rank 1; floor fl; Query.range "d" "Floor" 1 2 ] ])
      [ 0; 1; 2 ]
    |> List.concat_map (fun sels -> [ sels; List.rev sels; sels @ [ List.hd sels ] ])
  in
  let k = seed mod List.length qs in
  List.filteri (fun i _ -> i >= k) qs @ List.filteri (fun i _ -> i < k) qs
  |> List.map (Query.with_selects skel)

let prop_cached_is_one_shot =
  QCheck2.Test.make ~name:"cached estimator = one-shot estimate, bit for bit" ~count:10
    ~long_factor:20 ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let r = Learn.learn ~config:(Learn.default_config ~budget_bytes:4000) dbx in
      let sizes = Estimate.sizes_of_db dbx in
      let cached = Estimate.cached_estimator r.Learn.model ~sizes in
      List.for_all
        (fun q ->
          Int64.bits_of_float (cached q)
          = Int64.bits_of_float (Estimate.estimate r.Learn.model ~sizes q))
        (instantiations seed))

(* ---- Incremental vs reference climber -------------------------------- *)

(* The incremental climber (delta move cache + Depgraph legality + shared
   count kernel) must retrace the naive reference climber move for move —
   same accepted sequence, same final model bytes.  Configs are drawn to
   cover both CPD kinds, both byte-aware rules, and both join-parent
   settings. *)
let random_learn_config seed =
  let rng = Selest_util.Rng.create (seed * 104729) in
  let kind =
    if Selest_util.Rng.int rng 2 = 0 then Selest_bn.Cpd.Tables else Selest_bn.Cpd.Trees
  in
  let rule = if Selest_util.Rng.int rng 2 = 0 then Learn.Ssn else Learn.Mdl in
  let allow_join_parents = Selest_util.Rng.int rng 2 = 0 in
  let budget_bytes = 2_500 + Selest_util.Rng.int rng 3_000 in
  {
    (Learn.default_config ~budget_bytes) with
    kind;
    rule;
    allow_join_parents;
    max_parents = 2 + Selest_util.Rng.int rng 2;
    random_restarts = 1 + Selest_util.Rng.int rng 2;
    random_walk_length = 2 + Selest_util.Rng.int rng 3;
    seed;
  }

let model_fingerprint m = Selest_util.Sexp.to_string (Serialize.to_sexp m)

let prop_incremental_matches_reference =
  QCheck2.Test.make ~name:"incremental climber is trajectory-identical to reference"
    ~count:12 ~long_factor:20
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let dbx = random_fixture seed in
      let cfg = random_learn_config seed in
      let fast = Learn.learn ~config:cfg dbx in
      let naive = Learn.learn_reference ~config:cfg dbx in
      fast.Learn.trajectory = naive.Learn.trajectory
      && fast.Learn.loglik = naive.Learn.loglik
      && fast.Learn.bytes = naive.Learn.bytes
      && fast.Learn.iterations = naive.Learn.iterations
      && fast.Learn.family_evaluations = naive.Learn.family_evaluations
      && model_fingerprint fast.Learn.model = model_fingerprint naive.Learn.model)

(* Directed regression: restarts force random-walk acceptances (which must
   invalidate the walked families' cache entries) and a best-snapshot
   restore (which must flush every entry and reload the legality oracle).
   A stale entry shows up as a diverged trajectory. *)
let test_move_cache_invalidation () =
  List.iter
    (fun rule ->
      let dbx = random_fixture 42 in
      let cfg =
        {
          (Learn.default_config ~budget_bytes:3_500) with
          rule;
          random_restarts = 3;
          random_walk_length = 4;
          seed = 7;
        }
      in
      let fast = Learn.learn ~config:cfg dbx in
      let naive = Learn.learn_reference ~config:cfg dbx in
      Alcotest.(check (list string))
        "trajectory across walks and restore" naive.Learn.trajectory
        fast.Learn.trajectory;
      Alcotest.(check string)
        "final model" (model_fingerprint naive.Learn.model)
        (model_fingerprint fast.Learn.model);
      Alcotest.(check int) "bytes" naive.Learn.bytes fast.Learn.bytes)
    [ Learn.Ssn; Learn.Mdl ]

(* ---- One-table learning: a BN ------------------------------------------ *)

(* The Education -> Income -> HomeOwner example of Sec. 2.1: 1000 rows in
   the proportions of the paper's Fig. 1 joint, as a one-table database
   with Income ordinal. *)
let eih_db =
  lazy
    (let joint =
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
     let ts =
       Schema.table_schema ~name:"eih"
         ~attrs:
           [
             ("E", Value.labeled [| "hs"; "col"; "grad" |]);
             ("I", Value.labeled ~ordinal:true [| "low"; "mid"; "high" |]);
             ("H", Value.labeled [| "no"; "yes" |]);
           ]
         ()
     in
     let cols = [| Array.of_list !e; Array.of_list !i; Array.of_list !h |] in
     Database.create (Schema.create [ ts ]) [ Table.create ts ~cols ~fk_cols:[||] ])

let learn_eih cfg = Learn.learn ~config:cfg (Lazy.force eih_db)

let test_learn_recovers_strong_edges () =
  let m = (learn_eih { (Learn.bn_config ~budget_bytes:2000) with kind = Selest_bn.Cpd.Tables }).Learn.model in
  (* I and E must end up adjacent (either direction), and H adjacent to I. *)
  let has_parent v u = Array.mem (Model.Own u) m.Model.tables.(0).Model.attr_families.(v).Model.parents in
  let adjacent a b = has_parent b a || has_parent a b in
  Alcotest.(check bool) "E-I adjacent" true (adjacent 0 1);
  Alcotest.(check bool) "I-H adjacent" true (adjacent 1 2)

let test_learn_respects_budget () =
  List.iter
    (fun budget ->
      let r = learn_eih (Learn.bn_config ~budget_bytes:budget) in
      Alcotest.(check bool) (Printf.sprintf "fits %dB" budget) true (r.Learn.bytes <= budget))
    [ 100; 300; 1000 ]

let test_learn_loglik_monotone_in_budget () =
  let ll budget = (learn_eih (Learn.bn_config ~budget_bytes:budget)).Learn.loglik in
  Alcotest.(check bool) "more space, no worse fit" true (ll 4000 >= ll 100 -. 1e-6)

let test_learn_rules_and_kinds () =
  List.iter
    (fun rule ->
      List.iter
        (fun kind ->
          let r = learn_eih { (Learn.bn_config ~budget_bytes:1500) with rule; kind } in
          Alcotest.(check bool) "valid result" true (r.Learn.bytes <= 1500))
        [ Selest_bn.Cpd.Tables; Selest_bn.Cpd.Trees ])
    [ Learn.Naive; Learn.Ssn; Learn.Mdl ]

let test_learn_budget_too_small () =
  Alcotest.(check bool) "tiny budget rejected" true
    (try
       ignore (learn_eih (Learn.bn_config ~budget_bytes:4));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "prm"
    [
      ("scope", [ Alcotest.test_case "local ids" `Quick test_scope_ids ]);
      ( "suffstats",
        [
          Alcotest.test_case "extended data" `Quick test_extended_data;
          Alcotest.test_case "uniform join" `Quick test_join_stats_uniform;
          Alcotest.test_case "calibration" `Quick test_join_stats_calibration;
          Alcotest.test_case "detects skew" `Quick test_join_stats_detects_skew;
          Alcotest.test_case "validation" `Quick test_join_stats_validation;
        ] );
      ( "stratify",
        [
          Alcotest.test_case "empty legal" `Quick test_stratify_empty_legal;
          Alcotest.test_case "attr cycle" `Quick test_stratify_attr_cycle;
          Alcotest.test_case "gating cycle" `Quick test_stratify_gating_cycle;
          Alcotest.test_case "table order" `Quick test_stratify_table_order;
          Alcotest.test_case "transitive gating" `Quick test_stratify_transitive_gating;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shapes and integrity" `Quick test_sample_shapes;
          Alcotest.test_case "reproduces statistics" `Quick test_sample_reproduces_statistics;
          Alcotest.test_case "determinism" `Quick test_sample_determinism;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_estimates_partition;
            prop_range_is_sum_of_points;
            prop_closure_preserves_estimate;
            prop_sampled_db_valid;
            prop_serialize_stable;
          ] );
      ( "one-engine", List.map QCheck_alcotest.to_alcotest [ prop_cached_is_one_shot ] );
      ( "learn-incremental",
        Alcotest.test_case "cache invalidation across walks" `Quick
          test_move_cache_invalidation
        :: List.map QCheck_alcotest.to_alcotest [ prop_incremental_matches_reference ]
      );
      ( "learning",
        [
          Alcotest.test_case "recovers strong edges" `Quick test_learn_recovers_strong_edges;
          Alcotest.test_case "respects budget" `Quick test_learn_respects_budget;
          Alcotest.test_case "loglik monotone in budget" `Quick test_learn_loglik_monotone_in_budget;
          Alcotest.test_case "all rules and kinds" `Quick test_learn_rules_and_kinds;
          Alcotest.test_case "budget too small" `Quick test_learn_budget_too_small;
        ] );
      ( "group-by",
        [
          Alcotest.test_case "consistency" `Quick test_group_counts_consistency;
          Alcotest.test_case "two keys with selects" `Quick test_group_counts_with_selects_and_two_keys;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "tree cpds" `Quick test_serialize_tree_cpds;
          Alcotest.test_case "schema mismatch" `Quick test_serialize_schema_mismatch;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "refresh keeps structure" `Quick test_update_refresh_keeps_structure;
          Alcotest.test_case "drift detection" `Quick test_update_drift_detection;
          Alcotest.test_case "maintain decision" `Quick test_update_maintain_decision;
        ] );
      ( "nonkey-join",
        [
          Alcotest.test_case "estimate vs truth" `Quick test_nonkey_join_estimate;
          Alcotest.test_case "validation" `Quick test_nonkey_join_validation;
        ] );
      ( "learn-estimate",
        [
          Alcotest.test_case "within budget" `Quick test_learn_within_budget;
          Alcotest.test_case "finds cross structure" `Quick test_learn_finds_cross_structure;
          Alcotest.test_case "single-table query" `Quick test_estimate_single_table_query;
          Alcotest.test_case "join query beats uniform" `Quick test_estimate_join_query_beats_uniform;
          Alcotest.test_case "join size calibrated" `Quick test_estimate_join_no_selects;
          Alcotest.test_case "upward closure" `Quick test_upward_closure;
          Alcotest.test_case "cached estimator" `Quick test_cached_estimator_matches;
          Alcotest.test_case "estimates sum correctly" `Quick test_estimates_sum_to_join_size;
          Alcotest.test_case "three-table TB" `Quick test_tb_three_table_estimation;
          Alcotest.test_case "model printing" `Quick test_model_pp_and_counts;
        ] );
    ]
