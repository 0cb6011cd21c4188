(* The Selest facade: the one-call pipelines the README advertises. *)

let check_float = Alcotest.(check (float 1e-6))

let db = lazy (Selest.Synth.Tb.generate ~patients:300 ~contacts:2_000 ~strains:250 ~seed:3 ())

let test_learn_bn_facade () =
  let db = Lazy.force db in
  let m = Selest.learn_bn ~budget_bytes:2_000 (Selest.Db.Database.table db "patient") in
  Alcotest.(check int) "six variables" 6
    (Array.length m.Selest.Prm.Model.tables.(0).Selest.Prm.Model.attr_families);
  check_float "normalized" 1.0
    (Selest.Prm.Estimate.prob m (Selest.Db.Query.create ~tvars:[ ("t", "patient") ] ()))

let test_learn_prm_and_estimate_facade () =
  let db = Lazy.force db in
  let model = Selest.learn_prm ~budget_bytes:3_000 db in
  let q =
    Selest.Db.Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Selest.Db.Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ~selects:[ Selest.Db.Query.eq "p" "HIV" 1 ]
      ()
  in
  let truth = Selest.true_size db q in
  let est = Selest.estimate model db q in
  Alcotest.(check bool)
    (Printf.sprintf "facade estimate %.0f vs truth %.0f" est truth)
    true
    (abs_float (est -. truth) /. Float.max 1.0 truth < 0.3)

let test_prm_estimator_facade () =
  let db = Lazy.force db in
  let est = Selest.prm_estimator ~budget_bytes:3_000 db in
  Alcotest.(check string) "name" "PRM" est.Selest.Est.Estimator.name;
  Alcotest.(check bool) "within budget" true (est.Selest.Est.Estimator.bytes <= 3_000);
  let q =
    Selest.Db.Query.create ~tvars:[ ("p", "patient") ]
      ~selects:[ Selest.Db.Query.eq "p" "USBorn" 1 ]
      ()
  in
  Alcotest.(check bool) "answers" true (est.Selest.Est.Estimator.estimate q > 0.0)

let test_facade_sql_to_estimate () =
  let db = Lazy.force db in
  let model = Selest.learn_prm ~budget_bytes:3_000 db in
  let q =
    Selest.Db.Sql.parse db
      "SELECT COUNT(*) FROM contact c JOIN patient p ON c.patient = p.id WHERE \
       c.Infected = 'yes'"
  in
  let est = Selest.estimate model db q in
  let truth = Selest.true_size db q in
  Alcotest.(check bool) "sql-to-estimate pipeline" true
    (abs_float (est -. truth) /. Float.max 1.0 truth < 0.3)

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "learn_bn" `Quick test_learn_bn_facade;
          Alcotest.test_case "learn_prm + estimate" `Quick test_learn_prm_and_estimate_facade;
          Alcotest.test_case "prm_estimator" `Quick test_prm_estimator_facade;
          Alcotest.test_case "sql pipeline" `Quick test_facade_sql_to_estimate;
        ] );
    ]
