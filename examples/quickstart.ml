(* Quickstart: learn a Bayesian network over a single table and use it to
   estimate select-query result sizes (Sec. 2 of the paper).

   Run with: dune exec examples/quickstart.exe *)

open Selest

let () =
  (* 1. Get a database.  Here: the synthetic census dataset (one table,
     12 attributes, strong correlations like Education -> Income). *)
  let db = Synth.Census.generate ~rows:30_000 ~seed:1 () in
  let person = Db.Database.table db "person" in
  Printf.printf "database: %d rows, %d attributes\n\n" (Db.Table.size person)
    (Array.length (Db.Table.cards person));

  (* 2. Offline phase: learn the model under a 4KB storage budget. *)
  let bn = learn_bn ~budget_bytes:4096 person in
  Format.printf "learned model:@.%a@." Prm.Model.pp bn;

  (* 3. Online phase: estimate query sizes.  A query selects values for
     some attributes; the model answers any such query. *)
  let queries =
    [
      ("Income=10 & Education=12",
       [ Db.Query.eq "t" "Income" 10; Db.Query.eq "t" "Education" 12 ]);
      ("Age=6 & MaritalStatus=1",
       [ Db.Query.eq "t" "Age" 6; Db.Query.eq "t" "MaritalStatus" 1 ]);
      ("Income in [20..41] (range)", [ Db.Query.range "t" "Income" 20 41 ]);
      ("children with high income (impossible)",
       [ Db.Query.eq "t" "Age" 0; Db.Query.eq "t" "Income" 30 ]);
    ]
  in
  let est =
    Est.Bn_est.build ~table:"person" ~budget_bytes:4096 db
  in
  print_endline "query                                   |  estimate |     truth";
  print_endline "----------------------------------------+-----------+----------";
  List.iter
    (fun (name, selects) ->
      let q = Db.Query.create ~tvars:[ ("t", "person") ] ~selects () in
      let truth = true_size db q in
      let e = est.Est.Estimator.estimate q in
      Printf.printf "%-40s| %9.1f | %9.0f\n" name e truth)
    queries;

  (* 4. The Fig. 1 sanity check: with the right structure, the factored
     representation reproduces the exact joint distribution. *)
  print_newline ();
  let joint =
    [|
      (0, 0, 0, 0.270); (0, 0, 1, 0.030); (0, 1, 0, 0.105); (0, 1, 1, 0.045);
      (0, 2, 0, 0.005); (0, 2, 1, 0.045); (1, 0, 0, 0.135); (1, 0, 1, 0.015);
      (1, 1, 0, 0.063); (1, 1, 1, 0.027); (1, 2, 0, 0.006); (1, 2, 1, 0.054);
      (2, 0, 0, 0.018); (2, 0, 1, 0.002); (2, 1, 0, 0.042); (2, 1, 1, 0.018);
      (2, 2, 0, 0.012); (2, 2, 1, 0.108);
    |]
  in
  (* build the E -> I -> H data of Sec. 2.1 (1000 weighted rows) *)
  let e = ref [] and i = ref [] and h = ref [] in
  Array.iter
    (fun (ev, iv, hv, p) ->
      for _ = 1 to int_of_float (p *. 1000.0 +. 0.5) do
        e := ev :: !e;
        i := iv :: !i;
        h := hv :: !h
      done)
    joint;
  let data =
    Bn.Data.create ~names:[| "Education"; "Income"; "HomeOwner" |] ~cards:[| 3; 3; 2 |]
      [| Array.of_list !e; Array.of_list !i; Array.of_list !h |]
  in
  let dag = Bn.Dag.add_edge (Bn.Dag.empty 3) ~src:0 ~dst:1 in
  let dag = Bn.Dag.add_edge dag ~src:1 ~dst:2 in
  let model = Bn.Bn.fit data ~dag ~kind:Bn.Cpd.Tables in
  let max_err = ref 0.0 in
  Array.iter
    (fun (ev, iv, hv, p) ->
      max_err := Float.max !max_err (abs_float (Bn.Bn.joint_prob model [| ev; iv; hv |] -. p)))
    joint;
  Printf.printf
    "Fig. 1 check: max |factored - joint| over all 18 cells = %.2e (18 numbers -> 11 parameters)\n"
    !max_err
