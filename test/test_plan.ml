open Selest_db
open Selest_bn
open Selest_plan
module Hotpath = Selest_obs.Hotpath
module Model = Selest_prm.Model
module Learn = Selest_prm.Learn

let check_float = Alcotest.(check (float 1e-9))

(* Same two-table fixture as test_prm: dept <- emp with cross-table
   correlation and join skew, so closures genuinely pull in foreign
   parents and join indicators. *)
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
  let budget =
    Array.init n_dept (fun _ -> if Selest_util.Rng.float rng < 0.5 then 1 else 0)
  in
  let floor = Array.init n_dept (fun _ -> Selest_util.Rng.int rng 3) in
  let weight d = if budget.(d) = 1 then 4.0 else 1.0 in
  let fk =
    Selest_synth.Gen.assign_children rng ~parent_count:n_dept ~total:n_emp
      ~weight
  in
  let rank =
    Array.map
      (fun d ->
        if Selest_util.Rng.float rng < (if budget.(d) = 1 then 0.8 else 0.2)
        then 1
        else 0)
      fk
  in
  let age = Array.init n_emp (fun _ -> Selest_util.Rng.int rng 3) in
  let dept =
    Table.create (Schema.find_table fixture_schema "dept")
      ~cols:[| budget; floor |] ~fk_cols:[||]
  in
  let emp =
    Table.create (Schema.find_table fixture_schema "emp") ~cols:[| rank; age |]
      ~fk_cols:[| fk |]
  in
  Database.create fixture_schema [ dept; emp ]

let db = lazy (fixture_db ())
let sizes = lazy (Estimate.sizes_of_db (Lazy.force db))

(* Structure diversity: different budgets learn different parent sets, so
   the property quantifies over models as well as queries. *)
let models =
  lazy
    (List.map
       (fun budget_bytes ->
         (Learn.learn ~config:(Learn.default_config ~budget_bytes)
            (Lazy.force db))
           .Learn.model)
       [ 1200; 3000; 8000 ])

let model = lazy (List.nth (Lazy.force models) 1)

(* ---- random select–keyjoin queries over the fixture --------------------- *)

let attrs_of tv =
  match tv with
  | "d" -> [ ("d", "Budget", 2); ("d", "Floor", 3) ]
  | _ -> [ ("e", "Rank", 2); ("e", "Age", 3) ]

let gen_pred card =
  let open QCheck2.Gen in
  let value = int_bound (card - 1) in
  oneof
    [
      map (fun v -> Query.Eq v) value;
      map2
        (fun a b -> Query.Range (min a b, max a b))
        value value;
      map
        (fun vs -> Query.In_set vs)
        (list_size (int_range 1 card) value);
    ]

let gen_query =
  let open QCheck2.Gen in
  let* shape = oneofl [ `Dept; `Emp; `Join ] in
  let tvars, joins, pool =
    match shape with
    | `Dept -> ([ ("d", "dept") ], [], attrs_of "d")
    | `Emp -> ([ ("e", "emp") ], [], attrs_of "e")
    | `Join ->
      ( [ ("e", "emp"); ("d", "dept") ],
        [ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ],
        attrs_of "d" @ attrs_of "e" )
  in
  (* 1..4 selects drawn with replacement: repeats on one attribute are
     deliberate (conjunctions, including contradictory ones) *)
  let* n = int_range 1 4 in
  let* picks = list_repeat n (oneofl pool) in
  let* selects =
    flatten_l
      (List.map
         (fun (tv, attr, card) ->
           map (fun pred -> { Query.sel_tv = tv; sel_attr = attr; pred })
           (gen_pred card))
         picks)
  in
  pure (Query.create ~tvars ~joins ~selects ())

let gen_model_and_queries =
  let open QCheck2.Gen in
  let* mi = int_bound 2 in
  (* several bindings; all queries of one shape index share a skeleton
     only by luck of the draw — the plan is recompiled per query below,
     while the dedicated reuse test drives one plan hard *)
  let* qs = list_size (int_range 1 4) gen_query in
  pure (mi, qs)

let oracle plan ~sizes q =
  Ve.Reference.prob_of_evidence (Plan.factors plan)
    (Plan.bind plan q @ Plan.join_evidence plan)
  *. Plan.scale plan ~sizes

let prop_plan_bit_identical_to_reference =
  QCheck2.Test.make
    ~name:"Plan.compile+execute ≡ Reference oracle (bit-identical)"
    ~count:150 gen_model_and_queries (fun (mi, qs) ->
      let prm = List.nth (Lazy.force models) mi in
      let sizes = Lazy.force sizes in
      List.for_all
        (fun q ->
          let plan = Plan.compile prm q in
          let fast = Plan.estimate plan ~sizes q in
          let slow = oracle plan ~sizes q in
          Int64.bits_of_float fast = Int64.bits_of_float slow)
        qs)

(* Rebinding one compiled plan across every instantiation of a skeleton
   must match both the oracle and a freshly compiled plan per query. *)
let prop_plan_reuse_across_bindings =
  QCheck2.Test.make ~name:"one plan, many bindings ≡ per-query compile"
    ~count:60 (QCheck2.Gen.int_bound 2) (fun mi ->
      let prm = List.nth (Lazy.force models) mi in
      let sizes = Lazy.force sizes in
      let skeleton =
        Query.create
          ~tvars:[ ("e", "emp"); ("d", "dept") ]
          ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
          ~selects:[ Query.eq "e" "Rank" 0; Query.eq "d" "Budget" 0 ]
          ()
      in
      let plan = Plan.compile prm skeleton in
      let ok = ref true and hits = ref 0 and misses = ref 0 in
      for r = 0 to 1 do
        for b = 0 to 1 do
          let q =
            Query.with_selects skeleton
              [ Query.eq "e" "Rank" r; Query.eq "d" "Budget" b ]
          in
          let reused, d = Hotpath.measure (fun () -> Plan.estimate plan ~sizes q) in
          hits := !hits + d.Hotpath.order_hits;
          misses := !misses + d.Hotpath.order_misses;
          let fresh = Plan.estimate (Plan.compile prm q) ~sizes q in
          let slow = oracle plan ~sizes q in
          if
            Int64.bits_of_float reused <> Int64.bits_of_float fresh
            || Int64.bits_of_float reused <> Int64.bits_of_float slow
          then ok := false
        done
      done;
      (* every rebinding after the compile-seeded first one hits the memo *)
      !ok && !hits >= 3 && !misses = 0)

(* ---- compiled-plan structure -------------------------------------------- *)

let test_plan_introspection () =
  let prm = Lazy.force model in
  (* a lone emp selection must pull dept in through the upward closure
     whenever the learned structure uses a foreign parent; either way the
     plan is self-describing *)
  let q =
    Query.create ~tvars:[ ("e", "emp") ]
      ~selects:[ Query.eq "e" "Rank" 1 ]
      ()
  in
  let plan = Plan.compile prm q in
  Alcotest.(check string) "skeleton" (Plan.skeleton_key q) (Plan.skeleton plan);
  Alcotest.(check string)
    "fingerprint" (Model.fingerprint prm) (Plan.fingerprint plan);
  let tables = Plan.closure_tables plan in
  Alcotest.(check string) "first closure table is the query's" "e"
    (fst (List.hd tables));
  Alcotest.(check bool) "factors non-empty" true (Plan.factors plan <> []);
  let closed = Plan.upward_closure plan q in
  Alcotest.(check int)
    "closure tvars cover plan tables"
    (List.length tables)
    (List.length closed.Query.tvars);
  (* the closure scale is the product of the closure tables' sizes *)
  let sizes = Lazy.force sizes in
  let expected =
    List.fold_left
      (fun acc (_, tbl) ->
        acc *. float_of_int sizes.(Schema.table_index fixture_schema tbl))
      1.0 tables
  in
  check_float "scale" expected (Plan.scale plan ~sizes);
  (* executing the compile query's own binding hits the seeded schedule *)
  let (_ : float), d = Hotpath.measure (fun () -> Plan.execute plan (Plan.bind plan q)) in
  Alcotest.(check (pair int int)) "seeded schedule hit" (1, 0)
    (d.Hotpath.order_hits, d.Hotpath.order_misses);
  let steps = Plan.steps plan q in
  Alcotest.(check bool) "steps predicted" true
    (List.for_all (fun s -> s.Ve.Schedule.predicted_entries >= 1) steps);
  (* binding a different skeleton is rejected *)
  Alcotest.(check bool) "foreign skeleton rejected" true
    (try
       ignore
         (Plan.bind plan
            (Query.create ~tvars:[ ("e", "emp") ]
               ~selects:[ Query.eq "e" "Age" 0 ]
               ()));
       false
     with Invalid_argument _ -> true);
  (* pp renders without raising *)
  Alcotest.(check bool) "pp non-empty" true
    (String.length (Format.asprintf "%a" Plan.pp plan) > 0)

(* Join indicators are static evidence of the compiled program; a
   binding that names one has no bytecode shape, so execute refuses it
   rather than answer on another engine. *)
let test_join_indicator_binding_rejected () =
  let prm = Lazy.force model in
  let q =
    Query.create
      ~tvars:[ ("e", "emp"); ("d", "dept") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ~selects:[ Query.eq "e" "Rank" 1 ]
      ()
  in
  let plan = Plan.compile prm q in
  match Plan.join_evidence plan with
  | [] -> Alcotest.fail "a joined skeleton has join evidence"
  | (jnode, _) :: _ ->
    Alcotest.(check bool) "join-indicator binding rejected" true
      (try
         ignore (Plan.execute plan ((jnode, Query.Eq 1) :: Plan.bind plan q));
         false
       with Invalid_argument _ -> true);
    Alcotest.(check bool) "no program for it" true
      (Plan.program_for plan ((jnode, Query.Eq 1) :: Plan.bind plan q) = None)

let test_skeleton_key_splits_binding () =
  let q v =
    Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Rank" v ] ()
  in
  Alcotest.(check string)
    "same skeleton across bindings"
    (Plan.skeleton_key (q 0))
    (Plan.skeleton_key (q 1));
  let q2 =
    Query.create ~tvars:[ ("e", "emp") ] ~selects:[ Query.eq "e" "Age" 0 ] ()
  in
  Alcotest.(check bool) "different attrs, different skeleton" true
    (Plan.skeleton_key (q 0) <> Plan.skeleton_key q2)

(* ---- contradictory predicates (regression) ------------------------------ *)

(* Mutually exclusive predicates on one attribute must surface as a zero
   estimate through every layer — plan execution, the one-shot wrapper,
   the suite estimator's posterior-lookup path — never as an error.  The
   posterior path used to silently let the last duplicate win. *)
let contradictory_query =
  Query.create
    ~tvars:[ ("e", "emp"); ("d", "dept") ]
    ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
    ~selects:[ Query.eq "e" "Rank" 0; Query.eq "e" "Rank" 1 ]
    ()

let test_contradiction_is_zero () =
  let prm = Lazy.force model in
  let sizes = Lazy.force sizes in
  let q = contradictory_query in
  let plan = Plan.compile prm q in
  check_float "Plan.execute" 0.0 (Plan.execute plan (Plan.bind plan q));
  Alcotest.(check (list int)) "no steps for empty event" []
    (List.map (fun s -> s.Ve.Schedule.var) (Plan.steps plan q));
  check_float "Estimate.estimate" 0.0 (Estimate.estimate prm ~sizes q);
  check_float "Estimate.prob" 0.0 (Estimate.prob prm q);
  let cached = Estimate.cached_estimator prm ~sizes in
  (* warm the skeleton with a satisfiable binding first, then hit the
     posterior-table path with the contradiction *)
  let warm =
    Query.with_selects q [ Query.eq "e" "Rank" 1; Query.eq "e" "Rank" 1 ]
  in
  Alcotest.(check bool) "warm binding positive" true (cached warm > 0.0);
  check_float "cached_estimator" 0.0 (cached q);
  (* non-Eq contradictions flow through plan execution too *)
  let q_range =
    Query.with_selects q
      [ Query.eq "e" "Rank" 0; { Query.sel_tv = "e"; sel_attr = "Rank"; pred = Query.Range (1, 1) } ]
  in
  check_float "range contradiction" 0.0 (cached q_range)

let test_contradiction_through_server () =
  let db0 = Lazy.force db in
  let server = Selest_serve.Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore
    (Selest_serve.Registry.register
       (Selest_serve.Server.registry server)
       ~name:"fixture" (Lazy.force model));
  let ask line = fst (Selest_serve.Server.handle_line server line) in
  let reply = ask "EST e=emp, d=dept ; e.dept=d ; e.Rank=0, e.Rank=1" in
  Alcotest.(check bool) "EST ok, not ERR" true
    (Selest_serve.Protocol.is_ok reply);
  check_float "estimate is zero" 0.0
    (float_of_string (Selest_serve.Protocol.payload reply));
  (* EXPLAIN prices the same request and reports an empty plan *)
  let explained = ask "EXPLAIN e=emp, d=dept ; e.dept=d ; e.Rank=0, e.Rank=1" in
  Alcotest.(check bool) "EXPLAIN ok" true
    (Selest_serve.Protocol.is_ok explained)

(* ---- executor state lifetime ------------------------------------------------ *)

(* Regression: per-domain executor state used to sit in a domain-local
   table keyed by program id that nothing pruned, so every model reload
   left the old plans' arenas — and the model tables they alias — live
   for the life of the domain.  The state now hangs off its program.
   Each cycle publishes a new model version and serves one estimate
   through a shard-style plan cache; once the first version's plan has
   been evicted, its program and that program's state must be
   collectable. *)
let test_program_state_freed_after_reloads () =
  let m = Lazy.force model in
  let q =
    Query.create
      ~tvars:[ ("d", "dept"); ("e", "emp") ]
      ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
      ~selects:[ Query.eq "d" "Floor" 2; Query.eq "e" "Rank" 1 ]
      ()
  in
  let reg = Selest_serve.Registry.create ~schema:fixture_schema in
  let plans = Selest_serve.Plan_cache.create ~capacity:4 () in
  let serve () =
    let e = Selest_serve.Registry.register reg ~name:"m" m in
    let skel =
      Selest_serve.Canon.Skel.make ~name:"m" ~version:e.Selest_serve.Registry.version q
    in
    let plan, _ =
      Selest_serve.Plan_cache.find_or_compile plans ~hash:skel.Selest_serve.Canon.Skel.hash
        ~key:skel.Selest_serve.Canon.Skel.key ~compile:(fun () -> Plan.compile m q)
    in
    ignore (Plan.execute plan (Plan.bind plan q));
    plan
  in
  let progs = Weak.create 1 and states = Weak.create 1 in
  let[@inline never] first () =
    let plan = serve () in
    match Plan.program_for plan (Plan.bind plan q) with
    | None -> Alcotest.fail "no compiled program for the served binding"
    | Some prog ->
      Weak.set progs 0 (Some prog);
      Weak.set states 0 (Some (Exec.state_for prog))
  in
  first ();
  for _ = 1 to 20 do
    ignore (Sys.opaque_identity (serve ()))
  done;
  let _, _, evictions = Selest_serve.Plan_cache.stats plans in
  Alcotest.(check bool) "the first version's plan was evicted" true (evictions >= 17);
  Gc.full_major ();
  Alcotest.(check bool) "program collected" false (Weak.check progs 0);
  Alcotest.(check bool) "its per-domain state collected" false (Weak.check states 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [
      ( "compile/execute",
        [
          Alcotest.test_case "introspection" `Quick test_plan_introspection;
          Alcotest.test_case "skeleton key" `Quick test_skeleton_key_splits_binding;
          Alcotest.test_case "join-indicator binding rejected" `Quick
            test_join_indicator_binding_rejected;
        ] );
      ( "oracle",
        qsuite
          [
            prop_plan_bit_identical_to_reference;
            prop_plan_reuse_across_bindings;
          ] );
      ( "contradiction",
        [
          Alcotest.test_case "zero through every layer" `Quick
            test_contradiction_is_zero;
          Alcotest.test_case "zero through server" `Quick
            test_contradiction_through_server;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "program state freed after reloads" `Quick
            test_program_state_freed_after_reloads;
        ] );
    ]
