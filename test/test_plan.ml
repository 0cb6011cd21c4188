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
          hits := !hits + d.Hotpath.program_hits;
          misses := !misses + d.Hotpath.program_misses;
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
  (* executing the compile query's own binding hits the seeded program *)
  let (_ : float), d = Hotpath.measure (fun () -> Plan.execute plan (Plan.bind plan q)) in
  Alcotest.(check (pair int int)) "seeded schedule hit" (1, 0)
    (d.Hotpath.program_hits, d.Hotpath.program_misses);
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
   the suite estimator's cached plan — never as an error. *)
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
  (* warm the skeleton's cached plan with a satisfiable binding first,
     then execute the contradiction on it *)
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

(* ---- per-model tables: relabel ≡ tabulate ------------------------------------- *)

(* Two foreign keys into one table, declared out of name order: a
   family's foreign parents then come through either key. *)
let fk2_db () =
  let schema =
    Schema.create
      [ Schema.table_schema ~name:"person"
          ~attrs:[ ("Zone", Value.ints 3); ("Age", Value.ints 3) ] ();
        Schema.table_schema ~name:"visit"
          ~attrs:[ ("Kind", Value.ints 3); ("Length", Value.ints 4) ]
          ~fks:[ ("to_host", "person"); ("by_guest", "person") ] () ]
  in
  let rng = Selest_util.Rng.create 5 in
  let persons = 60 and visits = 400 in
  let zone = Array.init persons (fun _ -> Selest_util.Rng.int rng 3) in
  let age = Array.map (fun z -> (z + Selest_util.Rng.int rng 2) mod 3) zone in
  let host = Array.init visits (fun _ -> Selest_util.Rng.int rng persons) in
  let guest = Array.init visits (fun _ -> Selest_util.Rng.int rng persons) in
  let kind = Array.map (fun h -> (zone.(h) + Selest_util.Rng.int rng 2) mod 3) host in
  let length = Array.map (fun g -> (age.(g) + Selest_util.Rng.int rng 2) mod 4) guest in
  Database.create schema
    [ Table.create (Schema.find_table schema "person") ~cols:[| zone; age |] ~fk_cols:[||];
      Table.create (Schema.find_table schema "visit") ~cols:[| kind; length |]
        ~fk_cols:[| host; guest |] ]

(* Every family of table- and tree-CPD models learned on TB, FIN and
   fk2: (model, table, family), the family index counting attribute
   families first, then join families. *)
let family_cases =
  lazy
    (let dbs =
       [ Selest_synth.Tb.generate ~patients:300 ~contacts:900 ~strains:40 ~seed:11 ();
         Selest_synth.Financial.generate ~districts:20 ~accounts:300 ~transactions:2_000
           ~seed:3 ();
         fk2_db () ]
     in
     let models =
       List.concat_map
         (fun db ->
           List.map
             (fun kind ->
               (Learn.learn
                  ~config:{ (Learn.default_config ~budget_bytes:6_000) with Learn.kind }
                  db)
                 .Learn.model)
             [ Cpd.Tables; Cpd.Trees ])
         dbs
     in
     Array.of_list
       (List.concat_map
          (fun m ->
            List.concat
              (List.mapi
                 (fun ti tm ->
                   List.init
                     (Array.length tm.Model.attr_families + Array.length tm.Model.join_families)
                     (fun k -> (m, ti, k)))
                 (Array.to_list m.Model.tables)))
          models))

(* The family's CPD, its child's local id and its tabulated table. *)
let family (m, ti, k) =
  let tm = m.Model.tables.(ti) in
  let n_attrs = Array.length tm.Model.attr_families in
  if k < n_attrs then (tm.Model.attr_families.(k).Model.cpd, k, Model.attr_table m ti k)
  else
    let f = k - n_attrs in
    ( tm.Model.join_families.(f).Model.cpd,
      Model.Scope.join_id (Model.scope m ti) f,
      Model.join_table m ti f )

let test_family_cases_cover_both_kinds () =
  let cases = Array.to_list (Lazy.force family_cases) in
  let with_parents kind =
    List.exists
      (fun c ->
        let cpd, _, _ = family c in
        Cpd.kind_of cpd = kind && Array.length (Cpd.parents cpd) > 0)
      cases
  in
  Alcotest.(check bool) "a table CPD with parents" true (with_parents Cpd.Tables);
  Alcotest.(check bool) "a tree CPD with parents" true (with_parents Cpd.Trees)

(* An injective renaming of a family's local ids: identity, reversal, or
   a random draw from a range three times wider. *)
let gen_relabel_case =
  let open QCheck2.Gen in
  let* ci = int_bound (Array.length (Lazy.force family_cases) - 1) in
  let m, ti, _ = (Lazy.force family_cases).(ci) in
  let n = Model.Scope.n_all (Model.scope m ti) in
  let* renaming =
    oneof
      [ pure (Array.init n Fun.id);
        pure (Array.init n (fun v -> n - 1 - v));
        map Array.of_list (shuffle_l (List.init (3 * n) Fun.id)) ]
  in
  pure (ci, renaming)

let prop_relabel_is_tabulate =
  QCheck2.Test.make ~name:"Plan.relabel of a model table ≡ Cpd.to_factor ~var_of"
    ~count:300 ~long_factor:20 gen_relabel_case (fun (ci, renaming) ->
      let cpd, child, table = family (Lazy.force family_cases).(ci) in
      let var_of v = renaming.(v) in
      let got = Plan.relabel table (Array.map var_of (Selest_prob.Factor.vars table)) in
      let want = Cpd.to_factor ~var_of ~child cpd in
      let module F = Selest_prob.Factor in
      F.vars got = F.vars want
      && F.cards got = F.cards want
      && Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           (F.data got) (F.data want))

(* ---- the elimination planner against the table-based one it replaced ---------- *)

(* The planner as it was, on hash tables of hash tables, kept as the
   oracle: same greedy rule, same tie-break (the smallest id among equal
   costs), same predicted sizes. *)
let oracle_schedule ~keep factors =
  let module F = Selest_prob.Factor in
  let card : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let adj : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let vs = F.vars f and cs = F.cards f in
      Array.iteri
        (fun i v ->
          if not (Hashtbl.mem card v) then begin
            Hashtbl.add card v cs.(i);
            Hashtbl.add adj v (Hashtbl.create 4)
          end)
        vs;
      Array.iter
        (fun v ->
          let nbrs = Hashtbl.find adj v in
          Array.iter (fun u -> if u <> v then Hashtbl.replace nbrs u ()) vs)
        vs)
    factors;
  let cost v =
    let c = ref (float_of_int (Hashtbl.find card v)) in
    Hashtbl.iter
      (fun u () -> c := !c *. float_of_int (Hashtbl.find card u))
      (Hashtbl.find adj v);
    !c
  in
  let candidates =
    List.filter (fun v -> not (F.mem_sorted keep v))
      (List.sort_uniq compare (Hashtbl.fold (fun v _ acc -> v :: acc) card []))
  in
  let costs : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace costs v (cost v)) candidates;
  let remaining = ref candidates in
  let steps = ref [] in
  while !remaining <> [] do
    let v, cost_v =
      List.fold_left
        (fun best v ->
          match best with
          | None -> Some (v, Hashtbl.find costs v)
          | Some (_, c0) ->
            let c = Hashtbl.find costs v in
            if c < c0 then Some (v, c) else best)
        None !remaining
      |> Option.get
    in
    let predicted = int_of_float (cost_v /. float_of_int (Hashtbl.find card v)) in
    steps := { Ve.Schedule.var = v; predicted_entries = predicted } :: !steps;
    remaining := List.filter (fun u -> u <> v) !remaining;
    let nbrs = Hashtbl.find adj v in
    let nlist = Hashtbl.fold (fun u () acc -> u :: acc) nbrs [] in
    List.iter (fun u -> Hashtbl.remove (Hashtbl.find adj u) v) nlist;
    List.iter
      (fun u ->
        let u_nbrs = Hashtbl.find adj u in
        List.iter (fun w -> if u <> w then Hashtbl.replace u_nbrs w ()) nlist)
      nlist;
    Hashtbl.remove adj v;
    List.iter
      (fun u -> if Hashtbl.mem costs u then Hashtbl.replace costs u (cost u))
      nlist
  done;
  let steps = List.rev !steps in
  { Ve.Schedule.order = List.map (fun s -> s.Ve.Schedule.var) steps; steps }

(* Random factor scopes over sparse variable ids with cardinalities 1-3
   (so equal costs are common), a sorted keep set and a sorted set of
   restricted variables. *)
let gen_planner_case =
  let open QCheck2.Gen in
  let* n_vars = int_range 1 8 in
  let* ids = map (fun l -> List.filteri (fun i _ -> i < n_vars) l) (shuffle_l (List.init 16 Fun.id)) in
  let ids = Array.of_list ids in
  let* cards = array_size (pure n_vars) (int_range 1 3) in
  let subset =
    map
      (fun mask -> List.filteri (fun i _ -> List.nth mask i) (List.init n_vars Fun.id))
      (list_size (pure n_vars) bool)
  in
  let* scopes = list_size (int_range 1 6) subset in
  let factors =
    List.map
      (fun scope ->
        let vars = Array.of_list (List.sort compare (List.map (fun i -> ids.(i)) scope)) in
        let card_of v =
          let rec find i = if ids.(i) = v then cards.(i) else find (i + 1) in
          find 0
        in
        let cs = Array.map card_of vars in
        Selest_prob.Factor.create ~vars ~cards:cs
          (Array.make (Array.fold_left ( * ) 1 cs) 1.0))
      scopes
  in
  let sorted_ids l = Array.of_list (List.sort compare (List.map (fun i -> ids.(i)) l)) in
  let* keep = subset in
  let* restricted = subset in
  pure (factors, sorted_ids keep, sorted_ids restricted)

let print_planner_case (factors, keep, restricted) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "scopes [%s] keep [%s] restricted [%s]"
    (String.concat "; "
       (List.map
          (fun f ->
            ints (Selest_prob.Factor.vars f) ^ " cards " ^ ints (Selest_prob.Factor.cards f))
          factors))
    (ints keep) (ints restricted)

let prop_planner_matches_oracle =
  QCheck2.Test.make ~name:"shape planner ≡ table-based planner (order and steps)"
    ~count:500 ~long_factor:20 ~print:print_planner_case gen_planner_case
    (fun (factors, keep, restricted) ->
      (* the oracle sees the factors evidence leaves: restricted
         variables sliced out of every scope *)
      let sliced =
        List.map
          (fun f ->
            Array.fold_left (fun f v -> Selest_prob.Factor.Reference.restrict f v 0) f restricted)
          factors
      in
      let shapes =
        List.map (fun f -> (Selest_prob.Factor.vars f, Selest_prob.Factor.cards f)) factors
      in
      Ve.Schedule.of_shapes ~keep ~restricted shapes = oracle_schedule ~keep sliced
      && Ve.Schedule.plan ~keep factors = oracle_schedule ~keep factors)

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
  (* each cycle publishes a fresh model, as a LOAD does, whose
     per-model tables the compile builds *)
  let serve () =
    let fresh = Model.create m.Model.schema m.Model.tables in
    let e = Selest_serve.Registry.register reg ~name:"m" fresh in
    let skel =
      Selest_serve.Canon.Skel.make ~name:"m" ~version:e.Selest_serve.Registry.version q
    in
    let plan, _ =
      Selest_serve.Plan_cache.find_or_compile plans ~hash:skel.Selest_serve.Canon.Skel.hash
        ~key:skel.Selest_serve.Canon.Skel.key ~compile:(fun () -> Plan.compile fresh q)
    in
    ignore (Plan.execute plan (Plan.bind plan q));
    (plan, fresh)
  in
  let progs = Weak.create 1 and states = Weak.create 1 and tables = Weak.create 1 in
  let[@inline never] first () =
    let plan, fresh = serve () in
    Weak.set tables 0
      (Some (Model.attr_table fresh (Schema.table_index fixture_schema "dept") 1));
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
  Alcotest.(check bool) "its per-domain state collected" false (Weak.check states 0);
  Alcotest.(check bool) "the replaced model's tables collected" false (Weak.check tables 0)

(* Every skeleton over the fixture: each non-empty set of attributes,
   on the join and on each table alone. *)
let all_skeletons =
  let subsets l =
    List.filter (( <> ) [])
      (List.fold_left (fun acc x -> acc @ List.map (fun s -> x :: s) acc) [ [] ] l)
  in
  let sel (tv, attr) = Query.eq tv attr 1 in
  List.map
    (fun sels ->
      Query.create
        ~tvars:[ ("e", "emp"); ("d", "dept") ]
        ~joins:[ Query.join ~child:"e" ~fk:"dept" ~parent:"d" ]
        ~selects:(List.map sel sels) ())
    (subsets [ ("d", "Budget"); ("d", "Floor"); ("e", "Rank"); ("e", "Age") ])
  @ List.map
      (fun sels -> Query.create ~tvars:[ ("d", "dept") ] ~selects:(List.map sel sels) ())
      (subsets [ ("d", "Budget"); ("d", "Floor") ])
  @ List.map
      (fun sels -> Query.create ~tvars:[ ("e", "emp") ] ~selects:(List.map sel sels) ())
      (subsets [ ("e", "Rank"); ("e", "Age") ])

(* Two domains compile every skeleton of a fresh model at once, racing
   to tabulate its families.  Nothing may raise, and every estimate must
   equal a single-domain compile's, bit for bit. *)
let test_concurrent_compiles_on_fresh_model () =
  let m = Lazy.force model and sizes = Lazy.force sizes in
  let fresh () = Model.create m.Model.schema m.Model.tables in
  let estimates prm qs =
    List.map
      (fun q -> Int64.bits_of_float (Plan.estimate (Plan.compile prm q) ~sizes q))
      qs
  in
  let expected = estimates (fresh ()) all_skeletons in
  for round = 1 to 10 do
    let prm = fresh () in
    let reversed = round mod 2 = 0 in
    let other = Domain.spawn (fun () ->
        estimates prm (if reversed then List.rev all_skeletons else all_skeletons))
    in
    let here = estimates prm all_skeletons in
    let there = Domain.join other in
    Alcotest.(check (list int64)) "this domain" expected here;
    Alcotest.(check (list int64)) "the other domain"
      (if reversed then List.rev expected else expected)
      there
  done

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
      ( "model tables",
        [
          Alcotest.test_case "families of both CPD kinds" `Quick
            test_family_cases_cover_both_kinds;
        ]
        @ qsuite [ prop_relabel_is_tabulate ] );
      ("planner", qsuite [ prop_planner_matches_oracle ]);
      ( "lifetime",
        [
          Alcotest.test_case "program state freed after reloads" `Quick
            test_program_state_freed_after_reloads;
          Alcotest.test_case "concurrent compiles on a fresh model" `Quick
            test_concurrent_compiles_on_fresh_model;
        ] );
    ]
