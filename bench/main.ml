(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-scale datasets
     dune exec bench/main.exe -- --fig 4a --fig 6b
     dune exec bench/main.exe -- --list

   Every run writes its rows to BENCH_ledger.json (see harness.ml) and
   exits 1 if a gate failed.  Quick scale uses a 40K-row census table
   (the paper's is 150K); TB and FIN run at paper scale in both modes.
   Shapes, not absolute numbers, are the reproduction target; see
   EXPERIMENTS.md. *)

open Selest
open Selest_workload
module H = Harness

(* ---- configuration -------------------------------------------------------- *)

type cfg = {
  figs : string list;  (* empty = all *)
  full : bool;
  seed : int;
  max_queries : int;
}

let known_figs =
  [
    "sanity"; "4a"; "4b"; "4c"; "5a"; "5b"; "5c"; "6a"; "6b"; "6c"; "7a"; "7b"; "7c";
    "range"; "structure"; "ablation-score"; "ablation-join"; "inference"; "plan"; "exec";
    "frontend"; "learn"; "obs"; "opt"; "telemetry"; "bechamel";
  ]

let parse_args () =
  let figs = ref [] and full = ref false and seed = ref 1 in
  let max_queries = ref 20_000 in
  let rec go = function
    | [] -> ()
    | "--fig" :: f :: rest ->
      if not (List.mem f known_figs) then begin
        Printf.eprintf "unknown figure %S; use --list\n" f;
        exit 1
      end;
      figs := !figs @ [ f ];
      go rest
    | "--full" :: rest ->
      full := true;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string s;
      go rest
    | "--max-queries" :: s :: rest ->
      max_queries := int_of_string s;
      go rest
    | "--list" :: _ ->
      List.iter print_endline known_figs;
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 1
  in
  go (List.tl (Array.to_list Sys.argv));
  { figs = !figs; full = !full; seed = !seed; max_queries = !max_queries }

let cfg = parse_args ()

let wants fig = cfg.figs = [] || List.mem fig cfg.figs

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

(* ---- datasets --------------------------------------------------------------- *)

let census_rows = if cfg.full then Synth.Census.default_rows else 40_000

let census = lazy (Synth.Census.generate ~rows:census_rows ~seed:cfg.seed ())
let tb = lazy (Synth.Tb.generate ~seed:cfg.seed ())
let fin = lazy (Synth.Financial.generate ~seed:cfg.seed ())

(* ---- generic sweep machinery -------------------------------------------------- *)

let kb b = Printf.sprintf "%.1fK" (float_of_int b /. 1024.0)

let by_budget points = List.map (fun (b, os) -> (kb b, os)) points

(* One row per budget, one (err, size) column pair per method; returns
   the (budget, outcomes) points. *)
let sweep ~db ~suite ~budgets ~methods =
  let points =
    List.map
      (fun budget ->
        let ests = List.map (fun build -> build budget) methods in
        (budget, Runner.run_all db suite ests ~max_queries:cfg.max_queries ~seed:cfg.seed ()))
      budgets
  in
  Report.print (Report.sweep_table ~xlabel:"budget" ~rows:(by_budget points));
  points

(* The paper's accuracy orderings: every method's error at every point
   as a ledger row, and a gate that [best] errs less than ([strict]) or
   at most as much as each of [others] at each gated point. *)
let accuracy ~gate ~best ~others ~strict ?(gated = fun _ -> true) points =
  let err os name = (List.find (fun o -> o.Runner.estimator = name) os).Runner.avg_error in
  List.iter
    (fun (x, os) ->
      List.iter
        (fun o -> H.row (Printf.sprintf "err %s @ %s" o.Runner.estimator x) "%" o.Runner.avg_error)
        os)
    points;
  let loses (x, os) =
    gated x
    && List.exists
         (fun o -> if strict then err os best >= err os o else err os best > err os o)
         others
  in
  match List.filter loses points with
  | [] ->
    H.check gate true
      (Printf.sprintf "%d points" (List.length (List.filter (fun (x, _) -> gated x) points)))
  | lost -> H.check gate false ("fails at " ^ String.concat ", " (List.map fst lost))

(* F4's gate holds from ~0.9KB up; below that the greedy search is not
   monotone per point (EXPERIMENTS.md, F4). *)
let fig4_gate points =
  let gated = List.filter_map (fun (b, _) -> if b >= 900 then Some (kb b) else None) points in
  accuracy ~gate:"PRM err <= MHIST, SAMPLE at budgets >= 0.9K" ~best:"PRM(tree)"
    ~others:[ "MHIST"; "SAMPLE" ] ~strict:false
    ~gated:(fun x -> List.mem x gated)
    (by_budget points)

let avi_for db attrs = fun _budget -> Est.Avi.build ~attrs db

let mhist_for db ~table ~attrs = fun budget ->
  Est.Mhist.build ~table ~attrs ~budget_bytes:budget db

let wavelet_for db ~table ~attrs = fun budget ->
  Est.Wavelet.build ~table ~attrs ~budget_bytes:budget db

let sample_for db ~attrs = fun budget ->
  Est.Sample.build ~rows:(max 1 (budget / (4 * List.length attrs))) ~seed:cfg.seed ~attrs db

let bn_for db ~table ?attrs ~kind () = fun budget ->
  Est.Bn_est.build ~table ?attrs ~budget_bytes:budget ~kind ~seed:cfg.seed db

let prm_for db = fun budget -> Est.Prm_est.build ~budget_bytes:budget ~seed:cfg.seed db

let bn_uj_for db = fun budget -> Est.Prm_est.build_bn_uj ~budget_bytes:budget ~seed:cfg.seed db

(* The census BN: the one-table census database learned as a PRM under
   [Prm.Learn.bn_config] (seed 0). *)
let census_bn ?(db = Lazy.force census) ?(kind = Bn.Cpd.Trees) ?(rule = Prm.Learn.Ssn) budget =
  Prm.Learn.learn ~config:{ (Prm.Learn.bn_config ~budget_bytes:budget) with Prm.Learn.kind; rule } db

(* A select query over the census table's attributes, by id. *)
let census_query selects =
  let sel (a, pred) = { Db.Query.sel_tv = "p"; sel_attr = Synth.Census.attr_names.(a); pred } in
  Db.Query.create ~tvars:[ ("p", "person") ] ~selects:(List.map sel selects) ()

(* whole-join SAMPLE for multi-table dbs: store all attributes *)
let join_sample_for db ~n_attrs = fun budget ->
  Est.Sample.build ~rows:(max 1 (budget / (4 * n_attrs))) ~seed:cfg.seed db

let join_synopses_for db = fun budget ->
  Est.Join_synopses.build ~budget_bytes:budget ~seed:cfg.seed db

(* ---- F1: Fig. 1 sanity --------------------------------------------------------- *)

let fig_sanity () =
  section "F1 (Fig. 1): factored representation reproduces the joint exactly";
  let joint =
    [|
      (0, 0, 0, 0.270); (0, 0, 1, 0.030); (0, 1, 0, 0.105); (0, 1, 1, 0.045);
      (0, 2, 0, 0.005); (0, 2, 1, 0.045); (1, 0, 0, 0.135); (1, 0, 1, 0.015);
      (1, 1, 0, 0.063); (1, 1, 1, 0.027); (1, 2, 0, 0.006); (1, 2, 1, 0.054);
      (2, 0, 0, 0.018); (2, 0, 1, 0.002); (2, 1, 0, 0.042); (2, 1, 1, 0.018);
      (2, 2, 0, 0.012); (2, 2, 1, 0.108);
    |]
  in
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
    Bn.Data.create ~names:[| "E"; "I"; "H" |] ~cards:[| 3; 3; 2 |]
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
  Printf.printf "18 joint cells, 11 free parameters, max abs error %.2e\n" !max_err;
  (* the independence approximation is NOT exact: *)
  let indep = Bn.Bn.fit data ~dag:(Bn.Dag.empty 3) ~kind:Bn.Cpd.Tables in
  let max_err_indep = ref 0.0 in
  Array.iter
    (fun (ev, iv, hv, p) ->
      max_err_indep :=
        Float.max !max_err_indep (abs_float (Bn.Bn.joint_prob indep [| ev; iv; hv |] -. p)))
    joint;
  Printf.printf "attribute-value independence max abs error: %.3f\n" !max_err_indep

(* ---- F4: small-subset comparisons ----------------------------------------------- *)

let fig4 ~label ~attrs ~budgets () =
  let db = Lazy.force census in
  section
    (Printf.sprintf
       "F%s (Fig. %s): error vs storage, %d-attribute suite {%s}, census %dK rows"
       label label (List.length attrs) (String.concat ", " attrs) (census_rows / 1000));
  let suite = Suite.single_table ~name:label ~table:"person" ~attrs in
  Printf.printf "%d equality queries per point (cap %d)\n" (Suite.n_queries db suite)
    cfg.max_queries;
  let pairs = List.map (fun a -> ("person", a)) attrs in
  fig4_gate
    (sweep ~db ~suite ~budgets
       ~methods:
         [
           avi_for db pairs;
           mhist_for db ~table:"person" ~attrs;
           wavelet_for db ~table:"person" ~attrs;
           sample_for db ~attrs:pairs;
           bn_for db ~table:"person" ~attrs ~kind:Bn.Cpd.Trees ();
         ])

(* 4a is two-dimensional, so the SVD technique (applicable only there, as
   the paper notes) joins the comparison. *)
let fig4a () =
  let db = Lazy.force census in
  let attrs = [ "Age"; "Income" ] in
  section
    (Printf.sprintf
       "F4a (Fig. 4a): error vs storage, 2-attribute suite {Age, Income}, census %dK rows"
       (census_rows / 1000));
  let suite = Suite.single_table ~name:"4a" ~table:"person" ~attrs in
  Printf.printf "%d equality queries per point (cap %d)\n" (Suite.n_queries db suite)
    cfg.max_queries;
  let pairs = List.map (fun a -> ("person", a)) attrs in
  fig4_gate
    (sweep ~db ~suite ~budgets:[ 300; 500; 700; 900; 1100; 1300 ]
       ~methods:
         [
           avi_for db pairs;
           mhist_for db ~table:"person" ~attrs;
           wavelet_for db ~table:"person" ~attrs;
           (fun budget ->
             Est.Svd.build ~table:"person" ~x:"Age" ~y:"Income" ~budget_bytes:budget db);
           sample_for db ~attrs:pairs;
           bn_for db ~table:"person" ~attrs ~kind:Bn.Cpd.Trees ();
         ])

let fig4b () =
  fig4 ~label:"4b" ~attrs:[ "Age"; "Education"; "Income" ]
    ~budgets:[ 500; 1000; 1500; 2500; 3500 ] ()

let fig4c () =
  fig4 ~label:"4c"
    ~attrs:[ "Age"; "Education"; "Income"; "EmployType" ]
    ~budgets:[ 500; 1500; 2500; 3500; 4500; 5500 ] ()

(* ---- F5: whole-table models ------------------------------------------------------ *)

let fig5 ~label ~attrs ~budgets () =
  let db = Lazy.force census in
  section
    (Printf.sprintf
       "F%s (Fig. %s): whole-table (12-attr) models, queried on {%s}" label label
       (String.concat ", " attrs));
  let suite = Suite.single_table ~name:label ~table:"person" ~attrs in
  Printf.printf "%d equality queries per point (cap %d)\n" (Suite.n_queries db suite)
    cfg.max_queries;
  let all_attrs = Array.to_list Synth.Census.attr_names in
  let all_pairs = List.map (fun a -> ("person", a)) all_attrs in
  sweep ~db ~suite ~budgets
    ~methods:
      [
        sample_for db ~attrs:all_pairs;
        bn_for db ~table:"person" ~kind:Bn.Cpd.Trees ();
        bn_for db ~table:"person" ~kind:Bn.Cpd.Tables ();
      ]
  |> by_budget
  |> accuracy ~gate:"tree CPDs err <= table CPDs" ~best:"PRM(tree)" ~others:[ "PRM(table)" ]
       ~strict:false

let fig5a () =
  fig5 ~label:"5a"
    ~attrs:[ "WorkerClass"; "Education"; "MaritalStatus" ]
    ~budgets:[ 1500; 2500; 3500; 4500 ] ()

let fig5b () =
  fig5 ~label:"5b"
    ~attrs:[ "Income"; "Industry"; "Age"; "EmployType" ]
    ~budgets:[ 1500; 3500; 5500; 7500; 9500 ] ()

let fig5c () =
  let db = Lazy.force census in
  section "F5c (Fig. 5c): per-query comparison, SAMPLE vs PRM at ~9.3KB";
  let attrs = [ "Income"; "Industry"; "Age" ] in
  let suite = Suite.single_table ~name:"5c" ~table:"person" ~attrs in
  let all_pairs = List.map (fun a -> ("person", a)) (Array.to_list Synth.Census.attr_names) in
  let budget = 9_523 in
  let sample = sample_for db ~attrs:all_pairs budget in
  let prm = bn_for db ~table:"person" ~kind:Bn.Cpd.Trees () budget in
  let pairs_s = Runner.per_query db suite sample ~max_queries:cfg.max_queries ~seed:cfg.seed () in
  let pairs_p = Runner.per_query db suite prm ~max_queries:cfg.max_queries ~seed:cfg.seed () in
  Printf.printf "SAMPLE %dB vs PRM(tree) %dB\n" sample.Est.Estimator.bytes prm.Est.Estimator.bytes;
  print_endline (Report.scatter_summary pairs_s pairs_p);
  (* coarse joint histogram of the two error distributions *)
  let bucket e = if e <= 10.0 then 0 else if e <= 50.0 then 1 else if e <= 100.0 then 2 else 3 in
  let hist = Array.make_matrix 4 4 0 in
  List.iter2
    (fun (t, es) (_, ep) ->
      let err est = Est.Estimator.adjusted_relative_error ~truth:t ~estimate:est in
      hist.(bucket (err es)).(bucket (err ep)) <- hist.(bucket (err es)).(bucket (err ep)) + 1)
    pairs_s pairs_p;
  let labels = [| "<=10%"; "<=50%"; "<=100%"; ">100%" |] in
  print_endline "rows: SAMPLE error band; columns: PRM error band; cells: #queries";
  let header = Array.append [| "SAMPLE\\PRM" |] labels in
  let rows =
    Array.mapi
      (fun i row -> Array.append [| labels.(i) |] (Array.map string_of_int row))
      hist
  in
  Util.Tablefmt.print ~header rows

(* ---- F6: select-join suites -------------------------------------------------------- *)

let tb_skeleton3 = H.tb_skeleton3

let fig6_gate =
  accuracy ~gate:"PRM err < SAMPLE, BN+UJ at every point" ~best:"PRM"
    ~others:[ "SAMPLE"; "BN+UJ" ] ~strict:true

let fin_skeleton3 =
  Db.Query.create
    ~tvars:[ ("t", "transaction"); ("a", "account"); ("d", "district") ]
    ~joins:
      [
        Db.Query.join ~child:"t" ~fk:"account" ~parent:"a";
        Db.Query.join ~child:"a" ~fk:"district" ~parent:"d";
      ]
    ()

let fig6a () =
  let db = Lazy.force tb in
  section "F6a (Fig. 6a): error vs storage, TB 3-table select-join suite";
  let suite =
    Suite.make ~name:"6a" ~skeleton:tb_skeleton3
      ~attrs:[ ("c", "Contype"); ("p", "USBorn"); ("s", "Unique") ]
  in
  Printf.printf "%d queries per point; all queries join contact-patient-strain\n"
    (Suite.n_queries db suite);
  sweep ~db ~suite
    ~budgets:[ 600; 1300; 2300; 3300; 4300 ]
    ~methods:
      [ join_sample_for db ~n_attrs:13; join_synopses_for db; bn_uj_for db; prm_for db ]
  |> by_budget
  |> fig6_gate

let tb_suites =
  [
    ("Q1: c.Contype x p.Age", [ ("c", "Contype"); ("p", "Age") ]);
    ("Q2: p.USBorn x s.Unique x c.Infected",
     [ ("c", "Infected"); ("p", "USBorn"); ("s", "Unique") ]);
    ("Q3: c.Age x p.Homeless x s.DrugResist",
     [ ("c", "Age"); ("p", "Homeless"); ("s", "DrugResist") ]);
  ]

let fin_suites =
  [
    ("Q1: t.TxType x a.Balance", [ ("t", "TxType"); ("a", "Balance") ]);
    ("Q2: t.Amount x a.Frequency x d.Size",
     [ ("t", "Amount"); ("a", "Frequency"); ("d", "Size") ]);
    ("Q3: t.Operation x a.CardType x d.AvgSalary",
     [ ("t", "Operation"); ("a", "CardType"); ("d", "AvgSalary") ]);
  ]

let fig6_sets ~label ~db ~skeleton ~suites ~budget ~n_attrs () =
  section
    (Printf.sprintf "F%s (Fig. %s): three select-join query suites at %s" label label
       (kb budget));
  let ests =
    [ join_sample_for db ~n_attrs budget; bn_uj_for db budget; prm_for db budget ]
  in
  let rows =
    List.map
      (fun (name, attrs) ->
        let suite = Suite.make ~name ~skeleton ~attrs in
        let outcomes = Runner.run_all db suite ests ~max_queries:cfg.max_queries ~seed:cfg.seed () in
        (name, outcomes))
      suites
  in
  Report.print (Report.sweep_table ~xlabel:"suite" ~rows);
  fig6_gate (List.map (fun (name, os) -> (List.hd (String.split_on_char ':' name), os)) rows)

let fig6b () =
  fig6_sets ~label:"6b" ~db:(Lazy.force tb) ~skeleton:tb_skeleton3 ~suites:tb_suites
    ~budget:4_500 ~n_attrs:13 ()

let fig6c () =
  fig6_sets ~label:"6c" ~db:(Lazy.force fin) ~skeleton:fin_skeleton3 ~suites:fin_suites
    ~budget:2_048 ~n_attrs:12 ()

(* ---- F7: running time ---------------------------------------------------------------- *)

let learn_census ~kind ~budget ~rows =
  let db =
    if rows = census_rows then Lazy.force census
    else Synth.Census.generate ~rows ~seed:cfg.seed ()
  in
  census_bn ~db ~kind budget

let fig7a () =
  section "F7a (Fig. 7a): construction time vs model storage (census)";
  let budgets = [ 800; 1500; 2500; 3500; 4500; 6500; 8500 ] in
  let header = [| "budget"; "trees (s)"; "trees bytes"; "tables (s)"; "tables bytes" |] in
  let rows =
    List.map
      (fun b ->
        let learn kind () = learn_census ~kind ~budget:b ~rows:census_rows in
        let rt, tt = H.time (learn Bn.Cpd.Trees) in
        let rb, tb = H.time (learn Bn.Cpd.Tables) in
        [| kb b; Printf.sprintf "%.2f" tt; string_of_int rt.Prm.Learn.bytes;
           Printf.sprintf "%.2f" tb; string_of_int rb.Prm.Learn.bytes |])
      budgets
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

let fig7b () =
  section "F7b (Fig. 7b): construction time vs data size (fixed 3.5KB budget)";
  let sizes =
    if cfg.full then [ 16_000; 32_000; 48_000; 64_000; 96_000; 128_000 ]
    else [ 8_000; 16_000; 24_000; 32_000; 40_000 ]
  in
  (* the climber's work beside each time: distinct family fits, and the
     full-column passes the count kernel made for them *)
  let header = [| "rows"; "trees (s)"; "fits"; "scans"; "tables (s)"; "fits"; "scans" |] in
  let learn kind n =
    Prob.Counts.reset_total_scans ();
    let r, t = H.time (fun () -> learn_census ~kind ~budget:3_584 ~rows:n) in
    [| Printf.sprintf "%.2f" t; string_of_int r.Prm.Learn.family_evaluations;
       string_of_int (Prob.Counts.total_scans ()) |]
  in
  let rows =
    List.map
      (fun n ->
        Array.concat [ [| string_of_int n |]; learn Bn.Cpd.Trees n; learn Bn.Cpd.Tables n ])
      sizes
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

(* Estimation time on the engine that serves, per budget and CPD kind: a
   cold [Plan.compile] of the query on a fresh copy of the model (so it
   also tabulates the CPDs, as after a LOAD) and a warm [Plan.estimate]
   on the compiled plan, each the median of 15 calibration-scaled
   samples. *)
let fig7c () =
  section "F7c (Fig. 7c): estimation time vs model size (microseconds per query)";
  let db = Lazy.force census in
  let person = Db.Database.table db "person" in
  let budgets = [ 1_000; 3_000; 5_000; 7_000; 9_000 ] in
  let q = census_query [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9); (0, Db.Query.Eq 5) ] in
  let sizes = [| Db.Table.size person |] in
  let reps = 200 in
  let timed b kind =
    let r = census_bn ~db ~kind b in
    let m = r.Prm.Learn.model in
    let fresh () = Prm.Model.create m.Prm.Model.schema m.Prm.Model.tables in
    let compile m = ignore (Sys.opaque_identity (Plan.compile m q)) in
    compile (fresh ());
    let cold =
      Array.init 15 (fun _ ->
          let m = fresh () in
          let calib = H.calibrate () in
          H.scaled ~calib (fun () -> compile m))
    in
    let plan = Plan.compile (fresh ()) q in
    let warm =
      Array.init 15 (fun _ ->
          let calib = H.calibrate () in
          H.scaled ~calib (fun () ->
              for _ = 1 to reps do
                ignore (Sys.opaque_identity (Plan.estimate plan ~sizes q))
              done))
    in
    let compile_us = H.per_op ~us:true ~ops:1 cold in
    let estimate_us = H.per_op ~us:true ~ops:reps warm in
    let label =
      (match kind with Bn.Cpd.Trees -> "trees" | Bn.Cpd.Tables -> "tables") ^ " @ " ^ kb b
    in
    H.stat_row ("compile_us " ^ label) "us" compile_us;
    H.stat_row ("estimate_us " ^ label) "us" estimate_us;
    H.row ("bytes " ^ label) "bytes" (float_of_int r.Prm.Learn.bytes);
    [| Printf.sprintf "%.1f" compile_us.H.median; Printf.sprintf "%.2f" estimate_us.H.median;
       string_of_int r.Prm.Learn.bytes |]
  in
  let header =
    [| "budget"; "trees compile us"; "trees estimate us"; "trees bytes";
       "tables compile us"; "tables estimate us"; "tables bytes" |]
  in
  let rows =
    List.map
      (fun b -> Array.concat [ [| kb b |]; timed b Bn.Cpd.Trees; timed b Bn.Cpd.Tables ])
      budgets
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

(* ---- range queries (Sec. 2.3) -------------------------------------------------------------- *)

let fig_range () =
  section "R1 (Sec. 2.3): range queries at no extra cost (census, 2KB models)";
  let db = Lazy.force census in
  let attrs = [ "Age"; "Income" ] in
  let pairs = List.map (fun a -> ("person", a)) attrs in
  let budget = 2_048 in
  let ests =
    [
      Est.Avi.build ~attrs:pairs db;
      Est.Mhist.build ~table:"person" ~attrs ~budget_bytes:budget db;
      Est.Wavelet.build ~table:"person" ~attrs ~budget_bytes:budget db;
      Est.Sample.build ~rows:(budget / 8) ~seed:cfg.seed ~attrs:pairs db;
      Est.Bn_est.build ~table:"person" ~attrs ~budget_bytes:budget ~seed:cfg.seed db;
    ]
  in
  (* Random range queries over both attributes. *)
  let rng = Util.Rng.create (cfg.seed lxor 0x7A6E) in
  let n_queries = 1_000 in
  let random_range card =
    let a = Util.Rng.int rng card and b = Util.Rng.int rng card in
    (min a b, max a b)
  in
  let queries =
    List.init n_queries (fun _ ->
        let alo, ahi = random_range 18 in
        let ilo, ihi = random_range 42 in
        Db.Query.create ~tvars:[ ("t", "person") ]
          ~selects:[ Db.Query.range "t" "Age" alo ahi; Db.Query.range "t" "Income" ilo ihi ]
          ())
  in
  let header = [| "estimator"; "avg err %"; "median %"; "storage" |] in
  let rows =
    List.map
      (fun est ->
        let errors =
          List.filter_map
            (fun q ->
              match est.Est.Estimator.estimate q with
              | e ->
                Some (Est.Estimator.adjusted_relative_error ~truth:(true_size db q) ~estimate:e)
              | exception Est.Estimator.Unsupported _ -> None)
            queries
        in
        let arr = Array.of_list errors in
        [| est.Est.Estimator.name;
           Util.Tablefmt.float_cell (Util.Arrayx.mean arr);
           Util.Tablefmt.float_cell (Util.Arrayx.median arr);
           string_of_int est.Est.Estimator.bytes |])
      ests
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

(* ---- structure recovery --------------------------------------------------------------------- *)

(* The census generator's ground-truth dependencies (parent, child), by
   attribute name; see lib/synth/census.ml. *)
let census_true_edges =
  [
    ("Age", "Education"); ("Age", "MaritalStatus"); ("Age", "WorkerClass");
    ("Age", "EmployType"); ("Age", "Income"); ("Age", "Children");
    ("Education", "WorkerClass"); ("Education", "Industry"); ("Education", "Income");
    ("WorkerClass", "Industry"); ("WorkerClass", "EmployType");
    ("EmployType", "Income"); ("Income", "Earner"); ("Income", "Children");
    ("EmployType", "Earner"); ("MaritalStatus", "Children");
    ("MaritalStatus", "ChildSupport"); ("Children", "ChildSupport");
  ]

let fig_structure () =
  section "S1: skeleton recovery vs the generator's ground truth (census)";
  let name i = Synth.Census.attr_names.(i) in
  let true_adj =
    List.map (fun (a, b) -> if a < b then (a, b) else (b, a)) census_true_edges
    |> List.sort_uniq compare
  in
  let header = [| "budget"; "learned edges"; "true pos"; "precision"; "recall" |] in
  let rows =
    List.map
      (fun budget ->
        let m = (census_bn budget).Prm.Learn.model in
        let scope = Prm.Model.scope m 0 in
        let learned =
          Array.to_list m.Prm.Model.tables.(0).Prm.Model.attr_families
          |> List.mapi (fun v f ->
                 List.map
                   (fun p -> (Prm.Model.Scope.local_id scope p, v))
                   (Array.to_list f.Prm.Model.parents))
          |> List.concat
          |> List.map (fun (u, v) ->
                 let a = name u and b = name v in
                 if a < b then (a, b) else (b, a))
          |> List.sort_uniq compare
        in
        let tp = List.length (List.filter (fun e -> List.mem e true_adj) learned) in
        [| kb budget;
           string_of_int (List.length learned);
           string_of_int tp;
           Printf.sprintf "%.2f" (float_of_int tp /. float_of_int (max 1 (List.length learned)));
           Printf.sprintf "%.2f" (float_of_int tp /. float_of_int (List.length true_adj)) |])
      [ 1_000; 2_000; 4_000; 8_000 ]
  in
  Util.Tablefmt.print ~header (Array.of_list rows);
  print_endline
    "(adjacency is compared undirected: BN equivalence classes do not fix edge directions)"

(* ---- ablations -------------------------------------------------------------------------- *)

let ablation_score () =
  section "A1 (Sec. 4.3.3): move-selection rules Naive vs SSN vs MDL (census)";
  let suite =
    Suite.single_table ~name:"a1" ~table:"person" ~attrs:[ "Age"; "Education"; "Income" ]
  in
  let db = Lazy.force census in
  let header = [| "budget"; "rule"; "loglik (bits/row)"; "bytes"; "avg err %" |] in
  let rows = ref [] in
  List.iter
    (fun budget ->
      List.iter
        (fun (rname, rule) ->
          let r = census_bn ~rule budget in
          let est = {
            Est.Estimator.name = rname;
            bytes = r.Prm.Learn.bytes;
            prepare = ignore;
            estimate = Prm.Estimate.cached_estimator r.Prm.Learn.model ~sizes:[| census_rows |];
          } in
          let o = Runner.run db suite est ~max_queries:4_000 ~seed:cfg.seed () in
          rows :=
            [| kb budget; rname;
               Printf.sprintf "%.3f" (r.Prm.Learn.loglik /. float_of_int census_rows);
               string_of_int r.Prm.Learn.bytes;
               Printf.sprintf "%.1f" o.Runner.avg_error |]
            :: !rows)
        [ ("naive", Prm.Learn.Naive); ("ssn", Prm.Learn.Ssn); ("mdl", Prm.Learn.Mdl) ])
    [ 1_000; 2_000; 4_000 ];
  Util.Tablefmt.print ~header (Array.of_list (List.rev !rows))

let ablation_join () =
  section "A2: what the relational extensions buy (TB join suites)";
  let db = Lazy.force tb in
  let budget = 4_500 in
  let full = prm_for db budget in
  let no_join_parents =
    let c =
      { (Prm.Learn.default_config ~budget_bytes:budget) with
        Prm.Learn.allow_join_parents = false; seed = cfg.seed }
    in
    let r = Prm.Learn.learn ~config:c db in
    { (Est.Prm_est.of_model ~name:"PRM-noJ" r.Prm.Learn.model
         ~sizes:(Prm.Estimate.sizes_of_db db))
      with Est.Estimator.bytes = r.Prm.Learn.bytes }
  in
  let uj = bn_uj_for db budget in
  let rows =
    List.map
      (fun (name, attrs) ->
        let suite = Suite.make ~name ~skeleton:tb_skeleton3 ~attrs in
        let outcomes =
          Runner.run_all db suite [ uj; no_join_parents; full ]
            ~max_queries:cfg.max_queries ~seed:cfg.seed ()
        in
        (name, outcomes))
      tb_suites
  in
  Report.print (Report.sweep_table ~xlabel:"suite" ~rows);
  print_endline
    "BN+UJ: no cross-table parents, uniform joins. PRM-noJ: cross-table parents\n\
     but uniform joins. PRM: full model with join-indicator parents."

(* ---- the gated figures ---------------------------------------------------------------------- *)

(* The figures below gate the serving and inference engines.  Each
   writes its rows to the ledger through [H.row]/[H.check]; every timing
   gate is judged on the median of interleaved A/B pairs ([H.ab]), so a
   slow minute slows both sides of a pair alike. *)

let tbx = lazy (H.tb_fixture ~seed:cfg.seed (Lazy.force tb))

let pp_stat (s : H.stat) = Printf.sprintf "%.3g (n %d, spread %.3f)" s.H.median s.H.n s.H.spread

(* The shape goldens bench-smoke diffs against test/golden/. *)
let write_golden file buf =
  Out_channel.with_open_bin (H.at_root file) (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "wrote %s\n" file

(* A bit-identity gate: [bad] of [n] items diverged. *)
let check_bits name bad n what =
  H.check name (bad = 0) (Printf.sprintf "%d/%d %s" (n - bad) n what)

(* ---- inference core: the one-shot compiled plan vs Ve.Reference ---------------------------- *)

(* The engine that serves, run one-shot, against the naive oracle:
   single-query [Plan.compile] + [Plan.execute] on a census BN against
   [Ve.Reference] on the plan's own factors and evidence (bit-identity
   first), and ESTBATCH against sequential EST on cold estimate caches. *)
let fig_inference () =
  section "I1: one-shot compiled plan vs Ve.Reference, ESTBATCH";
  (* The one-shot side compiles afresh on every call; the model's CPD
     tables, tabulated once per model, are warm after the first.
     Schedule and program reuse is the "plan" figure's. *)
  let ve_pair ~label ~metric ~reps ~pairs budget selects =
    let model = (census_bn ~kind:Bn.Cpd.Tables budget).Prm.Learn.model in
    let q = census_query selects in
    let one_shot () =
      let plan = Plan.compile model q in
      Plan.execute plan (Plan.bind plan q)
    in
    let plan = Plan.compile model q in
    let fs = Plan.factors plan and ev = Plan.bind plan q @ Plan.join_evidence plan in
    let reference () = Bn.Ve.Reference.prob_of_evidence fs ev in
    if Int64.bits_of_float (one_shot ()) <> Int64.bits_of_float (reference ()) then
      failwith "inference bench: one-shot plan diverged from Ve.Reference";
    let loop f () =
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done
    in
    let t_ref, t_plan = H.timed_pairs ~pairs (loop reference) (loop one_shot) in
    let speedup = H.ratio t_ref t_plan in
    let ns = H.per_op ~ops:reps t_plan in
    Printf.printf "%-44s %10.0f ns   %.1fx over Reference\n" label ns.H.median speedup.H.median;
    H.stat_row (metric ^ "_ns") "ns" ns;
    H.stat_row (metric ^ "_speedup") "ratio" speedup
  in
  (* headline: a select+range query (the paper's Sec. 2.3 workload) on a
     64KB table-CPD census model — big CPTs keep the kernels busy *)
  ve_pair ~label:"plan eq+range query (64KB census BN)" ~metric:"ve_single" ~reps:3 ~pairs:7
    65_536
    [ (10, Db.Query.Eq 7); (0, Db.Query.Range (2, 9)) ];
  (* secondary: an all-equality query on a paper-scale 4KB model *)
  ve_pair ~label:"plan 3xEq query (4KB census BN)" ~metric:"ve_eq_small" ~reps:30 ~pairs:9
    4_096
    [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9); (0, Db.Query.Eq 5) ];

  (* --- ESTBATCH vs sequential EST, cold estimate cache: the ratio prices
     the batch framing, not parallelism --- *)
  let fx = Lazy.force tbx in
  let server = H.fresh_server fx in
  let bodies = List.map H.body fx.H.triples in
  let batches = List.init 3 (fun k -> List.filteri (fun i _ -> i / 32 = k) bodies) in
  let cold lines () =
    Serve.Lru.clear (Serve.Server.cache server);
    List.iter (fun l -> ignore (H.ask server l)) lines
  in
  let batch =
    H.ab
      (cold (List.map (fun b -> "EST " ^ b) bodies))
      (cold (List.map (fun c -> "ESTBATCH " ^ String.concat " || " c) batches))
      ~pairs:21
  in
  Printf.printf "\n%d distinct TB join queries, cold cache, PRM %dB\n" (List.length bodies)
    (Prm.Model.size_bytes fx.H.model);
  H.check "estbatch throughput vs sequential >= 0.6" (batch.H.median >= 0.6) (pp_stat batch);
  H.stat_row "estbatch_over_est_throughput" "ratio" batch

(* ---- plan IR: compile once, bind many -------------------------------------------------------- *)

(* The compiled-plan pipeline on the TB 3-table join skeleton:
   compile-once is bit-identical to the one-shot Estimate path over
   every binding, a warm execute (schedule-memo hit) is no slower than
   recompiling per request, and a served repeat request hits the plan
   cache. *)
let fig_plan () =
  section "P1: plan IR — compile once, bind many, plan-cache-warm serving";
  let fx = Lazy.force tbx in
  let model = fx.H.model in
  let sizes = Prm.Estimate.sizes_of_db fx.H.db in
  let queries = Array.of_list (List.map H.query_of fx.H.triples) in
  let n = Array.length queries in
  let plan = Plan.compile model queries.(0) in
  let divergent =
    Array.fold_left
      (fun acc q ->
        if Int64.bits_of_float (Plan.estimate plan ~sizes q)
           <> Int64.bits_of_float (Prm.Estimate.estimate model ~sizes q)
        then acc + 1
        else acc)
      0 queries
  in
  check_bits "compile-once bit-identical to one-shot" divergent n "bindings";
  let warm () = Array.iter (fun q -> ignore (Plan.estimate plan ~sizes q)) queries in
  let recompile () =
    Array.iter (fun q -> ignore (Plan.estimate (Plan.compile model q) ~sizes q)) queries
  in
  let (), memo = Obs.Hotpath.measure warm in
  let t_re, t_warm = H.timed_pairs ~pairs:9 recompile warm in
  let speedup = H.ratio t_re t_warm in
  let warm_us = H.per_op ~us:true ~ops:n t_warm in
  Printf.printf "warm execute %.2fus | recompile+execute %.1fx slower\n" warm_us.H.median
    speedup.H.median;
  H.check "warm execute <= per-request recompile" (speedup.H.median >= 1.0) (pp_stat speedup);
  let hits = memo.Obs.Hotpath.program_hits and misses = memo.Obs.Hotpath.program_misses in
  H.check "schedule memo reused across bindings" (hits > 0 && misses = 0)
    (Printf.sprintf "%d/%d" hits misses);
  H.stat_row "execute_warm_us" "us" warm_us;
  H.stat_row "compile_once_speedup" "ratio" speedup;

  (* --- cold compiles: the 64 distinct 2-4-attribute Eq skeletons of a
     tb_reload run, each pass on a fresh copy of the model (what a LOAD
     publishes), so the pass also builds the model's tables --- *)
  let skeletons =
    let scratch = Db.Squery.create (Db.Squery.Symtab.of_schema (Db.Database.schema fx.H.db)) in
    Array.map
      (fun body ->
        let b = Bytes.of_string body in
        Db.Squery.parse scratch b ~off:0 ~len:(Bytes.length b);
        Db.Squery.canon scratch;
        Db.Squery.to_query scratch)
      (fst (Perfbench.Workloads.stream Perfbench.Workloads.tb_reload ~seed:cfg.seed ~n:0))
  in
  let n_sk = Array.length skeletons in
  let fresh () = Prm.Model.create model.Prm.Model.schema model.Prm.Model.tables in
  let compile_all m =
    Array.iter (fun q -> ignore (Sys.opaque_identity (Plan.compile m q))) skeletons
  in
  compile_all (fresh ());
  let cold =
    Array.init 15 (fun _ ->
        let m = fresh () in
        let calib = H.calibrate () in
        H.scaled ~calib (fun () -> compile_all m))
  in
  let compile_us = H.per_op ~us:true ~ops:n_sk cold in
  let words =
    let m = fresh () in
    let w0 = Gc.minor_words () in
    compile_all m;
    (Gc.minor_words () -. w0) /. float_of_int n_sk
  in
  Printf.printf "cold compile %.1fus, %.0f minor words (%d skeletons, fresh model)\n"
    compile_us.H.median words n_sk;
  H.stat_row "compile_us" "us" compile_us;
  H.row "compile_minor_words" "words" words;
  (* a deterministic count, so the gate sits at the measured level *)
  H.check "compile_minor_words <= 5000" (words <= 5000.0) (Printf.sprintf "%.0f" words);

  (* --- served: the second pass over a cleared estimate cache runs full
     inference on the plan the first pass compiled --- *)
  let server = H.fresh_server fx in
  let pass () = List.iter (fun tr -> ignore (H.ask server ("EST " ^ H.body tr))) fx.H.triples in
  pass ();
  Serve.Lru.clear (Serve.Server.cache server);
  pass ();
  let hits, misses, _ = Serve.Plan_cache.stats (Serve.Server.plan_cache server) in
  let stats = H.ask server "STATS" in
  H.check "plan cache hit on every repeat request" (hits = (2 * n) - 1 && misses = 1)
    (Printf.sprintf "%d hits / %d misses" hits misses);
  H.check "STATS reports the plan cache"
    (Serve.Protocol.stats_field stats "plan_cache_hits" = Some (string_of_int hits))
    "";

  (* --- reload: LOAD compiles the plans of the 64 tb_reload skeletons
     fetched under the version it replaces, and re-answers the 64
     queries its cache holds under that version, before it publishes, so
     the requests after it compile nothing and infer nothing --- *)
  let path = Filename.temp_file "selest_bench" ".prm" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Prm.Serialize.save path model;
      let server = H.fresh_server fx in
      let bodies = fst (Perfbench.Workloads.stream Perfbench.Workloads.tb_reload ~seed:cfg.seed ~n:0) in
      let counts () =
        let stats = H.ask server "STATS" in
        let get k = int_of_string (Option.get (Serve.Protocol.stats_field stats k)) in
        (get "plan_cache_misses", get "infer.default")
      in
      let ests () = Array.iter (fun b -> ignore (H.ask server ("EST " ^ b))) bodies in
      let load () = ignore (H.ask server ("LOAD default " ^ path)) in
      ests ();
      let request_compiles = ref 0 and request_infers = ref 0 in
      let load_us =
        Array.init 9 (fun _ ->
            let calib = H.calibrate () in
            let t = H.scaled ~calib load in
            let m0, i0 = counts () in
            ests ();
            let m1, i1 = counts () in
            request_compiles := !request_compiles + (m1 - m0);
            request_infers := !request_infers + (i1 - i0);
            t)
      in
      let load_us = H.per_op ~us:true ~ops:1 load_us in
      Printf.printf
        "LOAD carrying %d skeletons and answers %.0fus | %d request-path compiles, %d inferences after it\n"
        (Array.length bodies) load_us.H.median !request_compiles !request_infers;
      H.stat_row "load_carry_us" "us" load_us;
      H.row "reload_request_compiles" "count" (float_of_int !request_compiles);
      H.check "reload_request_compiles = 0" (!request_compiles = 0)
        (string_of_int !request_compiles);
      H.row "reload_request_infers" "count" (float_of_int !request_infers);
      H.check "reload_request_infers = 0" (!request_infers = 0)
        (string_of_int !request_infers))

(* ---- bytecode executor + binary wire frames -------------------------------------------------- *)

(* The zero-allocation bytecode executor (Selest_plan.Exec) and the
   binary EST frames: bit-identity against Ve.Reference over every TB
   binding, >= 10x Ve.Reference on the same warm bindings, zero
   minor-heap words across 10k warm load+run pairs, and binary frames
   no slower than text on the same warm-cache workload (both
   transport-free: handle_frame vs handle_line). *)
let fig_exec () =
  section "X1: bytecode executor — zero-alloc warm estimates, binary wire frames";
  let fx = Lazy.force tbx in
  let queries = List.map H.query_of fx.H.triples in
  let n = List.length queries in
  let plan = Plan.compile fx.H.model (List.hd queries) in
  let bindings = Array.of_list (List.map (Plan.bind plan) queries) in
  let factors = Plan.factors plan and jev = Plan.join_evidence plan in
  let reference _ b = Bn.Ve.Reference.prob_of_evidence factors (b @ jev) in

  (* --- gate 1: bit-identity vs Ve.Reference --- *)
  let count p = Array.fold_left (fun acc b -> if p b then acc + 1 else acc) 0 bindings in
  let differs x y = Int64.bits_of_float x <> Int64.bits_of_float y in
  check_bits "bytecode bit-identical to Ve.Reference"
    (count (fun b -> differs (Plan.execute plan b) (reference plan b)))
    n "bindings";

  (* --- gate 2: warm execute speedup over Ve.Reference.  The gate it
     replaced asked >= 5x the fused generic engine, which ran 1.84-1.89x
     faster than Ve.Reference on these bindings (3 runs, 2 cores): 5 x
     1.89 rounds up to 10. --- *)
  let run f () = Array.iter (fun b -> ignore (f plan b)) bindings in
  let t_ref, t_byte = H.timed_pairs ~pairs:15 (run reference) (run Plan.execute) in
  let speedup = H.ratio t_ref t_byte in
  let byte_us = H.per_op ~us:true ~ops:n t_byte in
  Printf.printf "warm execute: bytecode %.3fus, %.1fx Ve.Reference\n" byte_us.H.median
    speedup.H.median;
  H.check "bytecode >= 10x Ve.Reference warm execute" (speedup.H.median >= 10.0)
    (pp_stat speedup);
  H.stat_row "execute_bytecode_us" "us" byte_us;
  H.stat_row "bytecode_speedup_over_reference" "ratio" speedup;

  (* --- gate 3: zero minor-heap allocation per warm request --- *)
  (match Plan.program_for plan bindings.(0) with
  | None -> H.check "compiled program available" false "program_for returned None"
  | Some prog ->
    let st = Selest_plan.Exec.state_for prog in
    let b0 = bindings.(0) in
    (match Selest_plan.Exec.load prog st b0 with
    | `Ok -> Selest_plan.Exec.run st
    | `No_match | `Contradiction -> failwith "exec: compile-query binding did not load");
    let reps = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Selest_plan.Exec.load prog st b0);
      Selest_plan.Exec.run st
    done;
    let delta = Gc.minor_words () -. w0 in
    H.check "zero minor-heap allocation per warm request" (delta = 0.0)
      (Printf.sprintf "%.0f words / %d requests" delta reps);
    H.row "warm_minor_words_delta" "words" delta);

  (* --- gate 4: binary frames vs text protocol, transport-free --- *)
  let server = H.fresh_server fx in
  let lines = List.map (fun tr -> "EST " ^ H.body tr) fx.H.triples in
  let frames =
    List.map
      (fun tr ->
        let encoded =
          Serve.Protocol.Bin.encode_request
            (Serve.Protocol.Bin.Best { model = None; body = H.body tr })
        in
        (* handle_frame takes the payload with the length prefix stripped *)
        Bytes.of_string (String.sub encoded 4 (String.length encoded - 4)))
      fx.H.triples
  in
  (* the first pass fills the estimate cache; binary and text answers
     must carry bit-identical floats *)
  let mismatches =
    List.fold_left2
      (fun acc l fr ->
        let text_v = float_of_string (Serve.Protocol.payload (H.ask server l)) in
        let out = Serve.Server.handle_frame server fr in
        match
          Serve.Protocol.Bin.decode_response
            (Bytes.of_string (String.sub out 4 (String.length out - 4)))
        with
        | Ok (Serve.Protocol.Bin.Bvalue v) -> if differs v text_v then acc + 1 else acc
        | Ok _ | Error _ -> failwith "bin: unexpected response to EST frame")
      0 lines frames
  in
  check_bits "binary answers bit-identical to text" mismatches n "answers";
  let text () = List.iter (fun l -> ignore (Serve.Server.handle_line server l)) lines in
  let bin () = List.iter (fun fr -> ignore (Serve.Server.handle_frame server fr)) frames in
  let t_text, t_bin = H.timed_pairs ~reps:15 ~pairs:31 text bin in
  let ratio = H.ratio t_text t_bin in
  (* The two paths cost the same, so a bare "binary >= text" is a coin
     flip; binary may trail text by no more than the measured spread. *)
  H.check "binary EST within spread of text"
    (ratio.H.median >= 1.0 -. ratio.H.spread)
    (pp_stat ratio);
  H.stat_row "serve_text_us" "us" (H.per_op ~us:true ~ops:n t_text);
  H.stat_row "serve_bin_us" "us" (H.per_op ~us:true ~ops:n t_bin);
  H.stat_row "text_over_bin_time" "ratio" ratio

(* ---- allocation-free request front-end ------------------------------------------------------- *)

(* The request front-end: (1) the zero-copy parse + canon + hash
   pipeline answers exactly like the reference split/Qparse/validate/
   normalize pipeline and beats it >= 2x on a warm miss; (2) range and
   set predicates lower into the bytecode executor bit-identically to
   Ve.Reference; (3) a warm served EST allocates
   zero minor-heap words end to end — socket read to answer write — in
   both text and binary framing, driven through the shard loop
   production runs over a simulated network, and a repeated body is
   answered from the raw-body memo without running the lexer; (4) an
   estimate-cache miss on a cached plan — keyed, fetched and loaded
   straight from the parse scratch — allocates at most 120 minor words,
   with its in-process
   stages (parse, canon+key, plan fetch, load+run, render+insert)
   reported beside it. *)
let fig_frontend () =
  section "F1: allocation-free front-end — zero-copy parse, hash keys, range/set bytecode";
  let fx = Lazy.force tbx in
  let db = fx.H.db in
  let bodies = Array.of_list (List.map H.body fx.H.triples) in
  let n = Array.length bodies in

  (* --- gate 1: zero-copy pipeline ≡ reference pipeline, >= 2x faster --- *)
  let scratch = Db.Squery.create (Db.Squery.Symtab.of_schema (Db.Database.schema db)) in
  let bufs = Array.map Bytes.of_string bodies in
  let reference_query b =
    let tvars, joins, selects = Serve.Protocol.split_sections b in
    let q = Db.Qparse.parse db ~tvars ~joins ~selects () in
    Db.Exec.validate db q;
    q
  in
  let zero_copy buf =
    Db.Squery.parse scratch buf ~off:0 ~len:(Bytes.length buf);
    Db.Squery.canon scratch
  in
  let divergent = ref 0 in
  Array.iteri
    (fun i b ->
      zero_copy bufs.(i);
      if Db.Squery.to_query scratch <> Serve.Canon.normalize (reference_query b) then
        incr divergent)
    bodies;
  check_bits "zero-copy parse ≡ reference pipeline" !divergent n "bodies";
  (* Canon.key normalizes internally: the old front-end's whole miss-path
     key derivation in one call *)
  let reference () =
    Array.iter (fun b -> ignore (Sys.opaque_identity (Serve.Canon.key (reference_query b)))) bodies
  in
  let zero_copy_all () =
    Array.iter
      (fun buf ->
        zero_copy buf;
        ignore (Sys.opaque_identity (Db.Squery.hash scratch)))
      bufs
  in
  let t_ref, t_zc = H.timed_pairs ~reps:5 ~pairs:15 reference zero_copy_all in
  let speedup = H.ratio t_ref t_zc in
  let zc_us = H.per_op ~us:true ~ops:n t_zc in
  Printf.printf "warm-miss front-end: zero-copy %.3fus, %.1fx reference\n" zc_us.H.median
    speedup.H.median;
  H.check "zero-copy front-end >= 2x reference" (speedup.H.median >= 2.0) (pp_stat speedup);
  H.stat_row "frontend_zero_copy_us" "us" zc_us;
  H.stat_row "frontend_speedup" "ratio" speedup;

  (* --- gate 2: range/set predicates through the bytecode executor --- *)
  let rng = Util.Rng.create (cfg.seed lxor 0xF0E) in
  let sel tv attr cardv =
    match Util.Rng.int rng 3 with
    | 0 -> Db.Query.eq tv attr (Util.Rng.int rng cardv)
    | 1 ->
      let a = Util.Rng.int rng cardv and b = Util.Rng.int rng cardv in
      Db.Query.range tv attr (min a b) (max a b)
    | _ ->
      let k = 1 + Util.Rng.int rng (min 3 cardv) in
      Db.Query.in_set tv attr (List.init k (fun _ -> Util.Rng.int rng cardv))
  in
  let n_masked = 200 in
  let masked_queries =
    List.init n_masked (fun _ ->
        Db.Query.with_selects tb_skeleton3
          [
            sel "c" "Contype" (H.card db "contact" "Contype");
            sel "p" "Age" (H.card db "patient" "Age");
            sel "s" "DrugResist" (H.card db "strain" "DrugResist");
          ])
  in
  let mplan = Plan.compile fx.H.model (List.hd masked_queries) in
  let mfactors = Plan.factors mplan and mjev = Plan.join_evidence mplan in
  let div_ref = ref 0 in
  List.iter
    (fun q ->
      let b = Plan.bind mplan q in
      let byte = Int64.bits_of_float (Plan.execute mplan b) in
      if byte <> Int64.bits_of_float (Bn.Ve.Reference.prob_of_evidence mfactors (b @ mjev))
      then incr div_ref)
    masked_queries;
  check_bits "range/set bytecode ≡ Ve.Reference" !div_ref n_masked "queries";

  (* --- gate 3: zero allocation end to end through the shard loop --- *)
  (* One request/response client on a simulated network, served by the
     loop production runs (Serve.Server.run_shard): each request is one
     poll, one read and one write.  The GC's words are read at every
     write, so a window of round trips counts the loop's own allocation
     and nothing else.  Round 1 fills the cache; the next [alloc_reps]
     rounds are measured, in text and then, after the BIN upgrade, in
     binary framing. *)
  let server = H.fresh_server fx in
  let alloc_reps = 4 in
  let rounds requests = List.concat (List.init (1 + alloc_reps) (fun _ -> Array.to_list requests)) in
  let per_framing = (1 + alloc_reps) * n in
  let words = Array.make ((2 * per_framing) + 1) 0.0 and writes = ref 0 in
  let net =
    Simio.create
      ~on_write:(fun () ->
        words.(!writes) <- Gc.minor_words ();
        incr writes)
      ()
  in
  ignore
    (Simio.connect net ~lockstep:true
       (rounds (Array.map (fun b -> "EST " ^ b ^ "\n") bodies)
       @ [ "BIN\n" ]
       @ rounds
           (Array.map
              (fun body ->
                Serve.Protocol.Bin.encode_request (Serve.Protocol.Bin.Best { model = None; body }))
              bodies)));
  Simio.serve server [ net ];
  H.check "every request answered in one write" (!writes = Array.length words)
    (Printf.sprintf "%d writes for %d requests" !writes (Array.length words));
  let warm_words label first =
    let delta = words.(first + per_framing - 1) -. words.(first + n - 1) in
    H.check
      (Printf.sprintf "warm %s EST round trip allocates zero words" label)
      (delta = 0.0)
      (Printf.sprintf "%.0f words / %d round trips" delta (alloc_reps * n));
    H.row (label ^ "_warm_minor_words_delta") "words" delta
  in
  warm_words "text" 0;
  warm_words "binary" (per_framing + 1);

  (* --- the raw-body memo on warm repeats, untimed --- *)
  (* tb_hot's 256 bodies (Perfbench.Workloads) on a fresh server over
     the simulated network, every span collected: round 1 misses, round
     2 hits through the lexer and fills the memo, and each ask of the
     [memo_rounds] rounds after it repeats bytes a verified hit
     answered.  Counted over those rounds: lexer runs ([est.parse]
     spans) per ask, 1 when every hit lexes, and the share of asks the
     memo answered ([est.cache] with [cached=memo]). *)
  let hot_bodies, _ = Perfbench.Workloads.stream Perfbench.Workloads.tb_hot ~seed:cfg.seed ~n:0 in
  let memo_rounds = 3 in
  let round () = Array.to_list (Array.map (fun b -> "EST " ^ b ^ "\n") hot_bodies) in
  let hnet = Simio.create () in
  let counting = ref false and lexed = ref 0 and memo_hits = ref 0 in
  ignore (Simio.connect hnet ~lockstep:true (round () @ round ()));
  Simio.when_idle hnet (fun () ->
      counting := true;
      ignore
        (Simio.connect hnet ~lockstep:true (List.concat (List.init memo_rounds (fun _ -> round ())))));
  let count (r : Obs.Span.record) =
    if !counting then
      match r.Obs.Span.name with
      | "est.parse" -> incr lexed
      | "est.cache" when List.assoc_opt "cached" r.Obs.Span.attrs = Some "memo" -> incr memo_hits
      | _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_global_sink None)
    (fun () ->
      Obs.Span.set_global_sink (Some count);
      Simio.serve (H.fresh_server fx) [ hnet ]);
  let warm_asks = float_of_int (memo_rounds * Array.length hot_bodies) in
  let lexer_runs = float_of_int !lexed /. warm_asks
  and memo_frac = float_of_int !memo_hits /. warm_asks in
  Printf.printf "warm repeats (tb_hot bodies): %.3f lexer runs/est, %.4f memo hits\n" lexer_runs
    memo_frac;
  H.check "memo answers >= 99% of warm repeats" (memo_frac >= 0.99)
    (Printf.sprintf "%d / %.0f asks" !memo_hits warm_asks);
  H.row "warm_hit_lexer_runs_per_est" "runs/est" lexer_runs;
  H.row "warm_memo_hit_frac" "ratio" memo_frac;

  (* --- gate 4: the estimate-cache miss path, transport-free --- *)
  (* Wide TB queries on the served benchmark's tb_miss skeletons
     (Perfbench.Workloads), never repeating, through
     [Server.handle_line_shard]: every one misses the estimate cache on
     a cached plan.  The first [warm] bodies compile the skeletons'
     plans; the next [n_miss] are measured in [blocks] timed blocks. *)
  let n_miss = 4_000 and warm = 200 and blocks = 4 in
  let miss_bodies, _ =
    Perfbench.Workloads.stream Perfbench.Workloads.tb_miss ~seed:cfg.seed ~n:(warm + n_miss)
  in
  let miss_lines = Array.map (fun b -> "EST " ^ b) miss_bodies in
  let serve_range server lo hi =
    for i = lo to hi - 1 do
      ignore (Sys.opaque_identity (Serve.Server.handle_line_shard server ~shard:0 miss_lines.(i)))
    done
  in
  let mserver = H.fresh_server fx in
  serve_range mserver 0 warm;
  let misses0 = Serve.Lru.misses (Serve.Server.cache mserver) in
  let _, pmiss0, _ = Serve.Plan_cache.stats (Serve.Server.plan_cache mserver) in
  let block = n_miss / blocks in
  let block_ns =
    Array.init blocks (fun b ->
        let calib = H.calibrate () in
        H.scaled ~calib (fun () ->
            serve_range mserver (warm + (b * block)) (warm + ((b + 1) * block))))
  in
  let miss_us = H.per_op ~us:true ~ops:block block_ns in
  let misses = Serve.Lru.misses (Serve.Server.cache mserver) - misses0 in
  let _, pmiss1, _ = Serve.Plan_cache.stats (Serve.Server.plan_cache mserver) in
  (* (SLOWLOG latency captures replay a few bodies on top: those probes
     hit the entry just filled, so count misses, not hits) *)
  H.check "miss workload: every estimate misses on a cached plan"
    (misses >= n_miss && pmiss1 = pmiss0)
    (Printf.sprintf "%d misses, %d plan compiles over %d estimates" misses (pmiss1 - pmiss0)
       n_miss);
  (* Words per miss, counted apart from the timed blocks: a fresh server
     compiles the plans on the [warm] bodies, then answers [n_count]
     misses with no calibration in the window.  The timed pass above
     also counted its slow-log latency captures, whose replays allocate
     and whose number depends on timing.  A server arms latency capture
     only at its 512th response, so this pass (fewer responses) has
     none, and the check below holds it to that. *)
  let n_count = 300 in
  let cserver = H.fresh_server fx in
  serve_range cserver 0 warm;
  let w0 = Gc.minor_words () in
  serve_range cserver warm (warm + n_count);
  let miss_words = (Gc.minor_words () -. w0) /. float_of_int n_count in
  H.check "miss word count ran no slow-log capture"
    (Obs.Slowlog.total (Serve.Server.slowlog cserver) = 0)
    (Printf.sprintf "%d captures" (Obs.Slowlog.total (Serve.Server.slowlog cserver)));
  Printf.printf "miss path (handle_line_shard): %.2fus/est, %.0f minor words/est\n"
    miss_us.H.median miss_words;
  H.check "miss path allocates <= 120 minor words/est" (miss_words <= 120.0)
    (Printf.sprintf "%.0f words/est" miss_words);
  H.stat_row "miss_us" "us" miss_us;
  H.row "miss_minor_words_per_est" "words/est" miss_words;

  (* --- the miss path's stages, timed inline --- *)
  (* The server's miss, stage by stage through the same calls, on the
     same bodies against a private scratch, plan cache and estimate
     cache: parse; canon plus both keys (the estimate-cache hash and
     the plan-cache hash); the plan fetch (a verified hit); evidence
     load and run, scaled; render the entry and insert it.  Ungated:
     the clock reads between stages cost a little on their own. *)
  let scratch = Db.Squery.create (Db.Squery.Symtab.of_schema (Db.Database.schema db)) in
  let plans = Serve.Plan_cache.create () and lru = Serve.Lru.create ~capacity_bytes:(1 lsl 20) in
  let shared = Serve.Plan_cache.Shared.create () in
  let sizes = Prm.Estimate.sizes_of_db db and name = "default" and version = 1 in
  let stage_ns = Array.make 5 0 in
  let miss_stages i =
    let b = Bytes.unsafe_of_string miss_bodies.(i) in
    let t0 = H.now_ns () in
    Db.Squery.parse scratch b ~off:0 ~len:(Bytes.length b);
    let t1 = H.now_ns () in
    Db.Squery.canon scratch;
    let hash = Db.Squery.hash scratch in
    let phash = Serve.Canon.Skel.scratch_hash ~name ~version scratch in
    let t2 = H.now_ns () in
    let plan, _ =
      Serve.Plan_cache.probe plans shared ~hash:phash
        ~verify:(fun key s -> Serve.Canon.Skel.scratch_matches key ~name ~version s)
        ~key:(fun s -> Serve.Canon.Skel.scratch_key ~name ~version s)
        ~compile:(fun s -> Plan.compile fx.H.model (Db.Squery.to_query s))
        scratch
    in
    let t3 = H.now_ns () in
    let est = Plan.execute_scratch plan scratch *. Plan.scale plan ~sizes in
    let t4 = H.now_ns () in
    Serve.Lru.add lru hash
      (Serve.Server.make_entry ~name ~version ~vec:(Db.Squery.Vec.of_scratch scratch) est);
    let t5 = H.now_ns () in
    stage_ns.(0) <- stage_ns.(0) + (t1 - t0);
    stage_ns.(1) <- stage_ns.(1) + (t2 - t1);
    stage_ns.(2) <- stage_ns.(2) + (t3 - t2);
    stage_ns.(3) <- stage_ns.(3) + (t4 - t3);
    stage_ns.(4) <- stage_ns.(4) + (t5 - t4)
  in
  for i = 0 to warm - 1 do
    miss_stages i
  done;
  let stage_blocks = Array.make_matrix 5 blocks 0.0 in
  for b = 0 to blocks - 1 do
    let calib = H.calibrate () in
    Array.fill stage_ns 0 5 0;
    for i = warm + (b * block) to warm + ((b + 1) * block) - 1 do
      miss_stages i
    done;
    Array.iteri
      (fun k ns -> stage_blocks.(k).(b) <- float_of_int ns *. H.nominal_calib_ns /. calib)
      stage_ns
  done;
  List.iteri
    (fun k stage ->
      let st = H.per_op ~us:true ~ops:block stage_blocks.(k) in
      Printf.printf "  miss stage %-14s %.2fus\n" stage st.H.median;
      H.stat_row ("miss_" ^ stage ^ "_us") "us" st)
    [ "parse"; "canon_key"; "plan_fetch"; "load_run"; "render_insert" ]

(* ---- incremental structure learning ---------------------------------------------------------- *)

(* The incremental hill-climber (delta move cache + Depgraph legality
   oracle + count-once sufficient statistics) against the retained naive
   reference climber on the TB database: the two must be bit-identical
   (same accepted-move trajectory, same serialized model) and the
   incremental one no slower. *)
let fig_learn () =
  section "L1: incremental structure learning — delta move cache, count-once suffstats";
  let db = Lazy.force tb in
  let budget = 4_500 in
  let config =
    {
      (Prm.Learn.default_config ~budget_bytes:budget) with
      Prm.Learn.seed = cfg.seed;
      random_restarts = 4;
      random_walk_length = 6;
    }
  in
  (* each side keeps its last result and suffstat-scan count *)
  let base = ref None and fast = ref None in
  let run learn last () =
    Prob.Counts.reset_total_scans ();
    let r = learn ~config db in
    last := Some (r, Prob.Counts.total_scans ())
  in
  let speedup = H.ab (run Prm.Learn.learn_reference base) (run Prm.Learn.learn fast) ~pairs:5 in
  let (r_base, scans_base), (r_fast, scans_fast) = (Option.get !base, Option.get !fast) in
  let fingerprint r = Util.Sexp.to_string (Prm.Serialize.to_sexp r.Prm.Learn.model) in
  let identical =
    r_base.Prm.Learn.trajectory = r_fast.Prm.Learn.trajectory
    && fingerprint r_base = fingerprint r_fast
    && r_base.Prm.Learn.bytes = r_fast.Prm.Learn.bytes
    && r_base.Prm.Learn.loglik = r_fast.Prm.Learn.loglik
  in
  Printf.printf "PRM structure search (TB, %dB budget, %d accepted moves)\n" budget
    r_fast.Prm.Learn.iterations;
  Printf.printf "suffstat scans: reference %d, incremental %d\n" scans_base scans_fast;
  H.check "trajectory identical" identical
    (Printf.sprintf "%d moves" (List.length r_fast.Prm.Learn.trajectory));
  H.check "incremental no slower than reference" (speedup.H.median >= 1.0) (pp_stat speedup);
  H.stat_row "learn_speedup" "ratio" speedup;
  H.row "learn_moves" "count" (float_of_int r_fast.Prm.Learn.iterations);
  H.row "suffstat_scans_base" "count" (float_of_int scans_base);
  H.row "suffstat_scans_fast" "count" (float_of_int scans_fast)

(* ---- observability: span cost, EXPLAIN fidelity, METRICS, q-error ---------------------------- *)

(* The lib/obs acceptance bars, plus a normalized golden text
   (BENCH_obs_golden.txt) that bench-smoke diffs against
   test/golden/obs_golden.txt:

     - the absolute cost of a span, traced (live sink) minus disabled,
       and of a disabled span, from interleaved enter/exit loops;
       request-relative overheads are recorded but not gated, since a
       fixed span cost is a growing share of a request that keeps
       getting faster;
     - EXPLAIN stage times must sum to within 10% of the request's own
       end-to-end wall time (the "est" container span);
     - METRICS must parse as Prometheus text exposition and agree with
       the request counters;
     - TRUTH must feed the per-model rolling q-error histogram. *)
let fig_obs () =
  section "O1: observability — span cost, EXPLAIN fidelity, METRICS, q-error";
  let fx = Lazy.force tbx in
  let triples = fx.H.triples in
  let sink_records = ref 0 in
  let sink = Some (fun _ -> incr sink_records) in

  (* --- span cost: the same enter/exit and enter_at/exit_at loop with the
     sink off and with a live sink --- *)
  let spans = 100_000 in
  let span_loop () =
    for i = 1 to spans / 2 do
      Obs.Span.exit (Obs.Span.enter "bench.span");
      Obs.Span.exit_at (Obs.Span.enter_at "bench.span_at" i) i
    done
  in
  let traced f () =
    Obs.Span.set_global_sink sink;
    f ();
    Obs.Span.set_global_sink None
  in
  let t_off, t_on = H.timed_pairs ~pairs:41 span_loop (traced span_loop) in
  let traced_ns = H.per_op ~ops:spans (Array.map2 ( -. ) t_on t_off) in
  let disabled_ns = H.per_op ~ops:spans t_off in
  Printf.printf "span cost: traced +%.0fns, disabled %.1fns\n" traced_ns.H.median
    disabled_ns.H.median;
  (* Measured on a 2-vCPU VM: traced 54-87ns (the two clock reads of an
     enter/exit span are most of it, and the host's clock-read cost
     drifts), disabled 7-11ns.  At 8 spans per ~10us cold EST, the old
     request-relative bars (8% traced, 2% disabled) allowed 100ns and
     25ns. *)
  H.check "traced span cost < 100ns" (traced_ns.H.median < 100.0) (pp_stat traced_ns);
  H.check "disabled span cost < 15ns" (disabled_ns.H.median < 15.0) (pp_stat disabled_ns);
  H.stat_row "traced_ns_per_span" "ns" traced_ns;
  H.stat_row "disabled_ns_per_span" "ns" disabled_ns;

  (* --- the same costs relative to a cold-cache EST request (ungated) --- *)
  let server = H.fresh_server fx in
  let est_lines = List.map (fun tr -> "EST " ^ H.body tr) triples in
  let n_queries = List.length est_lines in
  let cold_pass () =
    Serve.Lru.clear (Serve.Server.cache server);
    List.iter (fun l -> ignore (H.ask server l)) est_lines
  in
  sink_records := 0;
  let t_noop, t_traced = H.timed_pairs ~pairs:21 cold_pass (traced cold_pass) in
  (* Spans per cold EST, counted in an untimed pass on a fresh server
     (plans compiled first), each request collecting its own spans.  The
     traced passes above also sink the spans of slow-log latency
     captures' replays, whose number depends on timing; a replay
     collects into its own buffer, so none reaches this count. *)
  let spans_per_query =
    let cserver = H.fresh_server fx in
    List.iter (fun l -> ignore (H.ask cserver l)) est_lines;
    Serve.Lru.clear (Serve.Server.cache cserver);
    let spans =
      List.fold_left
        (fun acc l -> acc + List.length (snd (Obs.Span.collect (fun () -> H.ask cserver l))))
        0 est_lines
    in
    float_of_int spans /. float_of_int n_queries
  in
  let traced_over_noop = H.ratio t_traced t_noop in
  let query_us = H.per_op ~us:true ~ops:n_queries t_noop in
  let noop_pct =
    disabled_ns.H.median *. spans_per_query /. 1e3 /. query_us.H.median *. 100.0
  in
  Printf.printf
    "cold EST %.1fus, %.1f spans/query: tracing +%.2f%%, disabled spans %.2f%% of a request\n"
    query_us.H.median spans_per_query
    ((traced_over_noop.H.median -. 1.0) *. 100.0)
    noop_pct;
  H.check "traced pass emitted spans" (!sink_records > 0) (string_of_int !sink_records);
  H.stat_row "est_cold_us" "us" query_us;
  H.stat_row "traced_over_noop_request" "ratio" traced_over_noop;
  H.row "spans_per_query" "count" spans_per_query;
  H.row ~n:disabled_ns.H.n ~spread:disabled_ns.H.spread "noop_overhead_pct" "%" noop_pct;

  (* --- EXPLAIN fidelity: stage sum vs the request's own wall time --- *)
  let server = H.fresh_server fx in
  let field resp k =
    match Serve.Protocol.stats_field resp k with
    | Some v -> v
    | None -> failwith (Printf.sprintf "missing field %s in %S" k resp)
  in
  let explain_triples = List.filteri (fun i _ -> i < 31) triples in
  let covers =
    Array.of_list
      (List.map
         (fun tr ->
           let resp = H.ask server ("EXPLAIN " ^ H.body tr) in
           float_of_string (field resp "stage_sum_us") /. float_of_string (field resp "total_us"))
         explain_triples)
  in
  let cover = Util.Arrayx.median covers in
  Printf.printf "\nEXPLAIN over %d queries: median stage cover %.1f%%\n"
    (List.length explain_triples) (cover *. 100.0);
  H.check "EXPLAIN stage sum within 10% of wall time"
    (cover >= 0.9 && cover <= 1.1)
    (Printf.sprintf "cover %.3f" cover);
  (* EXPLAIN after an EST of the query: the cache the EST filled is
     reported warm, and the estimate is EST's, bit for bit *)
  let tr0 = List.hd explain_triples in
  let est_val = Serve.Protocol.payload (H.ask server ("EST " ^ H.body tr0)) in
  let exp_resp = H.ask server ("EXPLAIN " ^ H.body tr0) in
  H.check "EXPLAIN estimate matches EST" (field exp_resp "estimate" = est_val) est_val;
  H.check "EXPLAIN reports warm cache" (field exp_resp "cache" = "hit") "";
  H.row ~n:(Array.length covers) "explain_stage_cover" "ratio" cover;

  (* --- TRUTH: feed the rolling q-error histogram with exact counts --- *)
  let truth_triples = List.filteri (fun i _ -> i mod 3 = 0) triples in
  List.iter
    (fun tr ->
      let tv = true_size fx.H.db (H.query_of tr) in
      ignore (H.ask server (Printf.sprintf "TRUTH %.17g %s" tv (H.body tr))))
    truth_triples;
  let qsum = Obs.Qerror.summarize (Serve.Server.qerror_table server "default") in
  Printf.printf "\nTRUTH over %d queries: q-error mean %.2f p50 %.2f p90 %.2f max %.2f\n"
    qsum.Obs.Qerror.n qsum.Obs.Qerror.mean qsum.Obs.Qerror.p50 qsum.Obs.Qerror.p90
    qsum.Obs.Qerror.max_q;
  H.check "TRUTH observations recorded"
    (qsum.Obs.Qerror.n = List.length truth_triples)
    (string_of_int qsum.Obs.Qerror.n);
  H.check "q-errors are >= 1" (qsum.Obs.Qerror.p50 >= 1.0)
    (Printf.sprintf "p50 %.2f" qsum.Obs.Qerror.p50);
  H.row "qerror_p50" "ratio" qsum.Obs.Qerror.p50;
  H.row "qerror_max" "ratio" qsum.Obs.Qerror.max_q;

  (* --- EST round trips through the shard loop's zero-copy front-end, so
     the selest_frontend_* counters carry nonzero values into the METRICS
     exposition below --- *)
  let net = Simio.create () in
  ignore (Simio.connect net (List.map (fun tr -> "EST " ^ H.body tr ^ "\n") explain_triples));
  Simio.serve server [ net ];

  (* --- METRICS: must parse as Prometheus and agree with the counters --- *)
  ignore (H.ask server "PING");
  ignore (H.ask server ("ESTBATCH " ^ String.concat " || " (List.map H.body explain_triples)));
  let mresp = H.ask server "METRICS" in
  let nl = String.index mresp '\n' in
  let types, samples =
    Obs.Prometheus.parse (String.sub mresp (nl + 1) (String.length mresp - nl - 1))
  in
  let sample name = Obs.Prometheus.find_sample samples ~name () in
  (* snapshot the live counter before issuing any further request *)
  let live_requests = Serve.Metrics.get (Serve.Server.metrics server) "requests" in
  H.check "METRICS parses as Prometheus"
    (types <> [] && samples <> [])
    (Printf.sprintf "%d families, %d samples" (List.length types) (List.length samples));
  H.check "selest_requests_total agrees"
    (sample "selest_requests_total" = Some (float_of_int live_requests))
    (string_of_int live_requests);
  H.check "latency histogram count present"
    (match sample "selest_request_latency_us_count" with Some c -> c > 0.0 | None -> false)
    "";
  H.check "qerror histogram count agrees"
    (Obs.Prometheus.find_sample samples ~name:"selest_qerror_count"
       ~labels:[ ("model", "default") ] ()
    = Some (float_of_int qsum.Obs.Qerror.n))
    "";
  H.check "frontend stage counters exported"
    (sample "selest_frontend_parse_ns_total" <> None
    && sample "selest_frontend_canon_ns_total" <> None
    && sample "selest_frontend_key_ns_total" <> None)
    "";

  (* --- trace log: JSONL records reach the file --- *)
  let tmp = Filename.temp_file "selest_obs" ".jsonl" in
  Obs.Trace_log.install tmp;
  ignore (H.ask server ("EST " ^ H.body tr0));
  Obs.Trace_log.close ();
  let trace_lines = List.length (In_channel.with_open_bin tmp In_channel.input_lines) in
  Sys.remove tmp;
  H.check "trace log wrote one JSONL record per span" (trace_lines >= 4)
    (Printf.sprintf "%d lines" trace_lines);

  (* --- golden text: shape only, numbers stripped --- *)
  let golden = Buffer.create 512 in
  Buffer.add_string golden "EXPLAIN fields:\n";
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Buffer.add_string golden ("  " ^ String.sub tok 0 i ^ "\n")
      | None -> ())
    (List.tl (String.split_on_char ' ' exp_resp));
  Buffer.add_string golden "METRICS types:\n";
  List.iter (fun (n, ty) -> Buffer.add_string golden ("  " ^ n ^ " " ^ ty ^ "\n")) types;
  write_golden "BENCH_obs_golden.txt" golden

(* ---- telemetry core: overhead, merge exactness, contention, HEALTH/SLOWLOG ------------------- *)

(* Four parts:

   (a) per-request bookkeeping: the telemetry sequence the dispatcher
       runs per request (two counter bumps, the aggregate + per-verb
       histogram records, the response counter and the threshold
       comparison), 100 of them per cold EST, as a share of the request;
       gated < 5%.

   (b) merge exactness: K writer domains hammer one Telemetry instance;
       after join the merged snapshot must be bit-exact against a
       sequential oracle fed the same samples.

   (c) contention: 4 writer domains recording through the handles the
       request path uses, against one mutex-guarded histogram; the
       handles must keep scaling where the mutex serializes (>= 2x on
       >= 4 cores, >= 1.2x on 2-3, skipped on one).  The string-keyed
       API is recorded beside it, ungated.

   (d) HEALTH / SLOWLOG end to end through the dispatcher: a q-error
       capture with a replayed span tree must surface in SLOWLOG and in
       HEALTH's burn report, and the response shape (field and span
       names, numbers stripped) is written to
       BENCH_telemetry_golden.txt. *)
let fig_telemetry () =
  section "T1: telemetry core — overhead, merge exactness, contention, HEALTH/SLOWLOG";
  let fx = Lazy.force tbx in

  (* --- (a) bookkeeping as a share of a cold EST --- *)
  let server = H.fresh_server fx in
  let est_lines = List.map (fun tr -> "EST " ^ H.body tr) fx.H.triples in
  let n_queries = List.length est_lines in
  let cold_pass () =
    Serve.Lru.clear (Serve.Server.cache server);
    List.iter (fun l -> ignore (H.ask server l)) est_lines
  in
  let m = Serve.Metrics.create () in
  let resp_ctr = Atomic.make 0 and thr = Atomic.make max_int in
  let sink = ref 0 in
  let per_query = 100 in
  let bookkeeping () =
    for i = 1 to per_query * n_queries do
      Serve.Metrics.incr m "requests";
      Serve.Metrics.incr m "est_requests";
      Serve.Metrics.observe_verb_ns m ~verb:"est" (i land 0xFFFF);
      let seen = Atomic.fetch_and_add resp_ctr 1 in
      if seen land 511 = 511 then incr sink;
      if i land 0xFFFF >= Atomic.get thr then incr sink
    done
  in
  let t_req, t_book = H.timed_pairs ~pairs:15 cold_pass bookkeeping in
  let share =
    H.stat (Array.map2 (fun r b -> b /. float_of_int per_query /. r *. 100.0) t_req t_book)
  in
  let ns_per_request = H.per_op ~ops:(per_query * n_queries) t_book in
  Printf.printf "telemetry bookkeeping: %.0fns/request = %.2f%% of a cold EST\n"
    ns_per_request.H.median share.H.median;
  H.check "telemetry overhead < 5% of a request" (share.H.median < 5.0) (pp_stat share);
  H.stat_row "telemetry_ns_per_request" "ns" ns_per_request;
  H.stat_row "telemetry_overhead_pct" "%" share;

  (* --- (b) merged shard totals are bit-exact --- *)
  let writers = 4 and per_writer = 200_000 in
  let sample i = i * 9_973 mod 40_000_000 in
  let run_writers f () = List.iter Domain.join (List.init writers (fun _ -> Domain.spawn f)) in
  let tel = Obs.Telemetry.create () in
  run_writers
    (fun () ->
      for i = 1 to per_writer do
        Obs.Telemetry.incr tel "ops";
        Obs.Telemetry.record_ns tel "lat" (sample i)
      done)
    ();
  let oracle = Obs.Histogram.create () in
  for _ = 1 to writers do
    for i = 1 to per_writer do
      Obs.Histogram.record oracle (sample i)
    done
  done;
  let merged = Obs.Telemetry.hist_merged tel "lat" in
  H.check "merged totals bit-exact vs sequential oracle"
    (Obs.Telemetry.get tel "ops" = writers * per_writer
    && Obs.Histogram.count merged = Obs.Histogram.count oracle
    && Obs.Histogram.sum_ns merged = Obs.Histogram.sum_ns oracle
    && Obs.Histogram.nonzero merged = Obs.Histogram.nonzero oracle)
    (Printf.sprintf "%d domains x %d records, %d shards" writers per_writer
       (Obs.Telemetry.n_shards tel));

  (* --- (c) contention: handles and string keys vs one mutex.  Runs long
     enough that domain spawn and join are a small share of a side. --- *)
  let contend_ops = 500_000 in
  let mu = Mutex.create () and mh = Obs.Histogram.create () and mc = ref 0 in
  let mutex_side =
    run_writers (fun () ->
        for i = 1 to contend_ops do
          Mutex.lock mu;
          incr mc;
          Obs.Histogram.record mh (sample i);
          Mutex.unlock mu
        done)
  in
  let tel2 = Obs.Telemetry.create () in
  let ch = Obs.Telemetry.counter_handle tel2 "ops" and hh = Obs.Telemetry.hist_handle tel2 "lat" in
  let handle_side =
    run_writers (fun () ->
        for i = 1 to contend_ops do
          Obs.Telemetry.hincr tel2 ch;
          Obs.Telemetry.hrecord tel2 hh (sample i)
        done)
  in
  let string_side =
    run_writers (fun () ->
        for i = 1 to contend_ops do
          Obs.Telemetry.incr tel2 "ops";
          Obs.Telemetry.record_ns tel2 "lat" (sample i)
        done)
  in
  let host_cores = Domain.recommended_domain_count () in
  let handles = H.ab mutex_side handle_side ~pairs:15 in
  let strings = H.ab mutex_side string_side ~pairs:5 in
  Printf.printf
    "contention (%d writers x %d ops, %d cores): handles %.2fx mutex, string keys %.2fx\n"
    writers contend_ops host_cores handles.H.median strings.H.median;
  H.stat_row "contention_handle_over_mutex" "ratio" handles;
  H.stat_row "contention_string_over_mutex" "ratio" strings;
  (* Domain fan-out cannot beat a mutex on a single-core host, where both
     serialize; the full 2x bar needs cores for all four writers. *)
  if host_cores <= 1 then Printf.printf "contention gate: skipped (single-core host)\n"
  else begin
    let floor = if host_cores >= 4 then 2.0 else 1.2 in
    H.check
      (Printf.sprintf "handles >= %.1fx mutex throughput" floor)
      (handles.H.median >= floor) (pp_stat handles)
  end;

  (* --- (d) HEALTH / SLOWLOG end to end --- *)
  let server = H.fresh_server ~qerror_gate:50.0 fx in
  let d_triples = List.filteri (fun i _ -> i < 30) fx.H.triples in
  List.iter (fun tr -> ignore (H.ask server ("EST " ^ H.body tr))) d_triples;
  (* absurd ground truth: crosses the q-error gate, forcing a capture *)
  ignore (H.ask server (Printf.sprintf "TRUTH 1e12 %s" (H.body (List.hd d_triples))));
  let payload_lines resp = List.tl (String.split_on_char '\n' (H.ask server resp)) in
  let hlines = payload_lines "HEALTH" and slines = payload_lines "SLOWLOG 5" in
  let contains line sub =
    let n = String.length sub in
    let rec probe i = i + n <= String.length line && (String.sub line i n = sub || probe (i + 1)) in
    probe 0
  in
  let any lines subs = List.exists (fun l -> List.for_all (contains l) subs) lines in
  H.check "HEALTH reports per-verb p999" (any hlines [ "verb=est"; "p999_us=" ]) "";
  H.check "HEALTH reports SLO burn" (any hlines [ "slo=latency"; "burn=" ]) "";
  H.check "HEALTH counts the capture" (any hlines [ "slowlog captured=1" ]) "";
  H.check "SLOWLOG lists the q-error capture" (any slines [ "reason=qerror" ]) "";
  H.check "SLOWLOG carries a replayed span tree" (any slines [ "span exec.run" ]) "";
  H.check "SLOWLOG replay ran on the bytecode engine" (not (any slines [ "span ve." ])) "";
  let stats = H.ask server "STATS" in
  H.check "STATS exports program-memo counters"
    (Serve.Protocol.stats_field stats "plan.program_hits" <> None
    && Serve.Protocol.stats_field stats "plan.program_misses" <> None)
    "";
  let mresp = H.ask server "METRICS" in
  let _, samples =
    let nl = String.index mresp '\n' in
    Obs.Prometheus.parse (String.sub mresp (nl + 1) (String.length mresp - nl - 1))
  in
  let sample name = Obs.Prometheus.find_sample samples ~name () in
  H.check "Prometheus exports selest_program_memo_hits"
    (sample "selest_program_memo_hits" <> None) "";
  H.check "Prometheus exports per-verb latency"
    (Obs.Prometheus.find_sample samples ~name:"selest_verb_latency_us_count"
       ~labels:[ ("verb", "est") ] ()
    <> None)
    "";
  H.check "Prometheus exports SLO burn gauge" (sample "selest_slo_latency_burn" <> None) "";

  (* --- golden text: response shape, numbers stripped --- *)
  let keys_of line =
    String.concat " "
      (List.filter_map
         (fun tok ->
           match String.index_opt tok '=' with
           | Some i when i > 0 -> Some (String.sub tok 0 i)
           | _ -> None)
         (String.split_on_char ' ' (String.trim line)))
  in
  let golden = Buffer.create 512 in
  Buffer.add_string golden "HEALTH fields:\n";
  List.iter (fun l -> Buffer.add_string golden ("  " ^ keys_of l ^ "\n")) hlines;
  Buffer.add_string golden "SLOWLOG shape:\n";
  List.iter
    (fun l ->
      let t = String.trim l in
      if String.length t > 5 && String.sub t 0 5 = "span " then
        (* keep the span name, drop timings and attrs *)
        Buffer.add_string golden ("  span " ^ List.nth (String.split_on_char ' ' t) 1 ^ "\n")
      else Buffer.add_string golden ("  " ^ keys_of l ^ "\n"))
    slines;
  write_golden "BENCH_telemetry_golden.txt" golden

(* ---- plan regret: estimates driving a cost-based optimizer ----------------------------------- *)

(* The paper's Sec. 1 motivation made measurable: for each estimator,
   optimize every suite query's join order under its estimates
   (Opt.Optimizer, C_out cost, AVI fallback on Unsupported), execute the
   chosen tree and the true-cardinality-optimal tree with the
   materializing hash-join executor (Opt.Hashjoin), and report regret —
   chosen/best ratios of wall time and of materialized intermediate
   rows.  Gates: the exact-cardinality oracle must have regret exactly
   1.0 (the pipeline is self-consistent), and the PRM must regret no
   more rows than AVI on the TB keyjoin suite (estimation quality must
   pay off end to end).  Also round-trips one EXPLAINPLAN through the
   transport-free server to pin the verb's rendering. *)
let fig_opt () =
  section "O1: plan regret — cardinality estimates driving a cost-based optimizer";
  let budget = 4_500 in
  let max_queries = min cfg.max_queries 100 in
  let exact_for db =
    { Est.Estimator.name = "exact"; bytes = 0; prepare = ignore;
      estimate = (fun q -> true_size db q) }
  in
  let run_suite ~label ~db ~skeleton ~attrs =
    let suite = Suite.make ~name:label ~skeleton ~attrs in
    let ests =
      [ exact_for db;
        Est.Prm_est.build ~budget_bytes:budget ~seed:cfg.seed db;
        Est.Prm_est.build_bn_uj ~budget_bytes:budget ~seed:cfg.seed db;
        Est.Avi.build db ]
    in
    let outcomes = Regret.run ~max_queries ~seed:cfg.seed db suite ests in
    Printf.printf "\n%s suite (%d queries):\n" label
      (match outcomes with o :: _ -> o.Regret.n_queries | [] -> 0);
    Printf.printf
      "estimator | plan matches | runtime regret mean/max | rows regret mean/max | fallbacks\n";
    List.iter
      (fun o ->
        Printf.printf "%-9s | %6d/%-5d | %11.3f/%-11.3f | %8.3f/%-11.3f | %d\n"
          o.Regret.estimator o.Regret.n_plan_matches o.Regret.n_queries
          o.Regret.runtime_regret_mean o.Regret.runtime_regret_max
          o.Regret.rows_regret_mean o.Regret.rows_regret_max o.Regret.n_fallbacks;
        (* rows regret and plan matches are deterministic; runtime regret
           is a wall-clock ratio and stays in the printed table *)
        let metric what = Printf.sprintf "%s %s %s" label o.Regret.estimator what in
        H.row (metric "plan_matches") "count" (float_of_int o.Regret.n_plan_matches);
        H.row (metric "rows_regret_mean") "ratio" o.Regret.rows_regret_mean;
        H.row (metric "rows_regret_max") "ratio" o.Regret.rows_regret_max)
      outcomes;
    outcomes
  in
  (* TB keyjoin suite: the attribute family where AVI's independence
     assumption demonstrably flips plan rankings (examples/optimizer.ml). *)
  let tb_outcomes =
    run_suite ~label:"tb" ~db:(Lazy.force tb) ~skeleton:tb_skeleton3
      ~attrs:[ ("c", "Contype"); ("p", "Age"); ("s", "Unique") ]
  in
  ignore
    (run_suite ~label:"fin" ~db:(Lazy.force fin) ~skeleton:fin_skeleton3
       ~attrs:[ ("t", "Amount"); ("a", "Frequency"); ("d", "Size") ]);
  let find name = List.find (fun o -> o.Regret.estimator = name) tb_outcomes in
  let exact = find "exact" and prm = find "PRM" and avi = find "AVI" in
  H.check "exact oracle: runtime regret = 1.0"
    (exact.Regret.runtime_regret_mean = 1.0 && exact.Regret.runtime_regret_max = 1.0)
    (Printf.sprintf "mean %.4f max %.4f" exact.Regret.runtime_regret_mean
       exact.Regret.runtime_regret_max);
  H.check "exact oracle: rows regret = 1.0"
    (exact.Regret.rows_regret_mean = 1.0 && exact.Regret.rows_regret_max = 1.0)
    (Printf.sprintf "mean %.4f max %.4f" exact.Regret.rows_regret_mean
       exact.Regret.rows_regret_max);
  H.check "exact oracle: picks the optimal tree every time"
    (exact.Regret.n_plan_matches = exact.Regret.n_queries)
    (Printf.sprintf "%d/%d" exact.Regret.n_plan_matches exact.Regret.n_queries);
  H.check "PRM rows regret <= AVI rows regret (tb keyjoin suite)"
    (prm.Regret.rows_regret_mean <= avi.Regret.rows_regret_mean)
    (Printf.sprintf "%.4f vs %.4f" prm.Regret.rows_regret_mean avi.Regret.rows_regret_mean);
  (* EXPLAINPLAN through the transport-free server: the rendering the
     CLI and socket clients see, pinned here so the verb stays wired. *)
  let resp, _ =
    Serve.Server.handle_line
      (H.fresh_server (Lazy.force tbx))
      "EXPLAINPLAN c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=1, p.Age={4,5}, s.Unique=0"
  in
  let has sub =
    let n = String.length resp and m = String.length sub in
    let rec go i = i + m <= n && (String.sub resp i m = sub || go (i + 1)) in
    go 0
  in
  H.check "EXPLAINPLAN renders est vs. actual per operator"
    (Serve.Protocol.is_ok resp && has "est=" && has "actual=" && has "hash_join")
    (List.hd (String.split_on_char '\n' resp))

(* ---- bechamel micro-benchmarks ------------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (inference and counting kernels)";
  let open Bechamel in
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
  (* the census BN estimate on its compiled plan: the binding's
     evidence writes and the bytecode run, as a served miss on a cached
     plan does *)
  let q = census_query [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9) ] in
  let bn_plan kind =
    let plan = Plan.compile (census_bn ~kind 4_096).Prm.Learn.model q in
    (plan, Plan.bind plan q)
  in
  let tree_plan, tree_binding = bn_plan Bn.Cpd.Trees in
  let table_plan, table_binding = bn_plan Bn.Cpd.Tables in
  let prm_model = lazy (learn_prm ~budget_bytes:4_096 ~seed:cfg.seed (Lazy.force tb)) in
  let tb_db = Lazy.force tb in
  let sizes = Prm.Estimate.sizes_of_db tb_db in
  let join_q =
    Db.Query.with_selects tb_skeleton3
      [ Db.Query.eq "p" "USBorn" 1; Db.Query.eq "c" "Contype" 0 ]
  in
  let tests =
    [
      Test.make ~name:"bn-plan-tree-cpds (select query)" (Staged.stage (fun () ->
          ignore (Plan.execute tree_plan tree_binding)));
      Test.make ~name:"bn-plan-table-cpds (select query)" (Staged.stage (fun () ->
          ignore (Plan.execute table_plan table_binding)));
      Test.make ~name:"prm-estimate (3-table join query)" (Staged.stage (fun () ->
          ignore (Prm.Estimate.estimate (Lazy.force prm_model) ~sizes join_q)));
      Test.make ~name:"contingency-count (40K rows x 2 attrs)" (Staged.stage (fun () ->
          ignore (Bn.Data.contingency data [| 0; 10 |])));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg_b =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg_b [ instance ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance raw
    in
    results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-45s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        results)
    tests;
  flush stdout

(* ---- main ---------------------------------------------------------------------------------- *)

let figures =
  [
    ("sanity", fig_sanity); ("4a", fig4a); ("4b", fig4b); ("4c", fig4c); ("5a", fig5a);
    ("5b", fig5b); ("5c", fig5c); ("6a", fig6a); ("6b", fig6b); ("6c", fig6c); ("7a", fig7a);
    ("7b", fig7b); ("7c", fig7c); ("range", fig_range); ("structure", fig_structure);
    ("ablation-score", ablation_score); ("ablation-join", ablation_join);
    ("inference", fig_inference); ("plan", fig_plan); ("learn", fig_learn); ("obs", fig_obs);
    ("opt", fig_opt); ("exec", fig_exec); ("frontend", fig_frontend);
    ("telemetry", fig_telemetry); ("bechamel", bechamel_suite);
  ]

let () =
  Printf.printf "selest bench | %s scale | seed %d | census rows %d\n"
    (if cfg.full then "paper (--full)" else "quick")
    cfg.seed census_rows;
  let (), total =
    H.time (fun () -> List.iter (fun (name, f) -> if wants name then H.figure name f) figures)
  in
  Printf.printf "\ntotal bench time: %.1fs\n" total;
  H.finish ()
