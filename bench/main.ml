(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-scale datasets
     dune exec bench/main.exe -- --fig 4a --fig 6b
     dune exec bench/main.exe -- --list

   Quick scale uses a 40K-row census table (the paper's is 150K); TB and
   FIN run at paper scale in both modes.  Shapes, not absolute numbers,
   are the reproduction target; see EXPERIMENTS.md. *)

open Selest
open Selest_workload

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
    "range"; "structure"; "ablation-score"; "ablation-join"; "serve-cache"; "inference";
    "plan"; "exec"; "frontend"; "learn"; "obs"; "opt"; "telemetry"; "serve"; "bechamel";
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

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* ---- datasets --------------------------------------------------------------- *)

let census_rows = if cfg.full then Synth.Census.default_rows else 40_000

let census = lazy (Synth.Census.generate ~rows:census_rows ~seed:cfg.seed ())
let tb = lazy (Synth.Tb.generate ~seed:cfg.seed ())
let fin = lazy (Synth.Financial.generate ~seed:cfg.seed ())

(* ---- generic sweep machinery -------------------------------------------------- *)

let kb b = Printf.sprintf "%.1fK" (float_of_int b /. 1024.0)

(* One row per budget, one (err, size) column pair per method. *)
let sweep ~db ~suite ~budgets ~methods =
  let rows =
    List.map
      (fun budget ->
        let ests = List.map (fun build -> build budget) methods in
        let outcomes = Runner.run_all db suite ests ~max_queries:cfg.max_queries ~seed:cfg.seed () in
        (kb budget, outcomes))
      budgets
  in
  Report.print (Report.sweep_table ~xlabel:"budget" ~rows)

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
  sweep ~db ~suite ~budgets
    ~methods:
      [
        avi_for db pairs;
        mhist_for db ~table:"person" ~attrs;
        wavelet_for db ~table:"person" ~attrs;
        sample_for db ~attrs:pairs;
        bn_for db ~table:"person" ~attrs ~kind:Bn.Cpd.Trees ();
      ]

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
  sweep ~db ~suite ~budgets:[ 300; 500; 700; 900; 1100; 1300 ]
    ~methods:
      [
        avi_for db pairs;
        mhist_for db ~table:"person" ~attrs;
        wavelet_for db ~table:"person" ~attrs;
        (fun budget -> Est.Svd.build ~table:"person" ~x:"Age" ~y:"Income" ~budget_bytes:budget db);
        sample_for db ~attrs:pairs;
        bn_for db ~table:"person" ~attrs ~kind:Bn.Cpd.Trees ();
      ]

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

let tb_skeleton3 =
  Db.Query.create
    ~tvars:[ ("c", "contact"); ("p", "patient"); ("s", "strain") ]
    ~joins:
      [
        Db.Query.join ~child:"c" ~fk:"patient" ~parent:"p";
        Db.Query.join ~child:"p" ~fk:"strain" ~parent:"s";
      ]
    ()

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
  Report.print (Report.sweep_table ~xlabel:"suite" ~rows)

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
  let data = Bn.Data.of_table (Db.Database.table db "person") in
  let config = { (Bn.Learn.default_config ~budget_bytes:budget) with Bn.Learn.kind } in
  Bn.Learn.learn ~config data

let fig7a () =
  section "F7a (Fig. 7a): construction time vs model storage (census)";
  let budgets = [ 800; 1500; 2500; 3500; 4500; 6500; 8500 ] in
  let header = [| "budget"; "trees (s)"; "trees bytes"; "tables (s)"; "tables bytes" |] in
  let rows =
    List.map
      (fun b ->
        let rt, tt = time (fun () -> learn_census ~kind:Bn.Cpd.Trees ~budget:b ~rows:census_rows) in
        let rb, tb = time (fun () -> learn_census ~kind:Bn.Cpd.Tables ~budget:b ~rows:census_rows) in
        [| kb b; Printf.sprintf "%.2f" tt; string_of_int rt.Bn.Learn.bytes;
           Printf.sprintf "%.2f" tb; string_of_int rb.Bn.Learn.bytes |])
      budgets
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

let fig7b () =
  section "F7b (Fig. 7b): construction time vs data size (fixed 3.5KB budget)";
  let sizes =
    if cfg.full then [ 16_000; 32_000; 48_000; 64_000; 96_000; 128_000 ]
    else [ 8_000; 16_000; 24_000; 32_000; 40_000 ]
  in
  let header = [| "rows"; "trees (s)"; "tables (s)" |] in
  let rows =
    List.map
      (fun n ->
        let _, tt = time (fun () -> learn_census ~kind:Bn.Cpd.Trees ~budget:3_584 ~rows:n) in
        let _, tb = time (fun () -> learn_census ~kind:Bn.Cpd.Tables ~budget:3_584 ~rows:n) in
        [| string_of_int n; Printf.sprintf "%.2f" tt; Printf.sprintf "%.2f" tb |])
      sizes
  in
  Util.Tablefmt.print ~header (Array.of_list rows)

(* Estimation latency: per-query inference without suite caching. *)
let estimation_latency bn q_selects =
  let t0 = Unix.gettimeofday () in
  let n = 50 in
  for _ = 1 to n do
    ignore (Bn.Bn.prob_of bn q_selects)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6

let fig7c () =
  section "F7c (Fig. 7c): estimation time vs model size (microseconds per query)";
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
  let budgets = [ 1_000; 3_000; 5_000; 7_000; 9_000 ] in
  let q = [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9); (0, Db.Query.Eq 5) ] in
  let header = [| "budget"; "trees us/query"; "trees bytes"; "tables us/query"; "tables bytes" |] in
  let rows =
    List.map
      (fun b ->
        let tr =
          Bn.Learn.learn
            ~config:{ (Bn.Learn.default_config ~budget_bytes:b) with Bn.Learn.kind = Bn.Cpd.Trees }
            data
        in
        let tbl =
          Bn.Learn.learn
            ~config:{ (Bn.Learn.default_config ~budget_bytes:b) with Bn.Learn.kind = Bn.Cpd.Tables }
            data
        in
        [| kb b;
           Printf.sprintf "%.1f" (estimation_latency tr.Bn.Learn.bn q);
           string_of_int tr.Bn.Learn.bytes;
           Printf.sprintf "%.1f" (estimation_latency tbl.Bn.Learn.bn q);
           string_of_int tbl.Bn.Learn.bytes |])
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
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
  let name i = Synth.Census.attr_names.(i) in
  let true_adj =
    List.map (fun (a, b) -> if a < b then (a, b) else (b, a)) census_true_edges
    |> List.sort_uniq compare
  in
  let header = [| "budget"; "learned edges"; "true pos"; "precision"; "recall" |] in
  let rows =
    List.map
      (fun budget ->
        let r = Bn.Learn.learn ~config:(Bn.Learn.default_config ~budget_bytes:budget) data in
        let learned =
          List.map
            (fun (u, v) ->
              let a = name u and b = name v in
              if a < b then (a, b) else (b, a))
            (Bn.Dag.edges r.Bn.Learn.bn.Bn.Bn.dag)
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
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
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
          let config =
            { (Bn.Learn.default_config ~budget_bytes:budget) with Bn.Learn.rule }
          in
          let r = Bn.Learn.learn ~config data in
          let prob = Bn.Bn.cached_prob r.Bn.Learn.bn in
          let est = {
            Est.Estimator.name = rname;
            bytes = r.Bn.Learn.bytes;
            prepare = ignore;
            estimate =
              (fun q ->
                let ev =
                  List.map
                    (fun s ->
                      let rec idx i =
                        if Synth.Census.attr_names.(i) = s.Db.Query.sel_attr then i
                        else idx (i + 1)
                      in
                      (idx 0, s.Db.Query.pred))
                    q.Db.Query.selects
                in
                float_of_int census_rows *. prob ev);
          } in
          let o = Runner.run db suite est ~max_queries:4_000 ~seed:cfg.seed () in
          rows :=
            [| kb budget; rname;
               Printf.sprintf "%.3f" (r.Bn.Learn.loglik /. float_of_int census_rows);
               string_of_int r.Bn.Learn.bytes;
               Printf.sprintf "%.1f" o.Runner.avg_error |]
            :: !rows)
        [ ("naive", Bn.Learn.Naive); ("ssn", Bn.Learn.Ssn); ("mdl", Bn.Learn.Mdl) ])
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

(* ---- serving: cached vs uncached estimates ------------------------------------------------ *)

(* Drives the estimation server's full request path (parse, canonicalize,
   cache, infer) through Server.handle_line, without sockets, so the
   numbers isolate the service overhead from transport. *)
let fig_serve_cache () =
  section "SV1: estimation service — cached vs uncached EST latency (TB 3-table joins)";
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let lines =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k ->
                      Printf.sprintf
                        "EST c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
                         c.Contype=%d, p.Age=%d, s.DrugResist=%d"
                        i j k)))))
  in
  let run_pass () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        let resp, _ = Serve.Server.handle_line server l in
        if not (Serve.Protocol.is_ok resp) then failwith resp)
      lines;
    (Unix.gettimeofday () -. t0) /. float_of_int (List.length lines) *. 1e6
  in
  let cold = run_pass () in
  let warm_reps = 5 in
  let warm =
    List.fold_left ( +. ) 0.0 (List.init warm_reps (fun _ -> run_pass ()))
    /. float_of_int warm_reps
  in
  Printf.printf "%d distinct EST queries, PRM model %dB\n" (List.length lines)
    (Prm.Model.size_bytes model);
  Printf.printf "uncached (cold cache): %8.1f us/query\n" cold;
  Printf.printf "cached   (warm cache): %8.1f us/query  (%.0fx speedup)\n" warm (cold /. warm);
  let stats, _ = Serve.Server.handle_line server "STATS" in
  let field k = Option.value ~default:"?" (Serve.Protocol.stats_field stats k) in
  Printf.printf "server stats: hits=%s misses=%s p50=%sus p99=%sus\n" (field "cache_hits")
    (field "cache_misses") (field "lat_p50_us") (field "lat_p99_us")

(* Artifacts (BENCH_*.json, the obs golden) always land at the repo root —
   the nearest ancestor directory holding dune-project — no matter what
   the working directory is, so CI finds and uploads them reliably. *)
let repo_root =
  lazy
    (let rec up dir =
       if Sys.file_exists (Filename.concat dir "dune-project") then dir
       else
         let parent = Filename.dirname dir in
         if parent = dir then Sys.getcwd () else up parent
     in
     up (Sys.getcwd ()))

let at_root file = Filename.concat (Lazy.force repo_root) file

(* Emit a flat string-to-value JSON object; numeric and boolean strings
   are written unquoted so downstream tooling can compare them. *)
let write_json file fields =
  let oc = open_out (at_root file) in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      let quoted = match float_of_string_opt v with Some _ -> v | None -> Printf.sprintf "%S" v in
      let quoted = if v = "true" || v = "false" then v else quoted in
      Printf.fprintf oc "  %S: %s%s\n" k quoted (if i = List.length fields - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ---- inference core: optimized engine vs reference (BENCH_inference.json) ----------------- *)

(* Measures the three layers of the fast inference core against their
   pre-optimization baselines and emits the numbers as machine-readable
   JSON, so CI and regression tooling can diff them:

     - single-query VE (stride kernels + fused sum_out_product) vs the
       naive Reference engine;
     - ESTBATCH vs sequential EST on the same cold-cache workload (the
       batch runs its bodies through the same EST core in order);
     - parallel vs sequential candidate-move scoring in PRM search;
     - served EST latency percentiles, split into cache hits and misses. *)

let fig_inference () =
  section "I1: fast inference core — stride kernels, ESTBATCH, parallel learning";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in

  (* --- layer 1+2: single-query VE, optimized vs Reference ------------------ *)
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
  let learn_tables budget =
    (Bn.Learn.learn
       ~config:
         { (Bn.Learn.default_config ~budget_bytes:budget) with Bn.Learn.kind = Bn.Cpd.Tables }
       data).Bn.Learn.bn
  in
  let time_ns reps f =
    ignore (f ());
    (* warm-up: fills the domain-local scratch pool *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9
  in
  (* Checked single-query measurement: optimized engine vs the naive
     Reference engine, bit-identity asserted first.  prob_of_evidence
     plans from scratch per call; schedule reuse is the plan IR's job and
     is measured by the "plan" figure. *)
  let ve_pair ~label ~reps ~ref_reps fs ev =
    let fast = Bn.Ve.prob_of_evidence fs ev in
    let naive = Bn.Ve.Reference.prob_of_evidence fs ev in
    if Int64.bits_of_float fast <> Int64.bits_of_float naive then
      failwith "inference bench: optimized VE diverged from Reference";
    let ve_ns = time_ns reps (fun () -> Bn.Ve.prob_of_evidence fs ev) in
    let ve_naive_ns = time_ns ref_reps (fun () -> Bn.Ve.Reference.prob_of_evidence fs ev) in
    Printf.printf "%-48s %10.0f ns   ref %10.0f ns   %.1fx\n" label ve_ns ve_naive_ns
      (ve_naive_ns /. ve_ns);
    (ve_ns, ve_naive_ns)
  in
  (* headline: a select+range query (the paper's Sec. 2.3 workload) on a
     64KB table-CPD census model — big CPTs keep the kernels busy *)
  let fs_large = Bn.Bn.factors (learn_tables 65_536) in
  let ev_range = [ (10, Db.Query.Eq 7); (0, Db.Query.Range (2, 9)) ] in
  let ve_ns, ve_naive_ns =
    ve_pair ~label:"VE eq+range query (64KB census BN)"
      ~reps:500 ~ref_reps:20 fs_large ev_range
  in
  (* secondary: an all-equality query on a paper-scale 4KB model *)
  let fs_small = Bn.Bn.factors (learn_tables 4_096) in
  let ev_eq = [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9); (0, Db.Query.Eq 5) ] in
  let ve_eq_ns, ve_eq_naive_ns =
    ve_pair ~label:"VE 3xEq query (4KB census BN)"
      ~reps:2_000 ~ref_reps:50 fs_small ev_eq
  in
  jfield "ve_single_ns" (Printf.sprintf "%.0f" ve_ns);
  jfield "ve_single_naive_ns" (Printf.sprintf "%.0f" ve_naive_ns);
  jfield "ve_speedup" (Printf.sprintf "%.2f" (ve_naive_ns /. ve_ns));
  jfield "ve_eq_small_ns" (Printf.sprintf "%.0f" ve_eq_ns);
  jfield "ve_eq_small_naive_ns" (Printf.sprintf "%.0f" ve_eq_naive_ns);
  jfield "ve_eq_small_speedup" (Printf.sprintf "%.2f" (ve_eq_naive_ns /. ve_eq_ns));

  (* --- layer 3a: ESTBATCH throughput vs sequential EST, cold caches --------
     The ratio prices the batch framing, not parallelism. *)
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let bodies =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k ->
                      Printf.sprintf
                        "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
                         c.Contype=%d, p.Age=%d, s.DrugResist=%d"
                        i j k)))))
  in
  let n_queries = List.length bodies in
  let learn_workers = 4 in
  let throughput server lines =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        let resp, _ = Serve.Server.handle_line server l in
        if not (Serve.Protocol.is_ok resp) then failwith resp)
      lines;
    float_of_int n_queries /. (Unix.gettimeofday () -. t0)
  in
  let seq_server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry seq_server) ~name:"default" model);
  let seq_qps = throughput seq_server (List.map (fun b -> "EST " ^ b) bodies) in
  let batch_server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry batch_server) ~name:"default" model);
  let rec chunks n = function
    | [] -> []
    | xs ->
      let rec take k = function
        | x :: rest when k > 0 ->
          let hd, tl = take (k - 1) rest in
          (x :: hd, tl)
        | rest -> ([], rest)
      in
      let hd, tl = take n xs in
      hd :: chunks n tl
  in
  let batch_lines =
    List.map (fun c -> "ESTBATCH " ^ String.concat " || " c) (chunks 32 bodies)
  in
  let batch_qps = throughput batch_server batch_lines in
  Printf.printf "\n%d distinct TB join queries, cold caches, PRM %dB\n" n_queries
    (Prm.Model.size_bytes model);
  Printf.printf "sequential EST:             %8.0f queries/s\n" seq_qps;
  Printf.printf "ESTBATCH (x32):             %8.0f queries/s  (%.2fx)\n" batch_qps
    (batch_qps /. seq_qps);
  check "estbatch throughput vs sequential >= 0.6" (batch_qps /. seq_qps >= 0.6)
    (Printf.sprintf "%.2fx" (batch_qps /. seq_qps));
  jfield "est_queries" (string_of_int n_queries);
  jfield "learn_workers" (string_of_int learn_workers);
  jfield "host_cores" (string_of_int (Domain.recommended_domain_count ()));
  jfield "est_seq_qps" (Printf.sprintf "%.1f" seq_qps);
  jfield "estbatch_qps" (Printf.sprintf "%.1f" batch_qps);
  jfield "estbatch_throughput_ratio" (Printf.sprintf "%.2f" (batch_qps /. seq_qps));

  (* --- layer 3b: parallel candidate-move scoring in PRM search ------------- *)
  let learn_time workers =
    time (fun () ->
        Prm.Learn.learn
          ~config:
            { (Prm.Learn.default_config ~budget_bytes:2_048) with
              Prm.Learn.seed = cfg.seed; workers }
          db)
  in
  let r_seq, t_seq = learn_time 1 in
  let r_par, t_par = learn_time learn_workers in
  if r_seq.Prm.Learn.loglik <> r_par.Prm.Learn.loglik then
    failwith "inference bench: parallel search diverged from sequential";
  Printf.printf "\nPRM structure search (TB, 2KB budget):\n";
  Printf.printf "sequential scoring: %6.2f s\n" t_seq;
  Printf.printf "parallel scoring:   %6.2f s  (%d workers, %.2fx, same trajectory)\n" t_par
    learn_workers (t_seq /. t_par);
  jfield "learn_seq_s" (Printf.sprintf "%.3f" t_seq);
  jfield "learn_par_s" (Printf.sprintf "%.3f" t_par);
  jfield "learn_speedup" (Printf.sprintf "%.2f" (t_seq /. t_par));
  jfield "learn_trajectory_identical" "true";

  (* Parallel-ratio gate.  Domain fan-out cannot beat sequential work on
     a single-core host — the pool only adds scheduling overhead there, so
     a ratio below 1.0 is the expected physics, not a regression.  The
     ratio is recorded unconditionally (above) but only gated when the
     host has cores to parallelize over; the JSON records which mode
     applied so a diff across hosts reads honestly. *)
  let host_cores = Domain.recommended_domain_count () in
  if host_cores <= 1 then begin
    Printf.printf "\nparallel-ratio gates: skipped (single-core host)\n";
    jfield "parallel_ratio_gates" "skipped_single_core"
  end
  else begin
    jfield "parallel_ratio_gates" "enforced";
    (* lenient floor: a 2-core CI runner only has one spare core *)
    check "parallel learn vs sequential >= 0.6" (t_seq /. t_par >= 0.6)
      (Printf.sprintf "%.2fx on %d cores" (t_seq /. t_par) host_cores)
  end;

  (* --- served latency percentiles, hits vs misses --------------------------- *)
  let lat_server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry lat_server) ~name:"default" model);
  let pass () =
    Array.of_list
      (List.map
         (fun b ->
           let t0 = Unix.gettimeofday () in
           let resp, _ = Serve.Server.handle_line lat_server ("EST " ^ b) in
           if not (Serve.Protocol.is_ok resp) then failwith resp;
           (Unix.gettimeofday () -. t0) *. 1e6)
         bodies)
  in
  let miss_lat = pass () in
  let hit_lat = pass () in
  let p a q = Util.Arrayx.percentile a q in
  Printf.printf "\nserved EST latency: miss p50 %.0fus p99 %.0fus | hit p50 %.1fus p99 %.1fus\n"
    (p miss_lat 50.0) (p miss_lat 99.0) (p hit_lat 50.0) (p hit_lat 99.0);
  jfield "est_miss_p50_us" (Printf.sprintf "%.1f" (p miss_lat 50.0));
  jfield "est_miss_p99_us" (Printf.sprintf "%.1f" (p miss_lat 99.0));
  jfield "est_hit_p50_us" (Printf.sprintf "%.1f" (p hit_lat 50.0));
  jfield "est_hit_p99_us" (Printf.sprintf "%.1f" (p hit_lat 99.0));

  (* --- emit ----------------------------------------------------------------- *)
  write_json "BENCH_inference.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "inference checks FAILED: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- plan IR: compile once, bind many (BENCH_plan.json) ----------------------------------- *)

(* Validates the compiled-plan pipeline's acceptance bars and emits
   BENCH_plan.json:

     - Plan.compile cost (closure + query-eval factors + seeded schedule)
       vs the per-binding Plan.execute cost on the TB 3-table join
       skeleton; the gate is that a warm execute (schedule-memo hit) is
       no slower than recompiling the plan on every request;
     - bit-identity of the compile-once path against the one-shot
       Estimate.estimate path over every binding of the skeleton;
     - served EST throughput with a cold vs warm plan cache — the
       estimate cache is cleared between passes so the warm pass still
       runs inference and isolates plan reuse — plus the plan-cache
       counters reported by STATS. *)

let fig_plan () =
  section "P1: plan IR — compile once, bind many, plan-cache-warm serving";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let sizes = Prm.Estimate.sizes_of_db db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let triples =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  let query_of (i, j, k) =
    Db.Query.with_selects tb_skeleton3
      [ Db.Query.eq "c" "Contype" i; Db.Query.eq "p" "Age" j;
        Db.Query.eq "s" "DrugResist" k ]
  in
  let body (i, j, k) =
    Printf.sprintf
      "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=%d, p.Age=%d, s.DrugResist=%d"
      i j k
  in
  let queries = List.map query_of triples in
  let n = List.length queries in
  let q0 = List.hd queries in
  let time_us reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in

  (* --- compile once, bind many vs recompile per request -------------------- *)
  let compile_us = time_us 50 (fun () -> Plan.compile model q0) in
  let plan = Plan.compile model q0 in
  let divergent =
    List.filter
      (fun q ->
        Int64.bits_of_float (Plan.estimate plan ~sizes q)
        <> Int64.bits_of_float (Prm.Estimate.estimate model ~sizes q))
      queries
  in
  check "compile-once bit-identical to one-shot" (divergent = [])
    (Printf.sprintf "%d/%d bindings" (n - List.length divergent) n);
  let qarr = Array.of_list queries in
  let idx = ref 0 in
  let next () =
    let q = qarr.(!idx mod n) in
    incr idx;
    q
  in
  let warm_us, memo =
    Obs.Hotpath.measure (fun () ->
        time_us (4 * n) (fun () -> Plan.estimate plan ~sizes (next ())))
  in
  let recompile_us =
    time_us n (fun () ->
        let q = next () in
        Plan.estimate (Plan.compile model q) ~sizes q)
  in
  let sched_hits = memo.Obs.Hotpath.order_hits
  and sched_misses = memo.Obs.Hotpath.order_misses in
  Printf.printf "compile %.1fus | warm execute %.2fus | recompile+execute %.2fus (%.1fx)\n"
    compile_us warm_us recompile_us (recompile_us /. warm_us);
  Printf.printf "schedule memo on the shared plan: %d hits / %d misses\n" sched_hits
    sched_misses;
  check "warm execute <= per-request recompile" (warm_us <= recompile_us)
    (Printf.sprintf "%.2fus vs %.2fus" warm_us recompile_us);
  check "schedule memo reused across bindings" (sched_hits > 0 && sched_misses = 0)
    (Printf.sprintf "%d/%d" sched_hits sched_misses);
  jfield "n_bindings" (string_of_int n);
  jfield "plan_compile_us" (Printf.sprintf "%.2f" compile_us);
  jfield "execute_warm_us" (Printf.sprintf "%.3f" warm_us);
  jfield "recompile_us" (Printf.sprintf "%.3f" recompile_us);
  jfield "compile_once_speedup" (Printf.sprintf "%.2f" (recompile_us /. warm_us));
  jfield "bit_identical" (if divergent = [] then "true" else "false");
  jfield "sched_memo_hits" (string_of_int sched_hits);
  jfield "sched_memo_misses" (string_of_int sched_misses);

  (* --- served throughput: cold vs warm plan cache --------------------------- *)
  let server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
  let lines = List.map (fun tr -> "EST " ^ body tr) triples in
  let run_pass () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        let resp, _ = Serve.Server.handle_line server l in
        if not (Serve.Protocol.is_ok resp) then failwith resp)
      lines;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  let cold_qps = run_pass () in
  (* drop the estimates but keep the compiled plans: the second pass runs
     full inference against a warm plan cache *)
  Serve.Lru.clear (Serve.Server.cache server);
  let warm_qps = run_pass () in
  let hits, misses, _evictions = Serve.Plan_cache.stats (Serve.Server.plan_cache server) in
  let stats, _ = Serve.Server.handle_line server "STATS" in
  let field k = Option.value ~default:"?" (Serve.Protocol.stats_field stats k) in
  Printf.printf "\nserved EST over %d bindings: cold plans %8.0f q/s | warm plans %8.0f q/s\n"
    n cold_qps warm_qps;
  Printf.printf "plan cache: hits=%s misses=%s entries=%s\n" (field "plan_cache_hits")
    (field "plan_cache_misses") (field "plan_cache_entries");
  check "plan cache hit on every repeat request" (hits = (2 * n) - 1 && misses = 1)
    (Printf.sprintf "%d hits / %d misses" hits misses);
  check "STATS reports the plan cache" (field "plan_cache_hits" = string_of_int hits) "";
  jfield "serve_cold_qps" (Printf.sprintf "%.1f" cold_qps);
  jfield "serve_warmplan_qps" (Printf.sprintf "%.1f" warm_qps);
  jfield "plan_cache_hits" (string_of_int hits);
  jfield "plan_cache_misses" (string_of_int misses);
  jfield "plan_cache_entries" (string_of_int (Serve.Plan_cache.length (Serve.Server.plan_cache server)));

  write_json "BENCH_plan.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "plan checks FAILED: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- bytecode executor + binary wire frames (BENCH_exec.json) ---------------------------- *)

(* Gates the zero-allocation bytecode executor (Selest_plan.Exec) and the
   binary EST wire frames:
     - bytecode warm execute bit-identical to Ve.Reference (and to the
       generic execute it replaces) over every binding of the TB skeleton;
     - >= 5x speedup over the generic stride/odometer path;
     - zero minor-heap allocation across N warm load+run pairs
       (Gc.minor_words delta = 0) — the arena-reset contract;
     - binary-frame EST throughput at least matching the text protocol on
       the same warm-cache workload, with bit-identical answers (both
       transport-free: handle_frame vs handle_line). *)

let fig_exec () =
  section "X1: bytecode executor — zero-alloc warm estimates, binary wire frames";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let triples =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  let query_of (i, j, k) =
    Db.Query.with_selects tb_skeleton3
      [ Db.Query.eq "c" "Contype" i; Db.Query.eq "p" "Age" j;
        Db.Query.eq "s" "DrugResist" k ]
  in
  let body (i, j, k) =
    Printf.sprintf
      "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=%d, p.Age=%d, s.DrugResist=%d"
      i j k
  in
  let queries = List.map query_of triples in
  let n = List.length queries in
  let q0 = List.hd queries in
  let time_us reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  let plan = Plan.compile model q0 in
  let bindings = Array.of_list (List.map (Plan.bind plan) queries) in

  (* --- gate 1: bit-identity vs Ve.Reference and the generic engine ---------- *)
  let factors = Plan.factors plan in
  let jev = Plan.join_evidence plan in
  let divergent_ref = ref 0 and divergent_gen = ref 0 in
  Array.iter
    (fun b ->
      let byte = Plan.execute plan b in
      let oracle = Bn.Ve.Reference.prob_of_evidence factors (b @ jev) in
      let generic = Plan.execute_generic plan b in
      if Int64.bits_of_float byte <> Int64.bits_of_float oracle then incr divergent_ref;
      if Int64.bits_of_float byte <> Int64.bits_of_float generic then incr divergent_gen)
    bindings;
  check "bytecode bit-identical to Ve.Reference" (!divergent_ref = 0)
    (Printf.sprintf "%d/%d bindings" (n - !divergent_ref) n);
  check "bytecode bit-identical to generic execute" (!divergent_gen = 0)
    (Printf.sprintf "%d/%d bindings" (n - !divergent_gen) n);
  jfield "n_bindings" (string_of_int n);
  jfield "bit_identical_reference" (if !divergent_ref = 0 then "true" else "false");
  jfield "bit_identical_generic" (if !divergent_gen = 0 then "true" else "false");

  (* --- gate 2: warm execute speedup over the generic path ------------------- *)
  let idx = ref 0 in
  let bnext () =
    let b = bindings.(!idx mod n) in
    incr idx;
    b
  in
  let byte_us = time_us (16 * n) (fun () -> Plan.execute plan (bnext ())) in
  let generic_us = time_us (4 * n) (fun () -> Plan.execute_generic plan (bnext ())) in
  let speedup = generic_us /. byte_us in
  Printf.printf "warm execute: bytecode %.3fus | generic %.3fus (%.1fx)\n" byte_us
    generic_us speedup;
  check "bytecode >= 5x generic warm execute" (speedup >= 5.0)
    (Printf.sprintf "%.3fus vs %.3fus (%.1fx)" byte_us generic_us speedup);
  jfield "execute_bytecode_us" (Printf.sprintf "%.4f" byte_us);
  jfield "execute_generic_us" (Printf.sprintf "%.4f" generic_us);
  jfield "bytecode_speedup" (Printf.sprintf "%.2f" speedup);

  (* --- gate 3: zero minor-heap allocation per warm request ------------------ *)
  (match Plan.program_for plan bindings.(0) with
  | None -> check "compiled program available" false "program_for returned None"
  | Some prog ->
    let st = Selest_plan.Exec.state_for prog in
    (match Selest_plan.Exec.load prog st bindings.(0) with
    | `Ok -> Selest_plan.Exec.run st
    | `No_match | `Contradiction -> failwith "exec: compile-query binding did not load");
    let reps = 10_000 in
    let b0 = bindings.(0) in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Selest_plan.Exec.load prog st b0);
      Selest_plan.Exec.run st
    done;
    let w1 = Gc.minor_words () in
    let delta = w1 -. w0 in
    check "zero minor-heap allocation per warm request" (delta = 0.0)
      (Printf.sprintf "%.0f words / %d requests" delta reps);
    jfield "warm_minor_words_delta" (Printf.sprintf "%.0f" delta);
    jfield "alloc_gate_requests" (string_of_int reps);
    jfield "program_steps" (string_of_int (Selest_plan.Exec.n_steps prog));
    jfield "arena_entries" (string_of_int (Selest_plan.Exec.arena_entries prog)));

  (* --- gate 4: binary frames vs text protocol, transport-free --------------- *)
  let server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
  let lines = List.map (fun tr -> "EST " ^ body tr) triples in
  let frames =
    List.map
      (fun tr ->
        let encoded =
          Serve.Protocol.Bin.encode_request
            (Serve.Protocol.Bin.Best { model = None; body = body tr })
        in
        (* handle_frame takes the payload with the length prefix stripped *)
        Bytes.of_string (String.sub encoded 4 (String.length encoded - 4)))
      triples
  in
  (* one warm-up pass fills the estimate cache, then certify that binary
     and text answers carry bit-identical floats *)
  let mismatches = ref 0 in
  List.iter2
    (fun l fr ->
      let resp, _ = Serve.Server.handle_line server l in
      if not (Serve.Protocol.is_ok resp) then failwith resp;
      let text_v = float_of_string (Serve.Protocol.payload resp) in
      let out = Serve.Server.handle_frame server fr in
      match
        Serve.Protocol.Bin.decode_response
          (Bytes.of_string (String.sub out 4 (String.length out - 4)))
      with
      | Ok (Serve.Protocol.Bin.Bvalue v) ->
        if Int64.bits_of_float v <> Int64.bits_of_float text_v then incr mismatches
      | Ok _ | Error _ -> failwith "bin: unexpected response to EST frame")
    lines frames;
  check "binary answers bit-identical to text" (!mismatches = 0)
    (Printf.sprintf "%d/%d" (n - !mismatches) n);
  let text_pass () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        let resp, _ = Serve.Server.handle_line server l in
        if not (Serve.Protocol.is_ok resp) then failwith resp)
      lines;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  let bin_pass () =
    let t0 = Unix.gettimeofday () in
    List.iter (fun fr -> ignore (Serve.Server.handle_frame server fr)) frames;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  (* best-of to damp scheduler noise, same as the obs methodology *)
  let best f =
    let m = ref 0.0 in
    for _ = 1 to 5 do
      let v = f () in
      if v > !m then m := v
    done;
    !m
  in
  let text_qps = best text_pass in
  let bin_qps = best bin_pass in
  Printf.printf "served EST (warm cache): text %8.0f q/s | binary %8.0f q/s (%.2fx)\n"
    text_qps bin_qps (bin_qps /. text_qps);
  check "binary EST QPS >= text QPS" (bin_qps >= text_qps)
    (Printf.sprintf "%.0f vs %.0f q/s" bin_qps text_qps);
  jfield "serve_text_qps" (Printf.sprintf "%.1f" text_qps);
  jfield "serve_bin_qps" (Printf.sprintf "%.1f" bin_qps);
  jfield "bin_over_text" (Printf.sprintf "%.3f" (bin_qps /. text_qps));

  write_json "BENCH_exec.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "exec checks FAILED: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- allocation-free request front-end (BENCH_frontend.json) ----------------------------- *)

(* Gates the request front-end: (1) the zero-copy parse + canon + hash
   pipeline answers exactly like the reference split/Qparse/validate/
   normalize pipeline and beats it >= 2x on a warm miss; (2) range and
   set predicates lower into the bytecode executor bit-identically to
   the generic engine and Ve.Reference; (3) a warm served EST allocates
   zero minor-heap words end to end — socket read to answer write — in
   both text and binary framing, driven through the true shard
   message-extraction loop (Shard.Loopback); (4) transport-free served
   QPS holds the BENCH_exec.json baselines; (5) an estimate-cache miss
   on a cached plan — keyed, fetched and bound straight from the parse
   scratch — allocates at most 600 minor words. *)

let read_json_field file field =
  match open_in (at_root file) with
  | exception Sys_error _ -> None
  | ic ->
    let needle = Printf.sprintf "%S:" field in
    let rec scan () =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        None
      | line -> (
        match String.index_opt line ':' with
        | Some _ when String.length (String.trim line) > String.length needle
                      && String.sub (String.trim line) 0 (String.length needle) = needle ->
          let v = String.trim line in
          let v = String.sub v (String.length needle) (String.length v - String.length needle) in
          let v = String.trim v in
          let v =
            if String.length v > 0 && v.[String.length v - 1] = ',' then
              String.sub v 0 (String.length v - 1)
            else v
          in
          close_in ic;
          float_of_string_opt (String.trim v)
        | _ -> scan ())
    in
    scan ()

let fig_frontend () =
  section "F1: allocation-free front-end — zero-copy parse, hash keys, range/set bytecode";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let triples =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  let body (i, j, k) =
    Printf.sprintf
      "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=%d, p.Age=%d, s.DrugResist=%d"
      i j k
  in
  let bodies = Array.of_list (List.map body triples) in
  let n = Array.length bodies in

  (* --- gate 1: zero-copy pipeline ≡ reference pipeline, >= 2x faster -------- *)
  let scratch = Db.Squery.create (Db.Squery.Symtab.of_schema schema) in
  let bufs = Array.map Bytes.of_string bodies in
  let reference_front b =
    let tvars, joins, selects = Serve.Protocol.split_sections b in
    let q = Db.Qparse.parse db ~tvars ~joins ~selects () in
    Db.Exec.validate db q;
    (* Canon.key normalizes internally — the old front-end's whole
       miss-path key derivation in one call *)
    Serve.Canon.key q
  in
  let zero_copy_front buf =
    Db.Squery.parse scratch buf ~off:0 ~len:(Bytes.length buf);
    Db.Squery.canon scratch;
    Db.Squery.hash scratch
  in
  let divergent = ref 0 in
  Array.iteri
    (fun i b ->
      let tvars, joins, selects = Serve.Protocol.split_sections b in
      let q = Db.Qparse.parse db ~tvars ~joins ~selects () in
      Db.Exec.validate db q;
      let q = Serve.Canon.normalize q in
      Db.Squery.parse scratch bufs.(i) ~off:0 ~len:(Bytes.length bufs.(i));
      Db.Squery.canon scratch;
      if Db.Squery.to_query scratch <> q then incr divergent)
    bodies;
  check "zero-copy parse ≡ reference pipeline" (!divergent = 0)
    (Printf.sprintf "%d/%d bodies" (n - !divergent) n);
  jfield "parse_agreement" (if !divergent = 0 then "true" else "false");
  let time_front reps f =
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int (reps * n) *. 1e6
  in
  let ref_us =
    time_front 20 (fun () ->
        Array.iter (fun b -> ignore (Sys.opaque_identity (reference_front b))) bodies)
  in
  let zc_us =
    time_front 20 (fun () ->
        Array.iter (fun b -> ignore (Sys.opaque_identity (zero_copy_front b))) bufs)
  in
  let front_speedup = ref_us /. zc_us in
  Printf.printf "warm-miss front-end: reference %.3fus | zero-copy %.3fus (%.1fx)\n"
    ref_us zc_us front_speedup;
  check "zero-copy front-end >= 2x reference" (front_speedup >= 2.0)
    (Printf.sprintf "%.3fus vs %.3fus (%.1fx)" zc_us ref_us front_speedup);
  jfield "frontend_reference_us" (Printf.sprintf "%.4f" ref_us);
  jfield "frontend_zero_copy_us" (Printf.sprintf "%.4f" zc_us);
  jfield "frontend_speedup" (Printf.sprintf "%.2f" front_speedup);

  (* --- gate 2: range/set predicates through the bytecode executor ----------- *)
  let rng = Util.Rng.create (cfg.seed lxor 0xF0E) in
  let cc = card "contact" "Contype"
  and ca = card "patient" "Age"
  and cd = card "strain" "DrugResist" in
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
          [ sel "c" "Contype" cc; sel "p" "Age" ca; sel "s" "DrugResist" cd ])
  in
  let mplan = Plan.compile model (List.hd masked_queries) in
  let mfactors = Plan.factors mplan and mjev = Plan.join_evidence mplan in
  let div_gen = ref 0 and div_ref = ref 0 in
  List.iter
    (fun q ->
      let b = Plan.bind mplan q in
      let byte = Plan.execute mplan b in
      let generic = Plan.execute_generic mplan b in
      let oracle = Bn.Ve.Reference.prob_of_evidence mfactors (b @ mjev) in
      if Int64.bits_of_float byte <> Int64.bits_of_float generic then incr div_gen;
      if Int64.bits_of_float byte <> Int64.bits_of_float oracle then incr div_ref)
    masked_queries;
  check "range/set bytecode ≡ generic engine" (!div_gen = 0)
    (Printf.sprintf "%d/%d queries" (n_masked - !div_gen) n_masked);
  check "range/set bytecode ≡ Ve.Reference" (!div_ref = 0)
    (Printf.sprintf "%d/%d queries" (n_masked - !div_ref) n_masked);
  jfield "masked_queries" (string_of_int n_masked);
  jfield "masked_bit_identical_generic" (if !div_gen = 0 then "true" else "false");
  jfield "masked_bit_identical_reference" (if !div_ref = 0 then "true" else "false");

  (* --- gate 3: zero allocation end to end over a real socket ---------------- *)
  let server = Serve.Server.create ~db ~socket:"(bench: loopback)" () in
  ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
  let on_line_fast, on_frame_fast = Serve.Server.fast_handlers server ~shard:0 in
  let on_line l = Serve.Server.handle_line server l in
  let on_frame p = Serve.Server.handle_frame server p in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Serve.Shard.Loopback.connect srv in
  let step () =
    Serve.Shard.Loopback.step conn ~on_line_fast ~on_frame_fast ~on_line ~on_frame
  in
  let rbuf = Bytes.create 65536 in
  let drain () = ignore (Unix.read client rbuf 0 (Bytes.length rbuf)) in
  let requests = Array.map (fun b -> "EST " ^ b ^ "\n") bodies in
  let round () =
    for i = 0 to n - 1 do
      let r = Array.unsafe_get requests i in
      ignore (Unix.write_substring client r 0 (String.length r));
      step ();
      drain ()
    done
  in
  (* first pass fills the cache through the fast path's miss handling *)
  round ();
  let alloc_reps = 4 in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_reps do
    round ()
  done;
  let w1 = Gc.minor_words () in
  let text_delta = w1 -. w0 in
  check "warm text EST round trip allocates zero words" (text_delta = 0.0)
    (Printf.sprintf "%.0f words / %d round trips" text_delta (alloc_reps * n));
  jfield "text_warm_minor_words_delta" (Printf.sprintf "%.0f" text_delta);
  let best f =
    let m = ref 0.0 in
    for _ = 1 to 5 do
      let v = f () in
      if v > !m then m := v
    done;
    !m
  in
  let loop_text_qps =
    best (fun () ->
        let t0 = Unix.gettimeofday () in
        round ();
        float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  (* binary framing over the same connection *)
  ignore (Unix.write_substring client "BIN\n" 0 4);
  step ();
  drain ();
  let frames =
    Array.map
      (fun b ->
        Serve.Protocol.Bin.encode_request
          (Serve.Protocol.Bin.Best { model = None; body = b }))
      bodies
  in
  let bround () =
    for i = 0 to n - 1 do
      let f = Array.unsafe_get frames i in
      ignore (Unix.write_substring client f 0 (String.length f));
      step ();
      drain ()
    done
  in
  bround ();
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_reps do
    bround ()
  done;
  let w1 = Gc.minor_words () in
  let bin_delta = w1 -. w0 in
  check "warm binary EST round trip allocates zero words" (bin_delta = 0.0)
    (Printf.sprintf "%.0f words / %d round trips" bin_delta (alloc_reps * n));
  jfield "bin_warm_minor_words_delta" (Printf.sprintf "%.0f" bin_delta);
  jfield "alloc_gate_round_trips" (string_of_int (alloc_reps * n));
  let loop_bin_qps =
    best (fun () ->
        let t0 = Unix.gettimeofday () in
        bround ();
        float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  Printf.printf "loopback EST (warm): text %8.0f q/s | binary %8.0f q/s\n"
    loop_text_qps loop_bin_qps;
  jfield "loopback_text_qps" (Printf.sprintf "%.1f" loop_text_qps);
  jfield "loopback_bin_qps" (Printf.sprintf "%.1f" loop_bin_qps);
  Unix.close client;
  (try Unix.close srv with Unix.Unix_error _ -> ());

  (* --- gate 4: transport-free QPS holds the exec-figure baselines ----------- *)
  let lines = Array.map (fun b -> "EST " ^ b) bodies in
  let payloads =
    Array.map
      (fun f -> Bytes.of_string (String.sub f 4 (String.length f - 4)))
      frames
  in
  Array.iter (fun l -> ignore (Serve.Server.handle_line server l)) lines;
  let text_qps =
    best (fun () ->
        let t0 = Unix.gettimeofday () in
        Array.iter (fun l -> ignore (Serve.Server.handle_line server l)) lines;
        float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  let bin_qps =
    best (fun () ->
        let t0 = Unix.gettimeofday () in
        Array.iter (fun p -> ignore (Serve.Server.handle_frame server p)) payloads;
        float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  Printf.printf "transport-free EST (warm): text %8.0f q/s | binary %8.0f q/s\n"
    text_qps bin_qps;
  jfield "serve_text_qps" (Printf.sprintf "%.1f" text_qps);
  jfield "serve_bin_qps" (Printf.sprintf "%.1f" bin_qps);
  (* 10% tolerance absorbs scheduler noise between the two figures' runs *)
  (match read_json_field "BENCH_exec.json" "serve_text_qps" with
  | None -> Printf.printf "BENCH_exec.json absent — QPS baseline check skipped\n"
  | Some base_text ->
    check "text QPS holds the exec baseline" (text_qps >= 0.9 *. base_text)
      (Printf.sprintf "%.0f vs baseline %.0f q/s" text_qps base_text);
    jfield "baseline_text_qps" (Printf.sprintf "%.1f" base_text));
  (match read_json_field "BENCH_exec.json" "serve_bin_qps" with
  | None -> ()
  | Some base_bin ->
    check "binary QPS holds the exec baseline" (bin_qps >= 0.9 *. base_bin)
      (Printf.sprintf "%.0f vs baseline %.0f q/s" bin_qps base_bin);
    jfield "baseline_bin_qps" (Printf.sprintf "%.1f" base_bin));

  (* --- gate 5: the estimate-cache miss path, transport-free ------------- *)
  (* Wide TB queries on the served benchmark's tb_miss skeletons
     (Perfbench.Workloads), never repeating, through
     [Server.handle_line_shard]: every one misses the estimate cache on
     a cached plan.  The first [warm] bodies compile the skeletons'
     plans; the next [n_miss] are measured. *)
  let n_miss = 4_000 and warm = 200 and blocks = 4 in
  let miss_bodies, _ =
    Perfbench.Workloads.stream Perfbench.Workloads.tb_miss ~seed:cfg.seed
      ~n:(warm + n_miss)
  in
  let miss_lines = Array.map (fun b -> "EST " ^ b) miss_bodies in
  let mserver = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry mserver) ~name:"default" model);
  let serve_range lo hi =
    for i = lo to hi - 1 do
      ignore (Sys.opaque_identity (Serve.Server.handle_line_shard mserver ~shard:0 miss_lines.(i)))
    done
  in
  serve_range 0 warm;
  let misses0 = Serve.Lru.misses (Serve.Server.cache mserver) in
  let _, pmiss0, _ = Serve.Plan_cache.stats (Serve.Server.plan_cache mserver) in
  let block = n_miss / blocks in
  let w0 = Gc.minor_words () in
  let block_us =
    List.init blocks (fun b ->
        let lo = warm + (b * block) in
        let t0 = Unix.gettimeofday () in
        serve_range lo (lo + block);
        (Unix.gettimeofday () -. t0) /. float_of_int block *. 1e6)
  in
  let miss_words = (Gc.minor_words () -. w0) /. float_of_int n_miss in
  let miss_us = List.fold_left min infinity block_us in
  let misses = Serve.Lru.misses (Serve.Server.cache mserver) - misses0 in
  let _, pmiss1, _ = Serve.Plan_cache.stats (Serve.Server.plan_cache mserver) in
  Printf.printf "miss path (handle_line_shard): %.2fus/est (best of %d blocks), %.0f minor words/est\n"
    miss_us blocks miss_words;
  (* (SLOWLOG latency captures replay a few bodies on top: those probes
     hit the entry just filled, so count misses, not hits) *)
  check "miss workload: every estimate misses on a cached plan"
    (misses >= n_miss && pmiss1 = pmiss0)
    (Printf.sprintf "%d misses, %d plan compiles over %d estimates" misses
       (pmiss1 - pmiss0) n_miss);
  check "miss path allocates <= 600 minor words/est" (miss_words <= 600.0)
    (Printf.sprintf "%.0f words/est" miss_words);
  jfield "miss_estimates" (string_of_int n_miss);
  jfield "miss_us" (Printf.sprintf "%.3f" miss_us);
  jfield "miss_minor_words_per_est" (Printf.sprintf "%.1f" miss_words);

  write_json "BENCH_frontend.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "frontend checks FAILED: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- incremental structure learning (BENCH_learn.json) ----------------------------------- *)

(* Measures the incremental hill-climber (delta move cache + Depgraph
   legality oracle + count-once sufficient statistics) against the
   retained naive reference climber on the TB database, and certifies the
   two bit-identical: same accepted-move trajectory, same serialized
   model.  Gates: trajectory_identical must hold and the incremental
   climber must be no slower than the reference. *)

let fig_learn () =
  section "L1: incremental structure learning — delta move cache, count-once suffstats";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
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
  Prob.Counts.reset_total_scans ();
  let r_base, t_base = time (fun () -> Prm.Learn.learn_reference ~config db) in
  let scans_base = Prob.Counts.total_scans () in
  Prob.Counts.reset_total_scans ();
  let r_fast, t_fast = time (fun () -> Prm.Learn.learn ~config db) in
  let scans_fast = Prob.Counts.total_scans () in
  let fingerprint r =
    Util.Sexp.to_string (Prm.Serialize.to_sexp r.Prm.Learn.model)
  in
  let identical =
    r_base.Prm.Learn.trajectory = r_fast.Prm.Learn.trajectory
    && fingerprint r_base = fingerprint r_fast
    && r_base.Prm.Learn.bytes = r_fast.Prm.Learn.bytes
    && r_base.Prm.Learn.loglik = r_fast.Prm.Learn.loglik
  in
  let speedup = t_base /. t_fast in
  Printf.printf "PRM structure search (TB, %dB budget, %d accepted moves):\n" budget
    r_fast.Prm.Learn.iterations;
  Printf.printf "reference climber:   %6.2f s  (%d suffstat scans)\n" t_base scans_base;
  Printf.printf "incremental climber: %6.2f s  (%d suffstat scans, %.1fx)\n" t_fast
    scans_fast speedup;
  check "trajectory identical" identical
    (Printf.sprintf "%d moves" (List.length r_fast.Prm.Learn.trajectory));
  check "incremental no slower than reference" (speedup >= 1.0)
    (Printf.sprintf "%.2fx" speedup);
  jfield "learn_budget_bytes" (string_of_int budget);
  jfield "learn_moves" (string_of_int r_fast.Prm.Learn.iterations);
  jfield "learn_base_s" (Printf.sprintf "%.3f" t_base);
  jfield "learn_fast_s" (Printf.sprintf "%.3f" t_fast);
  jfield "learn_speedup" (Printf.sprintf "%.2f" speedup);
  jfield "trajectory_identical" (if identical then "true" else "false");
  jfield "suffstat_scans_base" (string_of_int scans_base);
  jfield "suffstat_scans_fast" (string_of_int scans_fast);
  write_json "BENCH_learn.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "learn checks FAILED: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- observability: trace overhead, EXPLAIN fidelity, METRICS, q-error ------------------- *)

(* Validates the lib/obs acceptance bars and emits BENCH_obs.json plus a
   normalized golden text (BENCH_obs_golden.txt) that bench-smoke diffs
   against test/golden/obs_golden.txt:

     - EST throughput with the default no-op sink vs with a global span
       sink installed, cold caches: tracing overhead must stay < 8% of
       the (PR 10-accelerated) request and < 150ns per span;
     - EXPLAIN stage times must sum to within 10% of the request's own
       end-to-end wall time (the "est" container span);
     - METRICS must parse as Prometheus text exposition and agree with
       the request counters;
     - TRUTH must feed the per-model rolling q-error histogram. *)

let fig_obs () =
  section "O1: observability — trace overhead, EXPLAIN fidelity, METRICS, q-error";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let triples =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  let body (i, j, k) =
    Printf.sprintf
      "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=%d, p.Age=%d, s.DrugResist=%d"
      i j k
  in
  let fresh_server () =
    let s = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
    ignore (Serve.Registry.register (Serve.Server.registry s) ~name:"default" model);
    s
  in
  let ask server line =
    let resp, _ = Serve.Server.handle_line server line in
    if Serve.Protocol.is_err resp then failwith (line ^ " -> " ^ resp);
    resp
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in

  (* --- tracing overhead: cold-cache EST passes, no sink vs a live sink ---- *)
  let est_lines = List.map (fun tr -> "EST " ^ body tr) triples in
  (* Shared CI machines preempt us for whole scheduler quanta, so any
     statistic over multi-millisecond samples sees tens of percent of
     noise — far above the single-digit effect under test.  Preemption
     only ever *adds* time, so instead time every request individually
     (one ~45ns monotonic read per side against ~60us requests), take the
     per-query minimum across interleaved cold passes, and compare the
     sums of minima.  A preemption must land inside the same ~60us window
     on every one of the passes to bias a query's minimum, which makes
     the summed statistic stable where pass-level medians and peaks are
     not. *)
  let n_passes = 15 in
  let n_queries = List.length est_lines in
  let est_arr = Array.of_list est_lines in
  let pass min_us =
    let server = fresh_server () in
    Array.iteri
      (fun i l ->
        let t0 = Obs.Clock.now_ns () in
        ignore (ask server l);
        let dt = Obs.Clock.ns_to_us (Obs.Clock.now_ns () - t0) in
        if dt < min_us.(i) then min_us.(i) <- dt)
      est_arr
  in
  let discard = Array.make n_queries infinity in
  pass discard;
  pass discard;
  (* warm-up: order cache, scratch pools, code *)
  let sink_records = ref 0 in
  let noop_min = Array.make n_queries infinity in
  let traced_min = Array.make n_queries infinity in
  for _ = 1 to n_passes do
    Obs.Span.set_global_sink None;
    pass noop_min;
    Obs.Span.set_global_sink (Some (fun _ -> incr sink_records));
    pass traced_min
  done;
  Obs.Span.set_global_sink None;
  if Sys.getenv_opt "SELEST_BENCH_DEBUG" <> None then
    Array.iteri
      (fun i noop ->
        Printf.printf "  query %2d noop %6.1fus traced %6.1fus\n" i noop traced_min.(i))
      noop_min;
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let noop = float_of_int n_queries /. sum noop_min *. 1e6 in
  let traced = float_of_int n_queries /. sum traced_min *. 1e6 in
  let overhead_pct = (noop -. traced) /. noop *. 100.0 in
  Printf.printf "%d distinct TB join queries per pass, cold caches, PRM %dB\n"
    n_queries (Prm.Model.size_bytes model);
  Printf.printf "EST no-op sink:  %8.0f queries/s (sum of per-query minima over %d passes)\n"
    noop n_passes;
  Printf.printf "EST traced:      %8.0f queries/s (%d span records)\n" traced !sink_records;
  (* The original <5% gate was set against a ~12us cold EST; PR 10's
     front-end cut the request to ~8us while the absolute span cost
     (~0.5us/request, ~6 spans) is unchanged, so the same tracing work
     is a larger share of a faster request.  Gate the ratio with the
     new denominator (8%) and the absolute per-span cost (<150ns). *)
  let traced_ns_per_span =
    (1e9 /. traced -. 1e9 /. noop)
    /. (float_of_int !sink_records /. float_of_int (n_passes * n_queries))
  in
  check "tracing overhead < 8%" (overhead_pct < 8.0)
    (Printf.sprintf "%.2f%%" overhead_pct);
  check "tracing cost < 150ns per span" (traced_ns_per_span < 150.0)
    (Printf.sprintf "%.0fns" traced_ns_per_span);
  check "traced pass emitted spans" (!sink_records > 0)
    (string_of_int !sink_records);
  jfield "est_queries" (string_of_int (List.length est_lines));
  jfield "est_qps_noop" (Printf.sprintf "%.1f" noop);
  jfield "est_qps_traced" (Printf.sprintf "%.1f" traced);
  jfield "trace_overhead_pct" (Printf.sprintf "%.2f" overhead_pct);
  jfield "traced_ns_per_span" (Printf.sprintf "%.1f" traced_ns_per_span);

  (* Disabled-sink cost relative to the pre-instrumentation baseline can't
     be measured against code this binary no longer contains, so calibrate
     it: time the disabled [Span.with_] fast path directly and scale by the
     spans-per-request count observed above.  This is the "within 2% of the
     pre-PR baseline" acceptance number. *)
  let spans_per_query =
    float_of_int !sink_records /. float_of_int (n_passes * n_queries)
  in
  let calib_n = 1_000_000 in
  let tick = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calib_n do
    Obs.Span.with_ "calib" (fun _ -> incr tick)
  done;
  let ns_per_disabled_span = (Unix.gettimeofday () -. t0) /. float_of_int calib_n *. 1e9 in
  let query_us = 1e6 /. noop in
  let noop_overhead_pct =
    ns_per_disabled_span *. spans_per_query /. 1e3 /. query_us *. 100.0
  in
  Printf.printf
    "disabled span: %.0fns x %.1f spans/query = %.2f%% of a %.0fus request\n"
    ns_per_disabled_span spans_per_query noop_overhead_pct query_us;
  check "no-op sink overhead < 2% of baseline" (noop_overhead_pct < 2.0)
    (Printf.sprintf "%.2f%%" noop_overhead_pct);
  jfield "spans_per_query" (Printf.sprintf "%.1f" spans_per_query);
  jfield "ns_per_disabled_span" (Printf.sprintf "%.1f" ns_per_disabled_span);
  jfield "noop_overhead_pct" (Printf.sprintf "%.2f" noop_overhead_pct);

  (* --- EXPLAIN fidelity: stage sum vs the request's own wall time --------- *)
  let server = fresh_server () in
  let field resp k =
    match Serve.Protocol.stats_field resp k with
    | Some v -> v
    | None -> failwith (Printf.sprintf "missing field %s in %S" k resp)
  in
  let ratios = ref [] and totals = ref [] in
  let explain_triples = List.filteri (fun i _ -> i < 31) triples in
  List.iter
    (fun tr ->
      let resp = ask server ("EXPLAIN " ^ body tr) in
      let total = float_of_string (field resp "total_us") in
      let stage_sum = float_of_string (field resp "stage_sum_us") in
      ratios := (stage_sum /. total) :: !ratios;
      totals := total :: !totals)
    explain_triples;
  let ratio = median !ratios and total_med = median !totals in
  Printf.printf "\nEXPLAIN over %d queries: median total %.1fus, median stage cover %.1f%%\n"
    (List.length explain_triples) total_med (ratio *. 100.0);
  check "EXPLAIN stage sum within 10% of wall time"
    (ratio >= 0.9 && ratio <= 1.1)
    (Printf.sprintf "cover %.3f" ratio);
  (* EXPLAIN fills the cache; EST must echo the identical estimate *)
  let tr0 = List.hd explain_triples in
  let exp_resp = ask server ("EXPLAIN " ^ body tr0) in
  let est_resp = ask server ("EST " ^ body tr0) in
  let est_val = List.nth (String.split_on_char ' ' est_resp) 1 in
  check "EXPLAIN estimate matches EST" (field exp_resp "estimate" = est_val)
    est_val;
  check "EXPLAIN reports warm cache" (field exp_resp "cache" = "hit") "";
  jfield "explain_queries" (string_of_int (List.length explain_triples));
  jfield "explain_total_us_median" (Printf.sprintf "%.1f" total_med);
  jfield "explain_stage_cover" (Printf.sprintf "%.3f" ratio);

  (* --- TRUTH: feed the rolling q-error histogram with exact counts -------- *)
  let truth_triples = List.filteri (fun i _ -> i mod 3 = 0) triples in
  List.iter
    (fun (i, j, k) ->
      let q =
        Db.Query.with_selects tb_skeleton3
          [ Db.Query.eq "c" "Contype" i; Db.Query.eq "p" "Age" j;
            Db.Query.eq "s" "DrugResist" k ]
      in
      let tv = true_size db q in
      ignore (ask server (Printf.sprintf "TRUTH %.17g %s" tv (body (i, j, k)))))
    truth_triples;
  let qsum = Obs.Qerror.summarize (Serve.Server.qerror_table server "default") in
  Printf.printf "\nTRUTH over %d queries: q-error mean %.2f p50 %.2f p90 %.2f max %.2f\n"
    qsum.Obs.Qerror.n qsum.Obs.Qerror.mean qsum.Obs.Qerror.p50 qsum.Obs.Qerror.p90
    qsum.Obs.Qerror.max_q;
  check "TRUTH observations recorded"
    (qsum.Obs.Qerror.n = List.length truth_triples)
    (string_of_int qsum.Obs.Qerror.n);
  check "q-errors are >= 1" (qsum.Obs.Qerror.p50 >= 1.0)
    (Printf.sprintf "p50 %.2f" qsum.Obs.Qerror.p50);
  jfield "qerror_queries" (string_of_int qsum.Obs.Qerror.n);
  jfield "qerror_mean" (Printf.sprintf "%.3f" qsum.Obs.Qerror.mean);
  jfield "qerror_p50" (Printf.sprintf "%.3f" qsum.Obs.Qerror.p50);
  jfield "qerror_p90" (Printf.sprintf "%.3f" qsum.Obs.Qerror.p90);
  jfield "qerror_max" (Printf.sprintf "%.3f" qsum.Obs.Qerror.max_q);

  (* --- fast path: loopback EST round trips through the zero-copy front-end
     so the selest_frontend_* counters — elided from snapshots while zero —
     carry values into the METRICS exposition below ------------------------- *)
  let fp_on_line_fast, fp_on_frame_fast =
    Serve.Server.fast_handlers server ~shard:0
  in
  let fp_client, fp_srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fp_conn = Serve.Shard.Loopback.connect fp_srv in
  let fp_buf = Bytes.create 65536 in
  List.iter
    (fun tr ->
      let r = "EST " ^ body tr ^ "\n" in
      ignore (Unix.write_substring fp_client r 0 (String.length r));
      Serve.Shard.Loopback.step fp_conn ~on_line_fast:fp_on_line_fast
        ~on_frame_fast:fp_on_frame_fast
        ~on_line:(Serve.Server.handle_line server)
        ~on_frame:(Serve.Server.handle_frame server);
      ignore (Unix.read fp_client fp_buf 0 (Bytes.length fp_buf)))
    explain_triples;
  Unix.close fp_client;
  (try Unix.close fp_srv with Unix.Unix_error _ -> ());

  (* --- METRICS: must parse as Prometheus and agree with the counters ------ *)
  ignore (ask server "PING");
  ignore
    (ask server
       ("ESTBATCH " ^ String.concat " || " (List.map body explain_triples)));
  let mresp = ask server "METRICS" in
  let nl = String.index mresp '\n' in
  let text = String.sub mresp (nl + 1) (String.length mresp - nl - 1) in
  let types, samples = Obs.Prometheus.parse text in
  let sample name = Obs.Prometheus.find_sample samples ~name () in
  (* snapshot the live counter before issuing any further request *)
  let live_requests = Serve.Metrics.get (Serve.Server.metrics server) "requests" in
  check "METRICS parses as Prometheus"
    (types <> [] && samples <> [])
    (Printf.sprintf "%d families, %d samples" (List.length types)
       (List.length samples));
  check "selest_requests_total agrees"
    (sample "selest_requests_total" = Some (float_of_int live_requests))
    (string_of_int live_requests);
  check "latency histogram count present"
    (match sample "selest_request_latency_us_count" with
     | Some c -> c > 0.0
     | None -> false)
    "";
  check "qerror histogram count agrees"
    (Obs.Prometheus.find_sample samples ~name:"selest_qerror_count"
       ~labels:[ ("model", "default") ] ()
    = Some (float_of_int qsum.Obs.Qerror.n))
    "";
  check "frontend stage counters exported"
    (sample "selest_frontend_parse_ns_total" <> None
    && sample "selest_frontend_canon_ns_total" <> None
    && sample "selest_frontend_key_ns_total" <> None)
    "";
  jfield "metrics_families" (string_of_int (List.length types));
  jfield "metrics_samples" (string_of_int (List.length samples));

  (* --- trace log: JSONL records reach the file ----------------------------- *)
  let tmp = Filename.temp_file "selest_obs" ".jsonl" in
  Obs.Trace_log.install tmp;
  ignore (ask server ("EST " ^ body tr0));
  Obs.Trace_log.close ();
  let ic = open_in tmp in
  let trace_lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr trace_lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  check "trace log wrote one JSONL record per span" (!trace_lines >= 4)
    (Printf.sprintf "%d lines" !trace_lines);
  jfield "trace_log_lines" (string_of_int !trace_lines);

  (* --- golden text: shape only, numbers stripped --------------------------- *)
  let golden = Buffer.create 512 in
  Buffer.add_string golden "EXPLAIN fields:\n";
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Buffer.add_string golden ("  " ^ String.sub tok 0 i ^ "\n")
      | None -> ())
    (List.tl (String.split_on_char ' ' exp_resp));
  Buffer.add_string golden "METRICS types:\n";
  List.iter
    (fun (n, ty) -> Buffer.add_string golden ("  " ^ n ^ " " ^ ty ^ "\n"))
    types;
  let oc = open_out (at_root "BENCH_obs_golden.txt") in
  Buffer.output_buffer oc golden;
  close_out oc;
  Printf.printf "wrote BENCH_obs_golden.txt\n";

  write_json "BENCH_obs.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "observability checks FAILED: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- telemetry core: sharded metrics, overhead, contention (BENCH_telemetry.json) --------- *)

(* PR 8's tentpole, measured.  Four parts:

   (a) per-request bookkeeping overhead — the PR 7 baseline (one
       mutex-guarded observe) is code this binary no longer contains, so
       the new telemetry sequence (counter bumps, aggregate + per-verb
       histogram records, the tail-sampler's atomics) is timed directly
       and expressed as a fraction of a measured cold EST request, the
       same calibration pattern fig_obs uses for the no-op span sink;
       gated < 5%.

   (b) merge exactness — K writer domains hammer one Telemetry instance;
       after join the merged snapshot must be *bit-exact* against a
       sequential oracle fed the same samples (counters, counts, sums,
       and every raw bucket).

   (c) contention — 4 writer domains recording into one mutex-guarded
       histogram vs the sharded core; the sharded side must keep scaling
       where the mutex serializes (>= 2x on hosts with >= 4 cores;
       recorded but not gated on smaller hosts, skipped entirely on
       single-core ones — the BENCH_inference pattern).

   (d) HEALTH / SLOWLOG end to end through the dispatcher: a q-error
       capture with a replayed span tree must surface in SLOWLOG and in
       HEALTH's burn report, and the response *shape* (field names and
       span names, numbers stripped) is pinned in
       BENCH_telemetry_golden.txt. *)

let fig_telemetry () =
  section "T1: telemetry core — overhead, merge exactness, contention, HEALTH/SLOWLOG";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let triples =
    List.concat
      (List.init (card "contact" "Contype") (fun i ->
           List.concat
             (List.init (card "patient" "Age") (fun j ->
                  List.init (card "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  let body (i, j, k) =
    Printf.sprintf
      "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=%d, p.Age=%d, s.DrugResist=%d"
      i j k
  in
  let fresh_server ?qerror_gate () =
    let s = Serve.Server.create ?qerror_gate ~db ~socket:"(bench: transport-free)" () in
    ignore (Serve.Registry.register (Serve.Server.registry s) ~name:"default" model);
    s
  in
  let ask server line =
    let resp, _ = Serve.Server.handle_line server line in
    if Serve.Protocol.is_err resp then failwith (line ^ " -> " ^ resp);
    resp
  in

  (* --- (a) throughput + calibrated per-request telemetry cost ------------- *)
  let est_arr = Array.of_list (List.map (fun tr -> "EST " ^ body tr) triples) in
  let n_queries = Array.length est_arr in
  let pass min_us =
    let server = fresh_server () in
    Array.iteri
      (fun i l ->
        let t0 = Obs.Clock.now_ns () in
        ignore (ask server l);
        let dt = Obs.Clock.ns_to_us (Obs.Clock.now_ns () - t0) in
        if dt < min_us.(i) then min_us.(i) <- dt)
      est_arr
  in
  let discard = Array.make n_queries infinity in
  pass discard;
  pass discard;
  let n_passes = 11 in
  let min_us = Array.make n_queries infinity in
  for _ = 1 to n_passes do
    pass min_us
  done;
  let sum_us = Array.fold_left ( +. ) 0.0 min_us in
  let qps = float_of_int n_queries /. sum_us *. 1e6 in
  let query_us = sum_us /. float_of_int n_queries in
  Printf.printf "%d cold EST queries per pass: %8.0f queries/s (sum of minima, %d passes)\n"
    n_queries qps n_passes;
  jfield "est_queries" (string_of_int n_queries);
  jfield "est_qps" (Printf.sprintf "%.1f" qps);
  jfield "est_query_us" (Printf.sprintf "%.2f" query_us);
  (* The whole per-request telemetry sequence the dispatcher now runs:
     two counter bumps, the aggregate + per-verb histogram records, the
     response counter fetch-and-add and the threshold comparison. *)
  let m = Serve.Metrics.create () in
  let resp_ctr = Atomic.make 0 and thr = Atomic.make max_int in
  let calib_n = 1_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to calib_n do
    Serve.Metrics.incr m "requests";
    Serve.Metrics.incr m "est_requests";
    Serve.Metrics.observe_verb_ns m ~verb:"est" (i land 0xFFFF);
    let seen = Atomic.fetch_and_add resp_ctr 1 in
    if seen land 511 = 511 then incr sink;
    if i land 0xFFFF >= Atomic.get thr then incr sink
  done;
  let ns_per_request =
    (Unix.gettimeofday () -. t0) /. float_of_int calib_n *. 1e9
  in
  let overhead_pct = ns_per_request /. 1e3 /. query_us *. 100.0 in
  Printf.printf
    "telemetry bookkeeping: %.0fns/request = %.2f%% of a %.1fus cold request\n"
    ns_per_request overhead_pct query_us;
  check "telemetry overhead < 5% of a request" (overhead_pct < 5.0)
    (Printf.sprintf "%.2f%%" overhead_pct);
  jfield "telemetry_ns_per_request" (Printf.sprintf "%.1f" ns_per_request);
  jfield "telemetry_overhead_pct" (Printf.sprintf "%.2f" overhead_pct);

  (* --- (b) merged shard totals are bit-exact ------------------------------- *)
  let writers = 4 and per_writer = 200_000 in
  let sample i = i * 9_973 mod 40_000_000 in
  let tel = Obs.Telemetry.create () in
  let domains =
    List.init writers (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              Obs.Telemetry.incr tel "ops";
              Obs.Telemetry.record_ns tel "lat" (sample i)
            done))
  in
  List.iter Domain.join domains;
  let oracle = Obs.Histogram.create () in
  for _ = 1 to writers do
    for i = 1 to per_writer do
      Obs.Histogram.record oracle (sample i)
    done
  done;
  let merged = Obs.Telemetry.hist_merged tel "lat" in
  let exact =
    Obs.Telemetry.get tel "ops" = writers * per_writer
    && Obs.Histogram.count merged = Obs.Histogram.count oracle
    && Obs.Histogram.sum_ns merged = Obs.Histogram.sum_ns oracle
    && Obs.Histogram.nonzero merged = Obs.Histogram.nonzero oracle
  in
  check "merged totals bit-exact vs sequential oracle" exact
    (Printf.sprintf "%d domains x %d records, %d shards" writers per_writer
       (Obs.Telemetry.n_shards tel));
  jfield "merge_writers" (string_of_int writers);
  jfield "merge_records_per_writer" (string_of_int per_writer);
  jfield "merge_exact" (if exact then "true" else "false");

  (* --- (c) contention: sharded vs mutex-guarded recording ------------------ *)
  let contend_ops = 200_000 in
  let run_writers f =
    let t0 = Unix.gettimeofday () in
    let ds = List.init writers (fun _ -> Domain.spawn f) in
    List.iter Domain.join ds;
    float_of_int (writers * contend_ops) /. (Unix.gettimeofday () -. t0)
  in
  let mu = Mutex.create () in
  let mh = Obs.Histogram.create () in
  let mc = ref 0 in
  let mutex_ops_s =
    run_writers (fun () ->
        for i = 1 to contend_ops do
          Mutex.lock mu;
          incr mc;
          Obs.Histogram.record mh (sample i);
          Mutex.unlock mu
        done)
  in
  let tel2 = Obs.Telemetry.create () in
  let sharded_ops_s =
    run_writers (fun () ->
        for i = 1 to contend_ops do
          Obs.Telemetry.incr tel2 "ops";
          Obs.Telemetry.record_ns tel2 "lat" (sample i)
        done)
  in
  let ratio = sharded_ops_s /. mutex_ops_s in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "contention (%d writers x %d ops): mutex %8.0f ops/s | sharded %8.0f ops/s (%.2fx, %d cores)\n"
    writers contend_ops mutex_ops_s sharded_ops_s ratio host_cores;
  jfield "contention_writers" (string_of_int writers);
  jfield "contention_mutex_ops_s" (Printf.sprintf "%.0f" mutex_ops_s);
  jfield "contention_sharded_ops_s" (Printf.sprintf "%.0f" sharded_ops_s);
  jfield "contention_ratio" (Printf.sprintf "%.2f" ratio);
  jfield "host_cores" (string_of_int host_cores);
  (* Domain fan-out cannot beat a mutex on a single-core host — both
     serialize there, so the ratio is physics, not a regression.  The
     full 2x bar needs cores for all four writers. *)
  if host_cores <= 1 then begin
    Printf.printf "contention gate: skipped (single-core host)\n";
    jfield "contention_gate" "skipped_single_core"
  end
  else begin
    let floor = if host_cores >= 4 then 2.0 else 1.2 in
    jfield "contention_gate" (Printf.sprintf "enforced_%.1fx" floor);
    check
      (Printf.sprintf "sharded >= %.1fx mutex throughput" floor)
      (ratio >= floor)
      (Printf.sprintf "%.2fx on %d cores" ratio host_cores)
  end;

  (* --- (d) HEALTH / SLOWLOG end to end ------------------------------------- *)
  let server = fresh_server ~qerror_gate:50.0 () in
  let d_triples = List.filteri (fun i _ -> i < 30) triples in
  List.iter (fun tr -> ignore (ask server ("EST " ^ body tr))) d_triples;
  (* absurd ground truth: crosses the q-error gate, forcing a capture *)
  ignore (ask server (Printf.sprintf "TRUTH 1e12 %s" (body (List.hd d_triples))));
  let health = ask server "HEALTH" in
  let slowlog = ask server "SLOWLOG 5" in
  let payload_lines resp =
    match String.split_on_char '\n' resp with _ :: rest -> rest | [] -> []
  in
  let contains line sub =
    let n = String.length sub in
    let rec probe i =
      i + n <= String.length line && (String.sub line i n = sub || probe (i + 1))
    in
    probe 0
  in
  let hlines = payload_lines health and slines = payload_lines slowlog in
  check "HEALTH reports per-verb p999"
    (List.exists (fun l -> contains l "verb=est" && contains l "p999_us=") hlines)
    "";
  check "HEALTH reports SLO burn"
    (List.exists (fun l -> contains l "slo=latency" && contains l "burn=") hlines)
    "";
  check "HEALTH counts the capture"
    (List.exists (fun l -> contains l "slowlog captured=1") hlines)
    "";
  check "SLOWLOG lists the q-error capture"
    (List.exists (fun l -> contains l "reason=qerror") slines)
    "";
  check "SLOWLOG carries a replayed span tree"
    (List.exists (fun l -> contains l "span exec.run") slines)
    "";
  check "SLOWLOG replay ran on the bytecode engine"
    (not (List.exists (fun l -> contains l "span ve.") slines))
    "";
  let stats = ask server "STATS" in
  check "STATS exports program-memo counters"
    (Serve.Protocol.stats_field stats "plan.program_hits" <> None
    && Serve.Protocol.stats_field stats "plan.program_misses" <> None)
    "";
  let mresp = ask server "METRICS" in
  let _, samples =
    let nl = String.index mresp '\n' in
    Obs.Prometheus.parse (String.sub mresp (nl + 1) (String.length mresp - nl - 1))
  in
  let sample name = Obs.Prometheus.find_sample samples ~name () in
  check "Prometheus exports selest_program_memo_hits"
    (sample "selest_program_memo_hits" <> None) "";
  check "Prometheus exports per-verb latency"
    (Obs.Prometheus.find_sample samples ~name:"selest_verb_latency_us_count"
       ~labels:[ ("verb", "est") ] ()
    <> None)
    "";
  check "Prometheus exports SLO burn gauge"
    (sample "selest_slo_latency_burn" <> None) "";
  jfield "health_lines" (string_of_int (List.length hlines));
  jfield "slowlog_lines" (string_of_int (List.length slines));

  (* --- golden text: response shape, numbers stripped ----------------------- *)
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
        Buffer.add_string golden
          ("  span " ^ List.nth (String.split_on_char ' ' t) 1 ^ "\n")
      else Buffer.add_string golden ("  " ^ keys_of l ^ "\n"))
    slines;
  let oc = open_out (at_root "BENCH_telemetry_golden.txt") in
  Buffer.output_buffer oc golden;
  close_out oc;
  Printf.printf "wrote BENCH_telemetry_golden.txt\n";

  write_json "BENCH_telemetry.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "telemetry checks FAILED: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- shard-per-domain server: scaling, bit-identity, admission (BENCH_serve.json) -------- *)

(* The serving layer's contract, measured end to end over real sockets:

   (a) QPS at 1 / 2 / 4 executor domains with a matching client fleet.
       The 2→4 scaling gate (>= 1.7x) only means something with >= 4
       hardware threads; on smaller hosts it is recorded as skipped —
       honestly, with the host's core count in the JSON — rather than
       pretending a 1-core container can exhibit domain scaling.

   (b) Bit-identity: every answer served by every sharded configuration
       must equal, as a %.17g string, the transport-free single-domain
       reference for the same query.  Sharding is a throughput feature;
       it must not perturb a single bit of the estimates.

   (c) Admission control: with max_inflight=1 and one connection holding
       the slot, a second connection is answered BUSY and counted.

   (d) TCP transport: text and binary-frame answers over the TCP
       listener match the reference bit for bit.

   (e) Structure: multi-shard servers run lock-free q-error shards (the
       "zero request-path mutexes" claim as an assertable property; plan
       caches have no lock at all), and hot-reload bumps the registry
       epoch. *)

let fig_serve () =
  section "SV: shard-per-domain server — QPS, bit-identity, admission, TCP";
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let db = Lazy.force tb in
  let model = learn_prm ~budget_bytes:4_500 ~seed:cfg.seed db in
  let schema = Db.Database.schema db in
  let card t a =
    Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain
  in
  let bodies =
    Array.of_list
      (List.concat
         (List.init (card "contact" "Contype") (fun i ->
              List.init (card "patient" "Age") (fun j ->
                  Printf.sprintf
                    "c=contact, p=patient; c.patient=p; c.Contype=%d, p.Age=%d" i j))))
  in
  let est_lines = Array.map (fun b -> "EST " ^ b) bodies in
  let nq = Array.length est_lines in
  let host_cores = Domain.recommended_domain_count () in
  jfield "host_cores" (string_of_int host_cores);
  jfield "queries" (string_of_int nq);

  (* (b) reference answers: the transport-free single-domain path *)
  let ref_answers =
    let s = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
    ignore (Serve.Registry.register (Serve.Server.registry s) ~name:"default" model);
    Array.map
      (fun l ->
        let resp, _ = Serve.Server.handle_line s l in
        if Serve.Protocol.is_err resp then failwith (l ^ " -> " ^ resp);
        Serve.Protocol.payload resp)
      est_lines
  in

  (* (a) QPS per domain count, over the Unix socket, with 2 clients per
     shard; every response is also checked against the reference. *)
  let mismatches = Atomic.make 0 in
  let run_config ~domains ~rounds =
    let clients = 2 * domains in
    let socket = Filename.temp_file "selest_bench" ".sock" in
    Sys.remove socket;
    let server = Serve.Server.create ~domains ~db ~socket () in
    ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
    let thread = Thread.create Serve.Server.run server in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.shutdown server;
        Thread.join thread)
      (fun () ->
        let worker () =
          let c = Serve.Client.connect ~retries:100 ~socket () in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              for _ = 1 to rounds do
                Array.iteri
                  (fun i l ->
                    let resp = Serve.Client.request c l in
                    if Serve.Protocol.payload resp <> ref_answers.(i) then
                      Atomic.incr mismatches)
                  est_lines
              done)
        in
        let t0 = Unix.gettimeofday () in
        let ts = List.init clients (fun _ -> Thread.create worker ()) in
        List.iter Thread.join ts;
        let dt = Unix.gettimeofday () -. t0 in
        float_of_int (clients * rounds * nq) /. dt)
  in
  let rounds = if cfg.full then 8 else 2 in
  let qps1 = run_config ~domains:1 ~rounds in
  let qps2 = run_config ~domains:2 ~rounds in
  let qps4 = run_config ~domains:4 ~rounds in
  Printf.printf "QPS over Unix socket: 1 domain %.0f | 2 domains %.0f | 4 domains %.0f\n"
    qps1 qps2 qps4;
  jfield "qps_domains_1" (Printf.sprintf "%.1f" qps1);
  jfield "qps_domains_2" (Printf.sprintf "%.1f" qps2);
  jfield "qps_domains_4" (Printf.sprintf "%.1f" qps4);
  jfield "scaling_2_to_4" (Printf.sprintf "%.3f" (qps4 /. qps2));
  if host_cores >= 4 then begin
    jfield "scaling_gate" "evaluated";
    check "2→4 domain scaling >= 1.7x" (qps4 /. qps2 >= 1.7)
      (Printf.sprintf "%.2fx on %d cores" (qps4 /. qps2) host_cores)
  end
  else begin
    jfield "scaling_gate" "skipped_insufficient_cores";
    Printf.printf "scaling gate skipped: host has %d core%s (need >= 4)\n" host_cores
      (if host_cores = 1 then "" else "s")
  end;
  check "sharded answers bit-identical to reference" (Atomic.get mismatches = 0)
    (Printf.sprintf "%d mismatches over %d answers" (Atomic.get mismatches)
       ((2 + 4 + 8) * rounds * nq));
  jfield "bit_identity_mismatches" (string_of_int (Atomic.get mismatches));

  (* (c) admission control: budget of one, second connection bounced *)
  (let socket = Filename.temp_file "selest_bench" ".sock" in
   Sys.remove socket;
   let server = Serve.Server.create ~max_inflight:1 ~db ~socket () in
   ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
   let thread = Thread.create Serve.Server.run server in
   Fun.protect
     ~finally:(fun () ->
       Serve.Server.shutdown server;
       Thread.join thread)
     (fun () ->
       let c1 = Serve.Client.connect ~retries:100 ~socket () in
       Fun.protect
         ~finally:(fun () -> Serve.Client.close c1)
         (fun () ->
           let pong = Serve.Client.request c1 "PING" in
           let c2 = Serve.Client.connect ~socket () in
           let busy =
             Fun.protect
               ~finally:(fun () -> Serve.Client.close c2)
               (fun () -> Serve.Client.request c2 "PING")
           in
           let stats = Serve.Client.request c1 "STATS" in
           check "admission: slot holder served" (pong = "PONG") pong;
           check "admission: overflow answered BUSY" (Serve.Protocol.is_busy busy) busy;
           check "admission: rejection counted"
             (Serve.Protocol.stats_field stats "admission_rejected" = Some "1")
             (Option.value ~default:"-"
                (Serve.Protocol.stats_field stats "admission_rejected"));
           jfield "admission_busy" (if Serve.Protocol.is_busy busy then "ok" else "fail"))));

  (* (d) TCP transport smoke: text and binary answers vs the reference *)
  (let socket = Filename.temp_file "selest_bench" ".sock" in
   Sys.remove socket;
   let port = 21_000 + (Unix.getpid () mod 9_000) in
   let server = Serve.Server.create ~tcp:("127.0.0.1", port) ~db ~socket () in
   ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
   let thread = Thread.create Serve.Server.run server in
   Fun.protect
     ~finally:(fun () ->
       Serve.Server.shutdown server;
       Thread.join thread)
     (fun () ->
       Serve.Client.with_tcp_connection ~retries:100 ~host:"127.0.0.1" ~port (fun c ->
           let resp = Serve.Client.request c est_lines.(0) in
           check "tcp text answer bit-identical"
             (Serve.Protocol.payload resp = ref_answers.(0))
             (Serve.Protocol.payload resp));
       Serve.Client.with_tcp_connection ~retries:100 ~host:"127.0.0.1" ~port (fun c ->
           Serve.Client.upgrade c;
           match Serve.Client.est_bin c bodies.(0) with
           | Ok v ->
             check "tcp binary answer bit-identical"
               (Printf.sprintf "%.17g" v = ref_answers.(0))
               (Printf.sprintf "%.17g" v)
           | Error msg -> check "tcp binary answer bit-identical" false msg);
       jfield "tcp_smoke" "ok"));

  (* (e) structural lock-freedom + epoch publication *)
  (let s2 = Serve.Server.create ~domains:2 ~db ~socket:"(bench: structural)" () in
   check "q-error shards lock-free"
     (not (Obs.Qerror.synchronized (Serve.Server.qerror_table s2 "default")))
     "domain-local tables, merged on read";
   let e0 = Serve.Registry.Epoch.current_epoch (Serve.Server.registry s2) in
   ignore (Serve.Registry.register (Serve.Server.registry s2) ~name:"default" model);
   let e1 = Serve.Registry.Epoch.current_epoch (Serve.Server.registry s2) in
   check "registry install bumps the epoch" (e1 > e0)
     (Printf.sprintf "epoch %d -> %d" e0 e1));

  write_json "BENCH_serve.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "serve checks FAILED: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- plan regret: estimates driving a cost-based optimizer (BENCH_opt.json) -------------- *)

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
  let json = ref [] in
  let jfield name v = json := (name, v) :: !json in
  let failures = ref [] in
  let check name ok detail =
    Printf.printf "%-46s %-4s %s\n" name (if ok then "ok" else "FAIL") detail;
    if not ok then failures := name :: !failures
  in
  let budget = 4_500 in
  let max_queries = min cfg.max_queries 100 in
  let exact_for db =
    { Est.Estimator.name = "exact"; bytes = 0; prepare = ignore;
      estimate = (fun q -> true_size db q) }
  in
  let slug name =
    String.map (function '+' -> '_' | c -> Char.lowercase_ascii c) name
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
        let pre = Printf.sprintf "%s_%s" label (slug o.Regret.estimator) in
        jfield (pre ^ "_plan_matches") (string_of_int o.Regret.n_plan_matches);
        jfield (pre ^ "_n_queries") (string_of_int o.Regret.n_queries);
        jfield (pre ^ "_runtime_regret_mean")
          (Printf.sprintf "%.4f" o.Regret.runtime_regret_mean);
        jfield (pre ^ "_runtime_regret_max")
          (Printf.sprintf "%.4f" o.Regret.runtime_regret_max);
        jfield (pre ^ "_rows_regret_mean")
          (Printf.sprintf "%.4f" o.Regret.rows_regret_mean);
        jfield (pre ^ "_rows_regret_max")
          (Printf.sprintf "%.4f" o.Regret.rows_regret_max);
        jfield (pre ^ "_fallbacks") (string_of_int o.Regret.n_fallbacks))
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
  let find name =
    List.find (fun o -> o.Regret.estimator = name) tb_outcomes
  in
  let exact = find "exact" and prm = find "PRM" and avi = find "AVI" in
  check "exact oracle: runtime regret = 1.0"
    (exact.Regret.runtime_regret_mean = 1.0 && exact.Regret.runtime_regret_max = 1.0)
    (Printf.sprintf "mean %.4f max %.4f" exact.Regret.runtime_regret_mean
       exact.Regret.runtime_regret_max);
  check "exact oracle: rows regret = 1.0"
    (exact.Regret.rows_regret_mean = 1.0 && exact.Regret.rows_regret_max = 1.0)
    (Printf.sprintf "mean %.4f max %.4f" exact.Regret.rows_regret_mean
       exact.Regret.rows_regret_max);
  check "exact oracle: picks the optimal tree every time"
    (exact.Regret.n_plan_matches = exact.Regret.n_queries)
    (Printf.sprintf "%d/%d" exact.Regret.n_plan_matches exact.Regret.n_queries);
  check "PRM rows regret <= AVI rows regret (tb keyjoin suite)"
    (prm.Regret.rows_regret_mean <= avi.Regret.rows_regret_mean)
    (Printf.sprintf "%.4f vs %.4f" prm.Regret.rows_regret_mean
       avi.Regret.rows_regret_mean);
  (* EXPLAINPLAN through the transport-free server: the rendering the
     CLI and socket clients see, pinned here so the verb stays wired. *)
  let db = Lazy.force tb in
  let server = Serve.Server.create ~db ~socket:"(bench: transport-free)" () in
  ignore
    (Serve.Registry.register (Serve.Server.registry server) ~name:"default"
       (learn_prm ~budget_bytes:budget ~seed:cfg.seed db));
  let resp, _ =
    Serve.Server.handle_line server
      "EXPLAINPLAN c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
       c.Contype=1, p.Age={4,5}, s.Unique=0"
  in
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check "EXPLAINPLAN renders est vs. actual per operator"
    (Serve.Protocol.is_ok resp && has resp "est=" && has resp "actual="
     && has resp "hash_join")
    (List.hd (String.split_on_char '\n' resp));
  jfield "explainplan_ok" (if Serve.Protocol.is_ok resp then "true" else "false");
  write_json "BENCH_opt.json" (List.rev !json);
  if !failures <> [] then begin
    Printf.eprintf "opt checks FAILED: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- bechamel micro-benchmarks ------------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (inference and counting kernels)";
  let open Bechamel in
  let data = Bn.Data.of_table (Db.Database.table (Lazy.force census) "person") in
  let tree_bn =
    (Bn.Learn.learn ~config:(Bn.Learn.default_config ~budget_bytes:4_096) data).Bn.Learn.bn
  in
  let table_bn =
    (Bn.Learn.learn
       ~config:
         { (Bn.Learn.default_config ~budget_bytes:4_096) with Bn.Learn.kind = Bn.Cpd.Tables }
       data).Bn.Learn.bn
  in
  let q = [ (10, Db.Query.Eq 7); (2, Db.Query.Eq 9) ] in
  let prm_model = lazy (learn_prm ~budget_bytes:4_096 ~seed:cfg.seed (Lazy.force tb)) in
  let tb_db = Lazy.force tb in
  let sizes = Prm.Estimate.sizes_of_db tb_db in
  let join_q =
    Db.Query.with_selects tb_skeleton3
      [ Db.Query.eq "p" "USBorn" 1; Db.Query.eq "c" "Contype" 0 ]
  in
  let tests =
    [
      Test.make ~name:"bn-ve-tree-cpds (select query)" (Staged.stage (fun () ->
          ignore (Bn.Bn.prob_of tree_bn q)));
      Test.make ~name:"bn-ve-table-cpds (select query)" (Staged.stage (fun () ->
          ignore (Bn.Bn.prob_of table_bn q)));
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

let () =
  Printf.printf "selest bench | %s scale | seed %d | census rows %d\n"
    (if cfg.full then "paper (--full)" else "quick")
    cfg.seed census_rows;
  let total_t0 = Unix.gettimeofday () in
  if wants "sanity" then fig_sanity ();
  if wants "4a" then fig4a ();
  if wants "4b" then fig4b ();
  if wants "4c" then fig4c ();
  if wants "5a" then fig5a ();
  if wants "5b" then fig5b ();
  if wants "5c" then fig5c ();
  if wants "6a" then fig6a ();
  if wants "6b" then fig6b ();
  if wants "6c" then fig6c ();
  if wants "7a" then fig7a ();
  if wants "7b" then fig7b ();
  if wants "7c" then fig7c ();
  if wants "range" then fig_range ();
  if wants "structure" then fig_structure ();
  if wants "ablation-score" then ablation_score ();
  if wants "ablation-join" then ablation_join ();
  if wants "serve-cache" then fig_serve_cache ();
  if wants "inference" then fig_inference ();
  if wants "plan" then fig_plan ();
  if wants "learn" then fig_learn ();
  if wants "obs" then fig_obs ();
  if wants "opt" then fig_opt ();
  if wants "exec" then fig_exec ();
  if wants "frontend" then fig_frontend ();
  if wants "telemetry" then fig_telemetry ();
  if wants "serve" then fig_serve ();
  if wants "bechamel" then bechamel_suite ();
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. total_t0)
