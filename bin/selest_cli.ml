(* selest: command-line interface to the selectivity-estimation library.

   Subcommands: gen, inspect, learn, estimate, compare, plan, optimize,
   sample, serve, ask.  Run `selest <cmd> --help` for details. *)

open Cmdliner
open Selest

(* ---- shared options ------------------------------------------------------ *)

let dataset_conv = Arg.enum [ ("census", `Census); ("tb", `Tb); ("fin", `Fin) ]

let dataset_arg =
  Arg.(
    value
    & opt dataset_conv `Census
    & info [ "d"; "dataset" ] ~docv:"NAME" ~doc:"Dataset: census, tb or fin.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let scale_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"X"
        ~doc:"Scale factor on the dataset's paper-default row counts.")

let from_dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "from-dir" ] ~docv:"DIR"
        ~doc:"Load the dataset's tables from CSVs in $(docv) instead of generating.")

let budget_arg =
  Arg.(
    value
    & opt int 4096
    & info [ "b"; "budget" ] ~docv:"BYTES" ~doc:"Model storage budget in bytes.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-log" ] ~docv:"FILE"
        ~doc:
          "Append structured JSONL trace records to $(docv): one JSON object \
           per closed span (name, parent, depth, start/end ns, duration, \
           attributes), covering the request path, PRM inference and \
           variable elimination.")

let setup_trace trace = Option.iter Obs.Trace_log.install trace

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log learner progress to stderr.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let scaled x f = max 1 (int_of_float (float_of_int x *. f))

let make_db dataset ~scale ~seed ~from_dir =
  let schema =
    match dataset with
    | `Census -> Synth.Census.schema
    | `Tb -> Synth.Tb.schema
    | `Fin -> Synth.Financial.schema
  in
  match from_dir with
  | Some dir -> Db.Csv.load_database schema ~dir
  | None -> (
    match dataset with
    | `Census ->
      Synth.Census.generate ~rows:(scaled Synth.Census.default_rows scale) ~seed ()
    | `Tb ->
      Synth.Tb.generate
        ~patients:(scaled Synth.Tb.default_patients scale)
        ~contacts:(scaled Synth.Tb.default_contacts scale)
        ~strains:(scaled Synth.Tb.default_strains scale)
        ~seed ()
    | `Fin ->
      Synth.Financial.generate
        ~districts:(scaled Synth.Financial.default_districts scale)
        ~accounts:(scaled Synth.Financial.default_accounts scale)
        ~transactions:(scaled Synth.Financial.default_transactions scale)
        ~seed ())

(* ---- gen ------------------------------------------------------------------ *)

let gen_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory for the CSV files.")
  in
  let run dataset seed scale out =
    let db = make_db dataset ~scale ~seed ~from_dir:None in
    Db.Csv.save_database db ~dir:out;
    Format.printf "%a" Db.Database.pp_summary db;
    Printf.printf "written to %s\n" out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic dataset and write it as CSV files.")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg $ out)

(* ---- inspect ---------------------------------------------------------------- *)

let inspect_cmd =
  let run dataset seed scale from_dir =
    let db = make_db dataset ~scale ~seed ~from_dir in
    Format.printf "%a" Db.Database.pp_summary db;
    Format.printf "%a" Db.Schema.pp (Db.Database.schema db);
    Format.printf "%a" Db.Integrity.pp_report (Db.Integrity.audit db)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print schema, sizes, integrity and join-fanout statistics.")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg)

(* ---- learn ------------------------------------------------------------------- *)

let kind_arg =
  Arg.(
    value
    & opt (enum [ ("tree", Bn.Cpd.Trees); ("table", Bn.Cpd.Tables) ]) Bn.Cpd.Trees
    & info [ "cpd" ] ~docv:"KIND" ~doc:"CPD representation: tree or table.")

let rule_arg =
  Arg.(
    value
    & opt
        (enum [ ("ssn", Prm.Learn.Ssn); ("mdl", Prm.Learn.Mdl); ("naive", Prm.Learn.Naive) ])
        Prm.Learn.Ssn
    & info [ "rule" ] ~docv:"RULE" ~doc:"Move-selection rule: ssn, mdl or naive.")

let bn_uj_arg =
  Arg.(
    value & flag
    & info [ "bn-uj" ]
        ~doc:"Restrict to per-table BNs + uniform join (the BN+UJ baseline).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Write the learned model to $(docv).")

let learn_cmd =
  let run dataset seed scale from_dir budget kind rule bn_uj save verbose =
    setup_logs verbose;
    let db = make_db dataset ~scale ~seed ~from_dir in
    let base =
      if bn_uj then Prm.Learn.bn_uj_config ~budget_bytes:budget
      else Prm.Learn.default_config ~budget_bytes:budget
    in
    let cfg = { base with Prm.Learn.kind; rule; seed } in
    let t0 = Unix.gettimeofday () in
    let r = Prm.Learn.learn ~config:cfg db in
    Printf.printf "learned in %.2fs: %d bytes, %d accepted moves\n\n"
      (Unix.gettimeofday () -. t0)
      r.Prm.Learn.bytes r.Prm.Learn.iterations;
    Format.printf "%a" Prm.Model.pp r.Prm.Learn.model;
    match save with
    | Some path ->
      Prm.Serialize.save path r.Prm.Learn.model;
      Printf.printf "saved to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Learn a PRM from a dataset under a storage budget and print it.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ kind_arg $ rule_arg $ bn_uj_arg $ save_arg $ verbose_arg)

(* ---- estimate ------------------------------------------------------------------ *)

let estimate_cmd =
  let tv_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "t"; "tv" ] ~docv:"TV=TABLE"
          ~doc:"Tuple variable binding, e.g. p=patient (repeatable).")
  in
  let join_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "j"; "join" ] ~docv:"C.FK=P"
          ~doc:"Keyjoin clause, e.g. c.patient=p (repeatable).")
  in
  let select_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "s"; "select" ] ~docv:"TV.ATTR=V"
          ~doc:
            "Selection, e.g. p.USBorn=yes, p.Age=1..3 or c.Contype={household,roommate} \
             (repeatable).")
  in
  let truth_arg =
    Arg.(value & flag & info [ "truth" ] ~doc:"Also compute the exact size (scans the data).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the compiled plan: upward closure, query-evaluation factors, \
             evidence slots and elimination schedules.")
  in
  let model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Load a previously saved model instead of learning one.")
  in
  let sql_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"QUERY"
          ~doc:
            "A SELECT COUNT(*) query, e.g. \"SELECT COUNT(*) FROM contact c JOIN \
             patient p ON c.patient = p.id WHERE p.USBorn = 'yes'\".  Replaces \
             --tv/--join/--select.")
  in
  let run dataset seed scale from_dir budget tvs joins selects truth explain model_file sql
      trace =
    setup_trace trace;
    let db = make_db dataset ~scale ~seed ~from_dir in
    let q =
      match sql with
      | Some text -> Db.Sql.parse db text
      | None ->
        if tvs = [] then failwith "estimate: need --sql or at least one --tv";
        Db.Qparse.parse db ~tvars:tvs ~joins ~selects ()
    in
    Format.printf "query: %a@." Db.Query.pp q;
    let model =
      match model_file with
      | Some path -> Prm.Serialize.load path ~schema:(Db.Database.schema db)
      | None -> learn_prm ~budget_bytes:budget ~seed db
    in
    if explain then begin
      let plan = Plan.compile model q in
      Format.printf "closure: %a@." Db.Query.pp (Plan.upward_closure plan q);
      Format.printf "%a" Plan.pp plan
    end;
    Printf.printf "estimate: %.1f\n" (estimate model db q);
    if truth then Printf.printf "truth:    %.0f\n" (true_size db q);
    Obs.Trace_log.close ()
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Learn a PRM and estimate the result size of one query.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ tv_arg $ join_arg $ select_arg $ truth_arg $ explain_arg $ model_arg $ sql_arg
      $ trace_arg)

(* ---- compare -------------------------------------------------------------------- *)

let compare_cmd =
  let attrs_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "attrs" ] ~docv:"A,B,..."
          ~doc:"Comma-separated attributes of the (single-table) suite.")
  in
  let table_arg =
    Arg.(
      value
      & opt string "person"
      & info [ "table" ] ~docv:"TABLE" ~doc:"Table the suite selects from.")
  in
  let max_q_arg =
    Arg.(
      value
      & opt int 20_000
      & info [ "max-queries" ] ~docv:"N" ~doc:"Subsample cap on suite instantiations.")
  in
  let run dataset seed scale from_dir budget attrs table max_queries =
    let db = make_db dataset ~scale ~seed ~from_dir in
    let attrs = String.split_on_char ',' attrs |> List.map String.trim in
    let suite =
      Workload.Suite.single_table ~name:(String.concat "," attrs) ~table ~attrs
    in
    let pairs = List.map (fun a -> (table, a)) attrs in
    let estimators =
      [
        Est.Avi.build ~attrs:pairs db;
        Est.Mhist.build ~table ~attrs ~budget_bytes:budget db;
        Est.Wavelet.build ~table ~attrs ~budget_bytes:budget db;
        Est.Sample.build
          ~rows:(max 1 (budget / (4 * List.length attrs)))
          ~seed ~attrs:pairs db;
        Est.Bn_est.build ~table ~attrs ~budget_bytes:budget ~seed db;
      ]
    in
    let outcomes = Workload.Runner.run_all db suite estimators ~max_queries ~seed () in
    Workload.Report.print (Workload.Report.outcomes_table outcomes)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare AVI, MHIST, SAMPLE and the BN estimator at equal storage on an \
          all-instantiations equality-query suite.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ attrs_arg $ table_arg $ max_q_arg)

(* ---- plan ----------------------------------------------------------------------- *)

let plan_cmd =
  let tv_arg =
    Arg.(
      value & opt_all string []
      & info [ "t"; "tv" ] ~docv:"TV=TABLE" ~doc:"Tuple variable binding (repeatable).")
  in
  let join_arg =
    Arg.(
      value & opt_all string []
      & info [ "j"; "join" ] ~docv:"C.FK=P" ~doc:"Keyjoin clause (repeatable).")
  in
  let select_arg =
    Arg.(
      value & opt_all string []
      & info [ "s"; "select" ] ~docv:"TV.ATTR=V" ~doc:"Selection (repeatable).")
  in
  let sql_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"QUERY" ~doc:"A SELECT COUNT(*) query (replaces --tv/--join/--select).")
  in
  let run dataset seed scale from_dir budget tvs joins selects sql =
    let db = make_db dataset ~scale ~seed ~from_dir in
    let q =
      match sql with
      | Some text -> Db.Sql.parse db text
      | None -> Db.Qparse.parse db ~tvars:tvs ~joins ~selects ()
    in
    let model = learn_prm ~budget_bytes:budget ~seed db in
    let prm_oracle =
      Prm.Estimate.cached_estimator model ~sizes:(Prm.Estimate.sizes_of_db db)
    in
    let truth qq = true_size db qq in
    Format.printf "query: %a@.@." Db.Query.pp q;
    print_endline "plan (left-deep order)            |    PRM cost |   true cost";
    List.iter
      (fun plan ->
        Printf.printf "%-34s| %11.0f | %11.0f\n" (String.concat " > " plan)
          (Opt.Optimizer.order_cost ~cost:prm_oracle q plan)
          (Opt.Optimizer.order_cost ~cost:truth q plan))
      (Opt.Jointree.orders q);
    let best = Opt.Optimizer.best ~cost:prm_oracle q in
    Printf.printf "\nchosen: %s (estimated cost %.0f)\n"
      (String.concat " > " (Option.get (Opt.Jointree.order_of best.Opt.Optimizer.tree)))
      best.Opt.Optimizer.cost
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Rank left-deep join orders of a query by PRM-estimated cost.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ tv_arg $ join_arg $ select_arg $ sql_arg)

(* ---- optimize ------------------------------------------------------------------- *)

let optimize_cmd =
  let tv_arg =
    Arg.(
      value & opt_all string []
      & info [ "t"; "tv" ] ~docv:"TV=TABLE" ~doc:"Tuple variable binding (repeatable).")
  in
  let join_arg =
    Arg.(
      value & opt_all string []
      & info [ "j"; "join" ] ~docv:"C.FK=P" ~doc:"Keyjoin clause (repeatable).")
  in
  let select_arg =
    Arg.(
      value & opt_all string []
      & info [ "s"; "select" ] ~docv:"TV.ATTR=V" ~doc:"Selection (repeatable).")
  in
  let sql_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"QUERY" ~doc:"A SELECT COUNT(*) query (replaces --tv/--join/--select).")
  in
  let bushy_arg =
    Arg.(
      value & flag
      & info [ "bushy" ] ~doc:"Search bushy join trees, not just left-deep orders.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Also print every left-deep order's PRM-estimated vs. true C_out \
             and their rank correlation.")
  in
  let model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Load a previously saved model instead of learning one.")
  in
  let run dataset seed scale from_dir budget tvs joins selects sql bushy explain
      model_file =
    let db = make_db dataset ~scale ~seed ~from_dir in
    let q =
      match sql with
      | Some text -> Db.Sql.parse db text
      | None -> Db.Qparse.parse db ~tvars:tvs ~joins ~selects ()
    in
    let model =
      match model_file with
      | Some path -> Prm.Serialize.load path ~schema:(Db.Database.schema db)
      | None -> learn_prm ~budget_bytes:budget ~seed db
    in
    let prm_oracle =
      Prm.Estimate.cached_estimator model ~sizes:(Prm.Estimate.sizes_of_db db)
    in
    let fallback = Opt.Optimizer.independence db in
    let price sub =
      try prm_oracle sub with Est.Estimator.Unsupported _ -> fallback sub
    in
    Format.printf "query: %a@.@." Db.Query.pp q;
    let chosen = Opt.Optimizer.best ~bushy ~fallback ~cost:prm_oracle q in
    Format.printf "chosen tree: %a  (estimated C_out %.0f%s)@.@." Opt.Jointree.pp
      chosen.Opt.Optimizer.tree chosen.Opt.Optimizer.cost
      (if chosen.Opt.Optimizer.n_fallbacks > 0 then
         Printf.sprintf ", %d sub-queries priced by the AVI fallback"
           chosen.Opt.Optimizer.n_fallbacks
       else "");
    let result = Opt.Hashjoin.run db q chosen.Opt.Optimizer.tree in
    print_string (Opt.Explain.render ~est:price q result);
    print_endline
      (Opt.Explain.summary_line ~cost_est:chosen.Opt.Optimizer.cost result);
    if explain then begin
      let orders = Opt.Jointree.orders q in
      let est_costs = List.map (fun o -> Opt.Optimizer.order_cost ~cost:price q o) orders in
      let true_costs =
        List.map (fun o -> Opt.Optimizer.order_cost ~cost:(true_size db) q o) orders
      in
      print_newline ();
      print_endline "left-deep order                   |    est cost |   true cost";
      List.iter2
        (fun o (ec, tc) ->
          Printf.printf "%-34s| %11.0f | %11.0f\n" (String.concat " > " o) ec tc)
        orders
        (List.combine est_costs true_costs);
      Printf.printf "\nrank correlation (est vs. true): %.3f\n"
        (Opt.Optimizer.rank_correlation true_costs est_costs)
    end
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Pick the C_out-minimal join tree under PRM estimates, execute it with \
          the materializing hash-join executor, and render estimated vs. actual \
          rows per operator.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ tv_arg $ join_arg $ select_arg $ sql_arg $ bushy_arg $ explain_arg
      $ model_arg)

(* ---- sample --------------------------------------------------------------------- *)

let sample_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory for the synthetic CSVs.")
  in
  let run dataset seed scale from_dir budget out =
    let db = make_db dataset ~scale ~seed ~from_dir in
    let model = learn_prm ~budget_bytes:budget ~seed db in
    let rng = Util.Rng.create (seed lxor 0x5A) in
    let synthetic =
      Prm.Sample.database rng model ~sizes:(Prm.Estimate.sizes_of_db db)
    in
    Db.Csv.save_database synthetic ~dir:out;
    Format.printf "%a" Db.Database.pp_summary synthetic;
    Printf.printf
      "synthetic database (sampled from a %dB model, not from the data) written to %s\n"
      (Prm.Model.size_bytes model) out
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Learn a PRM and emit a synthetic database sampled from it (model-based \
          synthetic data).")
    Term.(const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg $ out)

(* ---- serve ---------------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

(* HOST:PORT pairs for the TCP listener/client. *)
let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
      | _ -> Error (`Msg "expected HOST:PORT with PORT in 1..65535"))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let serve_cmd =
  let cache_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "cache-bytes" ] ~docv:"BYTES" ~doc:"Estimate-cache capacity in bytes.")
  in
  let model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Load $(docv) into the registry as \"default\" before serving.")
  in
  let learn_arg =
    Arg.(
      value & flag
      & info [ "learn" ]
          ~doc:"Learn a PRM from the dataset at start-up and register it as \"default\".")
  in
  let slow_quantile_arg =
    Arg.(
      value & opt float 0.99
      & info [ "slow-quantile" ] ~docv:"Q"
          ~doc:
            "Latency quantile that sets the slow-log capture threshold: requests \
             slower than this quantile of the live latency histogram are captured \
             with their span tree.")
  in
  let qerror_gate_arg =
    Arg.(
      value & opt float 100.0
      & info [ "qerror-gate" ] ~docv:"Q"
          ~doc:"Capture any TRUTH whose q-error reaches $(docv) into the slow-log.")
  in
  let slo_p99_arg =
    Arg.(
      value & opt float 10_000.0
      & info [ "slo-p99-us" ] ~docv:"US"
          ~doc:"Declared p99 latency SLO target in microseconds (HEALTH burn rate).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Executor shards: one domain per shard, each owning a disjoint set of \
             connections with its own estimate and plan caches (lock-free request \
             path when $(docv) > 1).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Also listen on a TCP endpoint (the Unix socket stays bound).")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission budget: live connections per shard.  When every shard is \
             full, new connections are answered BUSY and closed.")
  in
  let backlog_arg =
    Arg.(
      value & opt int 128
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog for both the Unix-socket and TCP listeners.")
  in
  let run dataset seed scale from_dir budget socket cache_bytes model_file
      learn slow_quantile qerror_gate slo_p99_us domains tcp max_inflight backlog
      verbose trace =
    setup_logs verbose;
    setup_trace trace;
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
    let db = make_db dataset ~scale ~seed ~from_dir in
    let server =
      Serve.Server.create ~cache_bytes ~slow_quantile ~qerror_gate
        ~slo_p99_us ~domains ?tcp ~max_inflight ~backlog ~db ~socket ()
    in
    (match model_file with
    | Some path ->
      let e = Serve.Registry.load (Serve.Server.registry server) ~name:"default" ~path in
      Printf.printf "loaded default model version %d from %s\n%!" e.Serve.Registry.version path
    | None -> ());
    if learn then begin
      let model = learn_prm ~budget_bytes:budget ~seed db in
      ignore (Serve.Registry.register (Serve.Server.registry server) ~name:"default" model);
      Printf.printf "learned default model (%d bytes)\n%!" (Prm.Model.size_bytes model)
    end;
    Printf.printf "serving on %s%s (schema %s, %d domain%s)\n%!" socket
      (match tcp with
      | None -> ""
      | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p)
      (Serve.Registry.schema_fingerprint (Serve.Server.registry server))
      domains
      (if domains = 1 then "" else "s");
    Serve.Server.run server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived estimation service on a Unix-domain socket (and \
          optionally TCP via --tcp).  Speaks a line protocol: PING, LOAD <name> \
          <path>, EST [@model] <query>, ESTBATCH [@model] <query> || <query> || \
          ..., EXPLAIN [@model] <query>, TRUTH [@model] <n> <query>, METRICS, \
          STATS, HEALTH, SHARDS, SLOWLOG [<count>], SHUTDOWN.  With --domains N \
          the server runs N executor shards, each with domain-local caches; when \
          every shard is at --max-inflight connections, new connections get one \
          BUSY line.")
    Term.(
      const run $ dataset_arg $ seed_arg $ scale_arg $ from_dir_arg $ budget_arg
      $ socket_arg $ cache_arg $ model_arg $ learn_arg
      $ slow_quantile_arg $ qerror_gate_arg $ slo_p99_arg $ domains_arg $ tcp_arg
      $ max_inflight_arg $ backlog_arg $ verbose_arg $ trace_arg)

(* ---- ask ------------------------------------------------------------------------- *)

(* Client commands reach the server over either transport: --socket PATH
   (Unix domain) or --tcp HOST:PORT. *)

let client_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the server.")

let client_tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"TCP endpoint of the server (alternative to --socket).")

let endpoint_name socket tcp =
  match (socket, tcp) with
  | Some s, _ -> s
  | None, Some (h, p) -> Printf.sprintf "%s:%d" h p
  | None, None -> "<no endpoint>"

let with_client ~cmd ~socket ~tcp ~retries f =
  match (socket, tcp) with
  | Some s, _ -> Serve.Client.with_connection ~retries ~socket:s f
  | None, Some (host, port) ->
    Serve.Client.with_tcp_connection ~retries ~host ~port f
  | None, None ->
    Printf.eprintf "%s: need --socket PATH or --tcp HOST:PORT\n" cmd;
    exit 1

let ask_cmd =
  let words_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"WORDS"
          ~doc:
            "The request, e.g. PING, STATS, or EST \"c=contact,p=patient; \
             c.patient=p; p.USBorn=yes\".")
  in
  let retries_arg =
    Arg.(
      value & opt int 40
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Connection attempts (exponential backoff, 10ms doubling capped at \
             640ms) while the server starts up.")
  in
  let bin_arg =
    Arg.(
      value & flag
      & info [ "bin" ]
          ~doc:
            "Speak the length-prefixed binary frame protocol instead of text: \
             upgrade the connection with the BIN hello, send the request as one \
             binary frame, print the decoded reply.  EST and ESTBATCH only.")
  in
  (* Binary mode reuses the text parser for the command line itself, then
     ships the query bodies as one binary frame; replies are printed in
     the text protocol's OK/ERR shape so scripts can treat both modes
     alike. *)
  let run_bin c line =
    match Serve.Protocol.parse_request line with
    | Ok (Serve.Protocol.Est { model; body }) -> (
      Serve.Client.upgrade c;
      match Serve.Client.est_bin c ?model body with
      | Ok v ->
        print_endline (Serve.Protocol.ok (Printf.sprintf "%.17g" v));
        `Ok
      | Error msg ->
        print_endline (Serve.Protocol.err msg);
        `Err)
    | Ok (Serve.Protocol.Estbatch { model; bodies }) -> (
      Serve.Client.upgrade c;
      match Serve.Client.estbatch_bin c ?model bodies with
      | Ok vs ->
        print_endline
          (Serve.Protocol.ok
             (String.concat " " (List.map (Printf.sprintf "%.17g") vs)));
        `Ok
      | Error msg ->
        print_endline (Serve.Protocol.err msg);
        `Err)
    | Ok _ ->
      print_endline (Serve.Protocol.err "--bin supports EST and ESTBATCH only");
      `Err
    | Error msg ->
      print_endline (Serve.Protocol.err msg);
      `Err
  in
  let run socket tcp retries bin words =
    let line = String.concat " " words in
    if bin then (
      match with_client ~cmd:"ask" ~socket ~tcp ~retries (fun c -> run_bin c line) with
      | `Ok -> ()
      | `Err -> exit 1
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "ask: cannot reach server at %s: %s\n"
          (endpoint_name socket tcp) (Unix.error_message e);
        exit 1)
    else
      match
        with_client ~cmd:"ask" ~socket ~tcp ~retries (fun c ->
            Serve.Client.request c line)
      with
      | response ->
          print_endline response;
          if Serve.Protocol.is_err response then exit 1
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "ask: cannot reach server at %s: %s\n"
            (endpoint_name socket tcp) (Unix.error_message e);
          exit 1
  in
  Cmd.v
    (Cmd.info "ask"
       ~doc:"Send one request line to a running estimation service and print the reply.")
    Term.(const run $ client_socket_arg $ client_tcp_arg $ retries_arg $ bin_arg $ words_arg)

(* ---- health / slowlog ------------------------------------------------------------ *)

(* Thin verbs over the text protocol — `ask` can send the same lines,
   but these give the two operator surfaces first-class commands. *)

let client_retries_arg =
  Arg.(
    value & opt int 40
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Connection attempts (exponential backoff, 10ms doubling capped at \
           640ms) while the server starts up.")

let send_and_print ~cmd ~socket ~tcp ~retries line =
  match
    with_client ~cmd ~socket ~tcp ~retries (fun c -> Serve.Client.request c line)
  with
  | response ->
    print_endline response;
    if Serve.Protocol.is_err response then exit 1
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "%s: cannot reach server at %s: %s\n" cmd
      (endpoint_name socket tcp) (Unix.error_message e);
    exit 1

let health_cmd =
  let run socket tcp retries =
    send_and_print ~cmd:"health" ~socket ~tcp ~retries "HEALTH"
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Print a running service's SLO report: per-verb latency quantiles \
          (p50/p95/p99/p999), error-budget burn against the declared latency and \
          q-error SLOs, cache hit rates, per-shard state, per-model accuracy and \
          slow-log state.")
    Term.(const run $ client_socket_arg $ client_tcp_arg $ client_retries_arg)

let slowlog_cmd =
  let n_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"COUNT" ~doc:"Newest $(docv) entries (default 10).")
  in
  let run socket tcp retries n =
    let line =
      match n with Some n -> Printf.sprintf "SLOWLOG %d" n | None -> "SLOWLOG"
    in
    send_and_print ~cmd:"slowlog" ~socket ~tcp ~retries line
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "Dump a running service's tail-sampled slow-log: requests over the \
          latency threshold or TRUTHs over the q-error gate, each with its \
          canonical query and captured span tree.")
    Term.(const run $ client_socket_arg $ client_tcp_arg $ client_retries_arg $ n_arg)

(* ---- main ------------------------------------------------------------------------ *)

let () =
  let doc = "selectivity estimation with probabilistic models (SIGMOD 2001)" in
  let info = Cmd.info "selest" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; inspect_cmd; learn_cmd; estimate_cmd; compare_cmd; plan_cmd;
            optimize_cmd; sample_cmd; serve_cmd; ask_cmd; health_cmd; slowlog_cmd;
          ]))
