(* Served-estimate benchmark: one single-threaded client process drives a
   spawned [selest serve -d tb --learn] over its Unix socket.

     perfbench/run.sh --workload tb_hot|tb_miss|tb_reload|all
                      --seed N --seconds S --trace 0|1

   Prints every metric with its unit and sample counts, then, as the
   last line of standard output, one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   See perfbench/NOTES.md for the method. *)

open Selest
module W = Perfbench.Workloads
module Catalog = Perfbench.Catalog
module Arrayx = Util.Arrayx
module Server = Serve.Server

let work_dir = ".perfbench"
let now_ns = Client.now_ns

(* The spawned server runs with [selest serve]'s defaults: data seed 1,
   scale 1, a 4096-byte model budget, one shard, a 1 MiB estimate cache.
   The in-process reference must use the same values. *)
let data_seed = 1
let budget_bytes = 4096

let setup_reps = 5  (* spawns per untraced run; setup_s is their median *)

(* Timings are read in the host's current speed: each is scaled by
   [nominal_calib_ns] / the client's calibration time around it
   ([Client.calibrate]), i.e. to what it would read on a host where the
   calibration loop takes 0.2 ms.  A change to selest moves the timing
   and not the calibration, so it moves the figure. *)
let nominal_calib_ns = 200_000.0

let to_nominal ~calib_ns t = t *. nominal_calib_ns /. calib_ns
let median_int a = Arrayx.median (Array.map float_of_int a)
let percentile_int a q = Arrayx.percentile (Array.map float_of_int a) (100.0 *. q)

let replay_blocks = 6  (* timed blocks replayed in-process by a traced run *)

(* ---- reference model and answers ------------------------------------------ *)

type reference = {
  db : Db.Database.t;
  model : Prm.Model.t;
  model_file : string;
  generate_s : float;
  learn_s : float;
}

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let reference ~reps =
  let runs = List.init reps (fun _ -> timed (fun () -> Synth.Tb.generate ~seed:data_seed ())) in
  let db = fst (List.hd runs) in
  let generate_s = Arrayx.median (Array.of_list (List.map snd runs)) in
  let runs = List.init reps (fun _ -> timed (fun () -> learn_prm ~budget_bytes ~seed:data_seed db)) in
  let model = fst (List.hd runs) in
  let learn_s = Arrayx.median (Array.of_list (List.map snd runs)) in
  let model_file = Filename.concat (Sys.getcwd ()) (Printf.sprintf "%s/model-%d.prm" work_dir (Unix.getpid ())) in
  Prm.Serialize.save model_file model;
  { db; model; model_file; generate_s; learn_s }

type prepared = {
  spec : W.spec;
  lines : string array;  (** distinct "EST <body>\n" request lines *)
  idx : int array;  (** line of each estimate, warm-up first *)
  expected0 : string array;  (** replies before the first LOAD *)
  expected1 : string array;  (** replies after a LOAD (tb_reload) *)
  load_bytes : int;
  eval_lines : string array;
  eval_expected : string array;
  eval_truth : float array;
  n_warm : int;
  n_timed : int;
  blocks : int;
}

let est_line body = "EST " ^ body ^ "\n"
let strip s = String.sub s 0 (String.length s - 1)

let prepare r spec ~seed ~seconds =
  let blocks = max 3 (int_of_float (Float.round (float_of_int seconds *. spec.W.blocks_per_s))) in
  let n_warm = spec.W.warmup_blocks * spec.W.block and n_timed = blocks * spec.W.block in
  let bodies, idx = W.stream spec ~seed ~n:(n_warm + n_timed) in
  let lines = Array.map est_line bodies in
  let srv = Server.create ~db:r.db ~socket:(work_dir ^ "/reference.sock") () in
  ignore (Serve.Registry.register (Server.registry srv) ~name:"default" r.model);
  let answer line =
    let reply, _ = Server.handle_line srv (strip line) in
    if not (String.starts_with ~prefix:"OK " reply) then
      failwith (Printf.sprintf "reference server rejected %S: %s" line reply);
    reply ^ "\n"
  in
  let expected0 = Array.map answer lines in
  let expected1, load_bytes =
    if spec.W.reload then begin
      let reply, _ = Server.handle_line srv ("LOAD default " ^ r.model_file) in
      match Scanf.sscanf_opt reply "OK loaded default version 2 bytes %d%!" Fun.id with
      | Some b -> (Array.map answer lines, b)
      | None -> failwith ("reference LOAD: " ^ reply)
    end
    else (expected0, 0)
  in
  let eval_bodies = W.eval_bodies spec in
  let eval_lines = Array.map est_line eval_bodies in
  let symtab = Db.Squery.Symtab.of_schema (Db.Database.schema r.db) in
  let truth body =
    let sq = Db.Squery.create symtab in
    Db.Squery.parse sq (Bytes.of_string body) ~off:0 ~len:(String.length body);
    Db.Squery.canon sq;
    Db.Exec.query_size r.db (Db.Squery.to_query sq)
  in
  {
    spec;
    lines;
    idx;
    expected0;
    expected1;
    load_bytes;
    eval_lines;
    eval_expected = Array.map answer eval_lines;
    eval_truth = Array.map truth eval_bodies;
    n_warm;
    n_timed;
    blocks;
  }

let load_reply p ~loads = Printf.sprintf "OK loaded default version %d bytes %d\n" (1 + loads) p.load_bytes

(* ---- the served run ---------------------------------------------------------- *)

(* The timed loop: lock-step EST, nothing but a byte comparison with the
   precomputed reply per request.  Allocation-free. *)
let run_block (c : Client.conn) p expected ~from ~count lat ~lat_off =
  let failed = ref 0 in
  for i = from to from + count - 1 do
    let j = Array.unsafe_get p.idx i in
    let t0 = now_ns () in
    Client.write_all c.Client.fd (Array.unsafe_get p.lines j);
    Client.next_line c;
    let t1 = now_ns () in
    Array.unsafe_set lat (lat_off + i - from) (t1 - t0);
    if not (Client.line_is c (Array.unsafe_get expected j)) then incr failed
  done;
  !failed

let parse_stats reply =
  if not (String.starts_with ~prefix:"OK " reply) then failwith ("STATS: " ^ reply);
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> (
        match int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)) with
        | Some v -> Some (String.sub kv 0 i, v)
        | None -> None)
      | None -> None)
    (String.split_on_char ' ' reply)

let stat s k = Option.value ~default:0 (List.assoc_opt k s)

type served = {
  setup_s : float array;  (** raw, per spawn *)
  setup_calib_ns : float array;  (** calibration around each spawn *)
  lat : int array;  (** timed EST round trips, ns *)
  block_ns : int array;
  block_cpu_ns : int array;  (** server CPU time of each timed block *)
  block_calib_ns : float array;  (** calibration around each timed block *)
  rss_kb : int;
  qerrors : float array;
  attempted : int;
  failed : int;
  s0 : (string * int) list;  (** STATS at the first PONG *)
  s1 : (string * int) list;  (** after warm-up *)
  s2 : (string * int) list;  (** after the timed phase *)
  timed_loads : int;
  control_ns : int list;  (** LOAD and METRICS round trips *)
  client_words : float;  (** words the client allocated inside its timed loops *)
}

let serve ~exe r p ~spawns =
  let block = p.spec.W.block in
  let setup_s = Array.make spawns 0.0 and setup_calib_ns = Array.make spawns 0.0 in
  let rec spawn k =
    let sock = Printf.sprintf "%s/%d-%d.sock" work_dir (Unix.getpid ()) k in
    let log = Printf.sprintf "%s/serve-%d-%d.log" work_dir (Unix.getpid ()) k in
    let calib0 = Client.calibrate () in
    let t0 = now_ns () in
    let srv = Client.spawn ~exe ~sock ~log in
    let t_ready, c = Client.wait_ready srv in
    setup_s.(k) <- float_of_int (t_ready - t0) /. 1e9;
    setup_calib_ns.(k) <- float_of_int (calib0 + Client.calibrate ()) /. 2.0;
    Sys.remove log;
    if k + 1 < spawns then (Client.shutdown srv c; spawn (k + 1)) else (srv, c)
  in
  let srv, c = spawn 0 in
  let ctl =
    match Client.try_connect srv.Client.sock with
    | Some ctl -> ctl
    | None -> failwith "control connection refused"
  in
  let attempted = ref 0 and failed = ref 0 and loads = ref 0 in
  let control_ns = ref [] in
  let check ok = incr attempted; if not ok then incr failed in
  let control () =
    let t0 = now_ns () in
    incr loads;
    check (Client.request ctl ("LOAD default " ^ r.model_file) ^ "\n" = load_reply p ~loads:!loads);
    let m = Client.request ctl "METRICS" in
    control_ns := (now_ns () - t0) :: !control_ns;
    check
      (String.starts_with ~prefix:"OK lines=" m
      && List.mem (Printf.sprintf "selest_registry_epoch %d" (1 + !loads)) (String.split_on_char '\n' m))
  in
  let expected () = if !loads = 0 then p.expected0 else p.expected1 in
  let stats () = parse_stats (Client.request ctl "STATS") in
  let s0 = stats () in
  let scratch = Array.make block 0 in
  for b = 0 to p.spec.W.warmup_blocks - 1 do
    failed := !failed + run_block c p (expected ()) ~from:(b * block) ~count:block scratch ~lat_off:0;
    attempted := !attempted + block;
    if p.spec.W.reload then control ()
  done;
  let s1 = stats () in
  let loads_before = !loads in
  let lat = Array.make p.n_timed 0 and block_ns = Array.make p.blocks 0 in
  let block_cpu_ns = Array.make p.blocks 0 and calib = Array.make (p.blocks + 1) 0 in
  let cpu_ns = ref (Client.cpu_ns srv.Client.pid) in
  let client_words = ref 0.0 in
  for b = 0 to p.blocks - 1 do
    calib.(b) <- Client.calibrate ();
    let t0 = now_ns () in
    let w0 = Gc.minor_words () in
    failed :=
      !failed
      + run_block c p (expected ()) ~from:(p.n_warm + (b * block)) ~count:block lat
          ~lat_off:(b * block);
    client_words := !client_words +. (Gc.minor_words () -. w0);
    attempted := !attempted + block;
    if p.spec.W.reload then control ();
    block_ns.(b) <- now_ns () - t0;
    let c = Client.cpu_ns srv.Client.pid in
    block_cpu_ns.(b) <- c - !cpu_ns;
    cpu_ns := c
  done;
  calib.(p.blocks) <- Client.calibrate ();
  let s2 = stats () in
  let qerrors =
    Array.mapi
      (fun i line ->
        Client.write_all c.Client.fd line;
        Client.next_line c;
        check (Client.line_is c p.eval_expected.(i));
        let est = Scanf.sscanf (Client.line c) "OK %f" Fun.id in
        Obs.Qerror.value ~est ~truth:p.eval_truth.(i))
      p.eval_lines
  in
  let rss_kb = Client.vm_hwm_kb srv.Client.pid in
  Client.close ctl;
  Client.shutdown srv c;
  {
    setup_s;
    setup_calib_ns;
    lat;
    block_ns;
    block_cpu_ns;
    block_calib_ns = Array.init p.blocks (fun b -> float_of_int (calib.(b) + calib.(b + 1)) /. 2.0);
    rss_kb;
    qerrors;
    attempted = !attempted;
    failed = !failed;
    s0;
    s1;
    s2;
    timed_loads = !loads - loads_before;
    control_ns = !control_ns;
    client_words = !client_words;
  }

(* ---- metrics ------------------------------------------------------------------ *)

(* Per-block figures, each read in the host's current speed. *)
let block_stats p s =
  let block = p.spec.W.block in
  let nominal b x = to_nominal ~calib_ns:s.block_calib_ns.(b) x in
  let rates = Array.mapi (fun b ns -> float_of_int block /. (nominal b (float_of_int ns) /. 1e9)) s.block_ns in
  let pct q = Array.init p.blocks (fun b -> nominal b (percentile_int (Array.sub s.lat (b * block) block) q /. 1e3)) in
  let cpu = Array.mapi (fun b ns -> nominal b (float_of_int ns /. 1e3 /. float_of_int block)) s.block_cpu_ns in
  (rates, pct 0.5, pct 0.99, cpu)

let end_to_end p s =
  let rates, p50s, p99s, cpu = block_stats p s in
  [
    ("setup_s", Arrayx.median (Array.mapi (fun k t -> to_nominal ~calib_ns:s.setup_calib_ns.(k) t) s.setup_s));
    ("est_per_s", Arrayx.median rates);
    ("lat_p50_us", Arrayx.median p50s);
    ("lat_p99_us", Arrayx.median p99s);
    ("ok_frac", float_of_int (s.attempted - s.failed) /. float_of_int s.attempted);
    ("server_cpu_us_per_est", Arrayx.median cpu);
    ("server_rss_mb", float_of_int s.rss_kb /. 1024.0);
    ("qerror_p50", Arrayx.percentile s.qerrors 50.0);
    ("qerror_p95", Arrayx.percentile s.qerrors 95.0);
  ]

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

(* Regime counters from STATS over the run's workload traffic (warm-up
   and timed phase), plus compiles per LOAD over the timed phase. *)
let regime s =
  let d k = stat s.s2 k - stat s.s0 k in
  let ests = d "cache_hits" + d "cache_misses" in
  [
    ("lru.hit_ratio", ratio (d "cache_hits") (d "cache_misses"));
    ("lru.evictions_per_est", float_of_int (d "cache_evictions") /. float_of_int (max 1 ests));
    ("plan_cache.hit_ratio", ratio (d "plan_cache_hits") (d "plan_cache_misses"));
    ("plan.compiles_per_kest", 1000.0 *. float_of_int (d "plan_cache_misses") /. float_of_int (max 1 ests));
    ("plan.program_hit_ratio", ratio (d "plan.program_hits") (d "plan.program_misses"));
    ("stats.cache_hits", float_of_int (d "cache_hits"));
    ("stats.cache_misses", float_of_int (d "cache_misses"));
    ("stats.cache_evictions", float_of_int (d "cache_evictions"));
    ("stats.plan_cache_hits", float_of_int (d "plan_cache_hits"));
    ("stats.plan_cache_misses", float_of_int (d "plan_cache_misses"));
    ("stats.plan_cache_evictions", float_of_int (d "plan_cache_evictions"));
    ("stats.program_hits", float_of_int (d "plan.program_hits"));
    ( "stats.compiles_per_reload",
      if s.timed_loads = 0 then 0.0
      else
        float_of_int (stat s.s2 "plan_cache_misses" - stat s.s1 "plan_cache_misses")
        /. float_of_int s.timed_loads );
  ]

let replay_input r p =
  let block = p.spec.W.block in
  let blocks = min p.blocks replay_blocks in
  let reqs = ref [] in
  let add x = reqs := x :: !reqs in
  let n_blocks = p.spec.W.warmup_blocks + blocks in
  for b = 0 to n_blocks - 1 do
    for i = b * block to ((b + 1) * block) - 1 do
      add (Replay.Est p.idx.(i))
    done;
    if p.spec.W.reload then (add Replay.Load; add Replay.Metrics)
  done;
  {
    Replay.lines = p.lines;
    expected = (fun loads j -> if loads = 0 then p.expected0.(j) else p.expected1.(j));
    requests = Array.of_list (List.rev !reqs);
    timed_from =
      (p.spec.W.warmup_blocks * block) + if p.spec.W.reload then 2 * p.spec.W.warmup_blocks else 0;
    model_file = r.model_file;
  }

(* ---- one workload ----------------------------------------------------------------- *)

let print_metric ~prefix name unit v note =
  Printf.printf "%-10s %-24s %16.6g %-9s %s\n" prefix name v unit note

let run_workload ~exe ~trace ~seed ~seconds spec =
  let t_start = now_ns () in
  let r = reference ~reps:(if trace then 3 else 1) in
  let p = prepare r spec ~seed ~seconds in
  let s = serve ~exe r p ~spawns:(if trace then 1 else setup_reps) in
  let name = spec.W.name in
  let cpus =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "Cpus_allowed_list: %s" Fun.id)
      (String.split_on_char '\n' (Client.read_file "/proc/self/status"))
  in
  Printf.printf "# %s seed=%d cpus=%s: %d warm-up + %d timed estimates in %d blocks of %d%s\n" name seed
    (Option.value cpus ~default:"?") p.n_warm p.n_timed p.blocks spec.W.block
    (if spec.W.reload then ", LOAD + METRICS after every block" else "");
  let unit_of n =
    match List.find_opt (fun m -> m.Catalog.name = n) (Catalog.end_to_end @ Catalog.per_layer) with
    | Some m -> m.Catalog.unit
    | None -> invalid_arg n
  in
  let note = function
    | "setup_s" ->
      Printf.sprintf "median of %d spawns; raw %s s, calibration %s us" (Array.length s.setup_s)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") s.setup_s)))
        (String.concat " " (Array.to_list (Array.map (fun c -> Printf.sprintf "%.0f" (c /. 1e3)) s.setup_calib_ns)))
    | "est_per_s" -> Printf.sprintf "median over %d blocks, n=%d" p.blocks p.n_timed
    | "lat_p50_us" -> Printf.sprintf "median over %d blocks of the block median, n=%d" p.blocks p.n_timed
    | "lat_p99_us" ->
      Printf.sprintf "median over %d blocks of %d (%d beyond p99 each), n=%d" p.blocks spec.W.block
        (spec.W.block - int_of_float (Float.ceil (0.99 *. float_of_int spec.W.block))) p.n_timed
    | "ok_frac" -> Printf.sprintf "%d of %d operations" (s.attempted - s.failed) s.attempted
    | "server_cpu_us_per_est" -> Printf.sprintf "median over %d blocks (schedstat)" p.blocks
    | "server_rss_mb" -> "VmHWM"
    | "qerror_p50" | "qerror_p95" ->
      Printf.sprintf "n=%d fixed queries, %d with a true size under one row" (Array.length s.qerrors)
        (Array.fold_left (fun k t -> if t < 1.0 then k + 1 else k) 0 p.eval_truth)
    | _ -> ""
  in
  let e2e = end_to_end p s in
  let reg = regime s in
  let metrics, mismatches =
    if not trace then (e2e, 0)
    else begin
      let rr, handle_p50_us =
        Replay.run ~db:r.db ~model:r.model (replay_input r p)
          ~trace_path:(Printf.sprintf "%s/trace-%s.tsv" work_dir name)
      in
      List.iter print_endline rr.Replay.lines_out;
      let rtt_p50_us = percentile_int s.lat 0.5 /. 1e3 in
      Printf.printf "  shard.transport: client round trip p50 %.3f us - handle_line_shard p50 %.3f us\n"
        rtt_p50_us handle_p50_us;
      ( [ ("shard.transport_us", rtt_p50_us -. handle_p50_us) ]
        @ rr.Replay.metrics @ reg
        @ [ ("synth.generate_s", r.generate_s); ("learn.learn_s", r.learn_s) ],
        rr.Replay.mismatches )
    end
  in
  if trace then
    Printf.printf "  end-to-end figures of this traced run (not reported): %s\n"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) e2e))
  else
    Printf.printf "  regime: %s\n"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) reg));
  Printf.printf "  client allocation inside the timed EST loops: %.0f words\n" s.client_words;
  (let rates, p50s, p99s, cpu = block_stats p s in
   let quartiles a =
     String.concat " "
       (List.map (fun q -> Printf.sprintf "%.4g" (Arrayx.percentile a q)) [ 0.0; 25.0; 50.0; 75.0; 100.0 ])
   in
   Printf.printf "  per-block min/q1/median/q3/max: est_per_s %s | p50_us %s | p99_us %s | cpu_us %s | calibration_us %s\n"
     (quartiles rates) (quartiles p50s) (quartiles p99s) (quartiles cpu)
     (quartiles (Array.map (fun c -> c /. 1e3) s.block_calib_ns)));
  Printf.printf "  EST round trip over all %d timed estimates (us): %s\n" p.n_timed
    (String.concat " "
       (List.map
          (fun (l, q) -> Printf.sprintf "%s=%.1f" l (percentile_int s.lat q /. 1e3))
          [ ("p50", 0.5); ("p90", 0.9); ("p95", 0.95); ("p98", 0.98); ("p99", 0.99); ("p99.9", 0.999); ("max", 1.0) ]));
  if s.control_ns <> [] then
    Printf.printf "  LOAD+METRICS round trip p50 %.3f ms over %d cycles\n"
      (median_int (Array.of_list s.control_ns) /. 1e6)
      (List.length s.control_ns);
  List.iter (fun (k, v) -> print_metric ~prefix:name k (unit_of k) v (note k)) metrics;
  Printf.printf "# %s took %.1f s\n%!" name (seconds_since t_start);
  (try Sys.remove r.model_file with Sys_error _ -> ());
  (metrics, s.attempted, s.failed + mismatches)

(* ---- command line ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/selest_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tb_hot, tb_miss, tb_reload or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S run length: sizes the fixed request count (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run reporting the per-layer metrics");
      ("--selest", Arg.Set_string exe, "PATH the selest executable to spawn");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let specs =
    match !workload with
    | "all" ->
      (* rotate the order with the seed so a burst of host noise does not
         always land on the same workload *)
      let k = abs !seed mod 3 in
      List.filteri (fun i _ -> i >= k) W.all @ List.filteri (fun i _ -> i < k) W.all
    | w -> (
      match W.find w with
      | Some s -> [ s ]
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2)
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then (prerr_endline "perfbench: bad --seconds or --trace"; exit 2);
  if not (Sys.file_exists !exe) then (prerr_endline ("perfbench: no selest executable at " ^ !exe); exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal _ = Client.kill_all (); exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  at_exit Client.kill_all;
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let trace = !trace = 1 in
  match
    List.map (fun spec -> (spec, run_workload ~exe:!exe ~trace ~seed:!seed ~seconds:!seconds spec)) specs
  with
  | exception e ->
    Client.kill_all ();
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
  | results ->
    let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
    let metrics =
      List.concat_map
        (fun (spec, (ms, _, _)) ->
          List.map
            (fun (m : Catalog.metric) ->
              let v =
                match List.assoc_opt m.Catalog.name ms with
                | Some v -> v
                | None -> failwith ("metric not measured: " ^ m.Catalog.name)
              in
              let name = if List.length specs = 1 then m.Catalog.name else spec.W.name ^ "." ^ m.Catalog.name in
              ({ m with Catalog.name }, v))
            catalog)
        results
    in
    let attempted = List.fold_left (fun acc (_, (_, a, _)) -> acc + a) 0 results in
    let failed = List.fold_left (fun acc (_, (_, _, f)) -> acc + f) 0 results in
    let correct = failed = 0 && List.for_all (fun (_, v) -> Float.is_finite v) metrics in
    print_endline (Catalog.result_json ~correct ~attempted ~failed metrics);
    exit (if correct then 0 else 1)
