(* The traced run's in-process replay.

   A workload's request lines are replayed three times on the model the
   spawned server learns (same data seed, budget and learner):

   - pass A through [Server.handle_line_shard] on an in-process server,
     timing each call and classifying it as an estimate-cache hit, a
     miss on a cached plan, or a cold miss that compiled a plan;
   - pass B through each layer's public functions, in the order the
     server's warm EST path calls them, with every call wrapped in an
     [Obs.Span.with_] span (name, start, end, parent) and each request
     run inside its own [Obs.Span.collect], so its spans share an id;
   - pass C through the same functions with no span sink installed, so
     B against C prices the tracing itself.

   Spans stay in memory and are written out once, at the end. *)

open Selest
module Squery = Db.Squery
module Lru = Serve.Lru
module Plan_cache = Serve.Plan_cache
module Registry = Serve.Registry
module Protocol = Serve.Protocol
module Exec = Selest_plan.Exec
module Span = Obs.Span
module Arrayx = Util.Arrayx

let now_ns = Client.now_ns
let span name f = Span.with_ name (fun _ -> f ())

(* ---- the layered EST path --------------------------------------------------- *)

type replayer = {
  reg : Registry.t;
  lru : Lru.t;
  plans : Plan_cache.t;
  scratch : Squery.t;
  slice : Protocol.Slice.t;
  sizes : int array;
  programs : (int, Plan.t * Exec.program) Hashtbl.t;
}

(* Same configuration as [selest serve] with its defaults: one shard, a
   1 MiB estimate cache, the default plan-cache capacity. *)
let replayer ~db ~model =
  let reg = Registry.create ~schema:(Db.Database.schema db) in
  ignore (Registry.register reg ~name:"default" model);
  {
    reg;
    lru = Lru.create ~capacity_bytes:(1 lsl 20);
    plans = Plan_cache.create ();
    scratch = Squery.create (Squery.Symtab.of_schema (Db.Database.schema db));
    slice = Protocol.Slice.create ();
    sizes = Selest_plan.Estimate.sizes_of_db db;
    programs = Hashtbl.create 64;
  }

(* The estimate-cache key: the canonical-query hash folded with model
   name and version, as the server keys its cache. *)
let fnv_prime = 0x100000001b3

let mix h ~name ~version =
  let h = ref h in
  for i = 0 to String.length name - 1 do
    h := (!h lxor Char.code (String.unsafe_get name i)) * fnv_prime
  done;
  (!h lxor version) * fnv_prime land max_int

(* The bytecode program for a plan's binding shape.  Generated skeletons
   keep one shape per skeleton, so the lookup runs once per compiled
   plan; it stays outside the stage spans because the server finds the
   program inside [Plan.execute]. *)
let program r ~key plan binding =
  match Hashtbl.find_opt r.programs key with
  | Some (p, prog) when p == plan -> prog
  | _ -> (
    match Plan.program_for plan binding with
    | Some prog ->
      Hashtbl.replace r.programs key (plan, prog);
      prog
    | None -> failwith "replay: binding has no bytecode program")

let est r buf len =
  if not (span "protocol.slice" (fun () -> Protocol.Slice.est_line r.slice buf ~off:0 ~len)) then
    failwith "replay: not an EST line";
  let name, (e : Registry.entry) =
    span "registry.pin" (fun () ->
        match Registry.Epoch.default (Registry.Epoch.pin r.reg) with
        | Some d -> d
        | None -> failwith "replay: no model")
  in
  let sl = r.slice in
  span "squery.parse" (fun () ->
      Squery.parse r.scratch buf ~off:sl.Protocol.Slice.body_off ~len:sl.Protocol.Slice.body_len);
  span "squery.canon" (fun () -> Squery.canon r.scratch);
  let version = e.Registry.version in
  let h = span "squery.hash" (fun () -> Squery.hash r.scratch) in
  let h = mix h ~name ~version in
  match
    span "lru.find" (fun () ->
        let entry = Lru.find r.lru h in
        if
          entry.Lru.version = version
          && String.equal entry.Lru.model name
          && Squery.Vec.matches entry.Lru.vec r.scratch
        then entry
        else (Lru.collision r.lru; raise Not_found))
  with
  | entry -> entry.Lru.text
  | exception Not_found ->
    let q = span "squery.to_query" (fun () -> Squery.to_query r.scratch) in
    let skel = span "canon.skel" (fun () -> Serve.Canon.Skel.make ~name ~version q) in
    let plan, _ =
      span "plan_cache.find" (fun () ->
          Plan_cache.find_or_compile r.plans ~hash:skel.Serve.Canon.Skel.hash
            ~key:skel.Serve.Canon.Skel.key
            ~compile:(fun () -> Plan.compile e.Registry.model q))
    in
    let binding = span "plan.bind" (fun () -> Plan.bind plan q) in
    let prog = program r ~key:skel.Serve.Canon.Skel.hash plan binding in
    let loaded =
      span "exec.load" (fun () ->
          let st = Exec.state_for prog in
          (Exec.load prog st binding, st))
    in
    let est =
      match loaded with
      | `Ok, st ->
        span "exec.run" (fun () ->
            Exec.run st;
            Exec.result st *. Plan.scale plan ~sizes:r.sizes)
      | `Contradiction, _ -> 0.0
      | `No_match, _ -> failwith "replay: binding does not fit its program"
    in
    let le =
      span "render" (fun () ->
          {
            Lru.est;
            text = Protocol.ok (Printf.sprintf "%.17g" est) ^ "\n";
            bin = Protocol.Bin.encode_response (Protocol.Bin.Bvalue est);
            vec = Squery.Vec.of_scratch r.scratch;
            model = name;
            version;
          })
    in
    span "lru.add" (fun () -> Lru.add r.lru h le);
    le.Lru.text

(* ---- the three passes ------------------------------------------------------- *)

type request = Est of int | Load | Metrics
(* [Est j]: the j-th distinct request line. *)

type input = {
  lines : string array;  (** distinct "EST <body>\n" lines *)
  expected : int -> int -> string;  (** loads so far -> line -> expected reply *)
  requests : request array;
  timed_from : int;  (** first request of the timed portion *)
  model_file : string;
}

type pass_a = {
  handle_ns : int array;  (** per request; -1 for non-EST *)
  category : int array;  (** 0 hit, 1 miss on a cached plan, 2 cold, -1 non-EST *)
  scrape_ns : int list;
  minor_words_per_est : float;
  major_per_kest : float;
  mismatches_a : int;
}

let strip s = String.sub s 0 (String.length s - 1)

let pass_a ~db ~model input ~extra_reloads =
  let srv = Serve.Server.create ~db ~socket:".perfbench/in-process.sock" () in
  ignore (Registry.register (Serve.Server.registry srv) ~name:"default" model);
  let n = Array.length input.requests in
  let handle_ns = Array.make n (-1) and category = Array.make n (-1) in
  let scrapes = ref [] and loads = ref 0 and mismatches = ref 0 in
  let minor = ref 0.0 and ests = ref 0 in
  let calibrate =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let metrics () =
    let t0 = now_ns () in
    let r, _ = Serve.Server.handle_line_shard srv ~shard:0 "METRICS" in
    scrapes := (now_ns () - t0) :: !scrapes;
    if not (String.starts_with ~prefix:"OK lines=" r) then incr mismatches
  in
  let load () =
    let r, _ = Serve.Server.handle_line_shard srv ~shard:0 ("LOAD default " ^ input.model_file) in
    incr loads;
    if not (String.starts_with ~prefix:"OK loaded" r) then incr mismatches
  in
  Array.iteri
    (fun i req ->
      match req with
      | Load -> load ()
      | Metrics -> metrics ()
      | Est j ->
        let line = strip input.lines.(j) in
        let lru = Serve.Server.cache srv and pc = Serve.Server.plan_cache srv in
        let hits0 = Lru.hits lru and _, pmiss0, _ = Plan_cache.stats pc in
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let r, _ = Serve.Server.handle_line_shard srv ~shard:0 line in
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        minor := !minor +. (w1 -. w0 -. calibrate);
        incr ests;
        handle_ns.(i) <- t1 - t0;
        let _, pmiss1, _ = Plan_cache.stats pc in
        category.(i) <- (if Lru.hits lru > hits0 then 0 else if pmiss1 > pmiss0 then 2 else 1);
        if r ^ "\n" <> input.expected !loads j then incr mismatches)
    input.requests;
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  for _ = 1 to extra_reloads do
    load ();
    metrics ()
  done;
  {
    handle_ns;
    category;
    scrape_ns = !scrapes;
    minor_words_per_est = !minor /. float_of_int (max 1 !ests);
    major_per_kest = 1000.0 *. float_of_int major /. float_of_int (max 1 !ests);
    mismatches_a = !mismatches;
  }

(* Passes B and C: the layered path, with ([traced]) or without spans.
   Returns the per-request wall time (-1 for non-EST), the spans of each
   traced request with its index (the extra loads at the end are
   numbered after the requests), and the mismatch count. *)
let pass_layers ~traced ~db ~model input ~extra_reloads =
  let r = replayer ~db ~model in
  let n = Array.length input.requests in
  let wall = Array.make n (-1) in
  let traces = ref [] and loads = ref 0 and mismatches = ref 0 in
  let run i name f =
    if not traced then f ()
    else begin
      let v, recs = Span.collect (fun () -> span name f) in
      traces := (i, recs) :: !traces;
      v
    end
  in
  let load i =
    ignore
      (run i "registry.load" (fun () -> Registry.load r.reg ~name:"default" ~path:input.model_file));
    incr loads
  in
  Array.iteri
    (fun i req ->
      match req with
      | Load -> load i
      | Metrics -> ()
      | Est j ->
        let line = input.lines.(j) in
        let buf = Bytes.unsafe_of_string line in
        let t0 = now_ns () in
        let reply = run i "request" (fun () -> est r buf (String.length line - 1)) in
        wall.(i) <- now_ns () - t0;
        if reply <> input.expected !loads j then incr mismatches)
    input.requests;
  for k = 1 to extra_reloads do
    load (n + k)
  done;
  (wall, List.rev !traces, !mismatches)

(* Self time: a span's duration minus its direct children's. *)
let self_times (recs : Span.record list) =
  let dur (x : Span.record) = x.Span.end_ns - x.Span.start_ns in
  let inner = Hashtbl.create 16 in
  let covered id = Option.value ~default:0 (Hashtbl.find_opt inner id) in
  List.iter (fun (x : Span.record) -> Hashtbl.replace inner x.Span.parent (covered x.Span.parent + dur x)) recs;
  List.map (fun (x : Span.record) -> (x, dur x - covered x.Span.id)) recs

let write_tsv traces path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "req\tspan\tname\tparent\tstart_ns\tend_ns\n";
      List.iter
        (fun (i, recs) ->
          List.iter
            (fun (x : Span.record) ->
              Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" i x.Span.id x.Span.name x.Span.parent
                x.Span.start_ns x.Span.end_ns)
            recs)
        traces)

(* ---- per-layer figures ----------------------------------------------------- *)

type result = {
  metrics : (string * float) list;
  lines_out : string list;  (** human-readable decomposition *)
  mismatches : int;
}

let p50 a = if Array.length a = 0 then 0.0 else Arrayx.percentile (Array.map float_of_int a) 50.0
let mean a = if Array.length a = 0 then 0.0 else Arrayx.mean (Array.map float_of_int a)

(* The layer stages in the order the EST path runs them; spans the
   library opens inside them (e.g. [plan.compile]) follow. *)
let stage_order =
  [ "protocol.slice"; "registry.pin"; "squery.parse"; "squery.canon"; "squery.hash"; "lru.find";
    "squery.to_query"; "canon.skel"; "plan_cache.find"; "plan.bind"; "exec.load"; "exec.run";
    "render"; "lru.add" ]

let run ~db ~model input ~trace_path =
  let extra_reloads = 5 in
  let a = pass_a ~db ~model input ~extra_reloads in
  let n_req = Array.length input.requests in
  let wall_b, traces, mm_b = pass_layers ~traced:true ~db ~model input ~extra_reloads in
  let wall_c, _, mm_c = pass_layers ~traced:false ~db ~model input ~extra_reloads in
  write_tsv traces trace_path;
  (* self and total times of every span, by name *)
  let self = Hashtbl.create 32 and total = Hashtbl.create 32 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (_, recs) ->
      List.iter
        (fun ((x : Span.record), own) ->
          push self x.Span.name own;
          push total x.Span.name (x.Span.end_ns - x.Span.start_ns))
        (self_times recs))
    traces;
  let get tbl k = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let stages =
    stage_order
    @ List.sort compare
        (Hashtbl.fold
           (fun k _ acc ->
             if List.mem k stage_order || k = "request" || k = "registry.load" then acc else k :: acc)
           self [])
  in
  let est_idx = List.filter (fun i -> a.category.(i) >= 0) (List.init n_req Fun.id) in
  let n_est = List.length est_idx in
  let mean_self_us k = float_of_int (Arrayx.sum_int (get self k)) /. float_of_int (max 1 n_est) /. 1e3 in
  let handle_of pred =
    Array.of_list (List.filter_map (fun i -> if pred i then Some a.handle_ns.(i) else None) est_idx)
  in
  let server_mean_us = mean (handle_of (fun _ -> true)) /. 1e3 in
  let stage_sum_us = List.fold_left (fun acc k -> acc +. mean_self_us k) 0.0 stages in
  let other_us = server_mean_us -. stage_sum_us in
  let est_wall w = Array.of_list (List.map (fun i -> w.(i)) est_idx) in
  let traced_mean_us = mean (est_wall wall_b) /. 1e3 in
  let untraced_mean_us = mean (est_wall wall_c) /. 1e3 in
  let cat c = handle_of (fun i -> a.category.(i) = c) in
  let metrics =
    [
      ("server.hit_us", p50 (cat 0) /. 1e3);
      ("server.miss_us", p50 (cat 1) /. 1e3);
      ("server.cold_us", p50 (cat 2) /. 1e3);
      ("server.other_us", other_us);
      ("squery.parse_ns", p50 (get self "squery.parse"));
      ("squery.canon_ns", p50 (get self "squery.canon"));
      ("squery.hash_ns", p50 (get self "squery.hash"));
      ("squery.to_query_ns", p50 (get self "squery.to_query"));
      ("canon.skel_ns", p50 (get self "canon.skel"));
      ("lru.find_ns", p50 (get self "lru.find"));
      ("lru.add_ns", p50 (get self "lru.add"));
      ("plan_cache.find_ns", p50 (get self "plan_cache.find"));
      ("plan.compile_us", p50 (get total "plan.compile") /. 1e3);
      ("plan.bind_ns", p50 (get self "plan.bind"));
      ("exec.load_ns", p50 (get self "exec.load"));
      ("exec.run_ns", p50 (get self "exec.run"));
      ("registry.load_ms", p50 (get total "registry.load") /. 1e6);
      ("metrics.scrape_us", p50 (Array.of_list a.scrape_ns) /. 1e3);
      ("gc.minor_words_per_est", a.minor_words_per_est);
      ("gc.major_per_kest", a.major_per_kest);
      ("trace.overhead_frac", (traced_mean_us -. untraced_mean_us) /. untraced_mean_us);
    ]
  in
  let timed_handle = handle_of (fun i -> i >= input.timed_from) in
  let ncat c = Array.length (cat c) in
  let lines_out =
    [ Printf.sprintf "replay: %d estimates (%d hit, %d miss, %d cold), %d in the timed portion"
        n_est (ncat 0) (ncat 1) (ncat 2) (Array.length timed_handle) ]
    @ List.map
        (fun k ->
          Printf.sprintf "  stage %-16s n=%-7d mean_self=%8.3f us  p50_self=%9.0f ns" k
            (Array.length (get self k)) (mean_self_us k) (p50 (get self k)))
        stages
    @ [
        Printf.sprintf
          "  stage self-times %.3f us + server.other %.3f us = server (handle_line_shard) mean %.3f us per estimate"
          stage_sum_us other_us server_mean_us;
        Printf.sprintf "  replay glue outside the stages: %.3f us per estimate" (mean_self_us "request");
        Printf.sprintf
          "  tracing overhead: traced replay %.3f us vs untraced %.3f us per estimate (%.1f%%)"
          traced_mean_us untraced_mean_us
          (100.0 *. (traced_mean_us -. untraced_mean_us) /. untraced_mean_us);
        Printf.sprintf "  %d spans written to %s"
          (List.fold_left (fun acc (_, recs) -> acc + List.length recs) 0 traces)
          trace_path;
      ]
  in
  ( { metrics; lines_out; mismatches = a.mismatches_a + mm_b + mm_c },
    p50 timed_handle /. 1e3 )
