open Selest_db
module Obs = Selest_obs
module Plan = Selest_plan.Plan

let log = Logs.Src.create "selest.serve" ~doc:"selectivity-estimation server"

module Log = (val Logs.src_log log : Logs.LOG)

(* One executor shard's domain-local state.  Nothing in here is shared
   with another shard on the request path: the estimate cache and plan
   cache are private to the owning domain, and the admission counters
   are single-word atomics shared only with the listener.  The registry
   and telemetry are shared but lock-free — epoch-pinned snapshots and
   per-domain DLS shards respectively — so a whole EST request acquires
   zero mutexes. *)
type sstate = {
  sid : int;
  scache : Lru.t;
  splans : Plan_cache.t;
  scratch : Squery.t;  (* reusable zero-copy parse target *)
  slice : Protocol.Slice.t;  (* reusable request-slice scratch *)
  c_req : Selest_obs.Telemetry.counter_handle;
      (* handle for "shard.<sid>.requests" — the fast path bumps by id *)
  inflight : int Atomic.t;  (* live connections owned by this shard *)
  accepted : int Atomic.t;  (* connections ever handed to this shard *)
  req_counter : string;  (* precomputed "shard.<sid>.requests" *)
}

type t = {
  db : Database.t;
  sizes : int array;
  symtab : Squery.Symtab.t;  (* interned schema symbols, shared ro *)
  socket : string;
  tcp : (string * int) option;
  max_inflight : int;  (* admission budget, per shard *)
  backlog : int;  (* listen(2) backlog for both listeners *)
  registry : Registry.t;
  shards : sstate array;
  metrics : Metrics.t;
  avi : Selest_est.Estimator.t option Atomic.t;
      (* lazily-built AVI baseline: EXPLAINPLAN's fallback oracle for
         sub-queries the model cannot price *)
  (* ---- telemetry / SLO surface ---- *)
  slowlog : Obs.Slowlog.t;
  slow_quantile : float;  (* latency capture threshold quantile *)
  qerror_gate : float;  (* TRUTH q-error above this is captured *)
  slo_p99_us : float;  (* declared latency SLO: p99 target *)
  slo_qerror : float;  (* declared accuracy SLO: q-error p99 target *)
  start_ns : int;
  responses : int Atomic.t;  (* drives threshold refresh + capture rate limit *)
  slow_threshold : int Atomic.t;  (* ns; max_int until warmed up *)
  last_capture : int Atomic.t;  (* [responses] value at the last capture *)
  health_prev : Obs.Telemetry.snapshot option Atomic.t;
      (* previous HEALTH snapshot: the base of the burn window (epoch /
         delta semantics of {!Obs.Telemetry.Snapshot.delta}) *)
  stop_flag : bool Atomic.t;  (* latched by SHUTDOWN / {!shutdown} *)
  waker : (unit -> unit) Atomic.t;
      (* how {!shutdown} interrupts [run]: before [run] installs its
         stop-pipe waker this just latches [stop_flag], which the accept
         loop checks before its first select *)
}

(* Tail-sampling knobs.  The latency threshold is recomputed from the
   merged histogram every [refresh_mask + 1] responses once [slow_warmup]
   observations exist; latency captures (which replay the query under
   span collection) are limited to one per [capture_min_gap] responses so
   a latency regression can never turn the capture path into the
   workload.  q-error captures bypass the limiter — TRUTH is rare. *)
let slow_warmup = 64
let refresh_mask = 511
let capture_min_gap = 256

let create ?(cache_bytes = 1 lsl 20) ?(slowlog_capacity = 128)
    ?(slow_quantile = 0.99) ?(qerror_gate = 100.0) ?(slo_p99_us = 10_000.0)
    ?(slo_qerror = 100.0) ?(domains = 1) ?tcp ?(max_inflight = 1024)
    ?(backlog = 128) ~db ~socket () =
  if domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if backlog < 1 then invalid_arg "Server.create: backlog must be >= 1";
  let metrics = Metrics.create () in
  let symtab = Squery.Symtab.of_schema (Database.schema db) in
  let shards =
    Array.init domains (fun sid ->
        let req_counter = Metrics.shard_key sid "requests" in
        {
          sid;
          scache = Lru.create ~capacity_bytes:cache_bytes;
          splans = Plan_cache.create ();
          scratch = Squery.create symtab;
          slice = Protocol.Slice.create ();
          c_req = Metrics.counter_handle metrics req_counter;
          inflight = Atomic.make 0;
          accepted = Atomic.make 0;
          req_counter;
        })
  in
  {
    db;
    sizes = Selest_plan.Estimate.sizes_of_db db;
    symtab;
    socket;
    tcp;
    max_inflight;
    backlog;
    registry = Registry.create ~schema:(Database.schema db);
    shards;
    metrics;
    avi = Atomic.make None;
    slowlog = Obs.Slowlog.create ~capacity:slowlog_capacity ();
    slow_quantile;
    qerror_gate;
    slo_p99_us;
    slo_qerror;
    start_ns = Obs.Clock.now_ns ();
    responses = Atomic.make 0;
    slow_threshold = Atomic.make max_int;
    last_capture = Atomic.make (-capture_min_gap);
    health_prev = Atomic.make None;
    stop_flag = Atomic.make false;
    waker = Atomic.make (fun () -> ());
  }

let registry t = t.registry
let metrics t = t.metrics
let n_domains t = Array.length t.shards
let max_inflight t = t.max_inflight
let backlog t = t.backlog
let tcp_endpoint t = t.tcp

(* Shard 0's caches double as "the" caches for embedded single-shard use
   (and for the transport-free [handle_line] entry point, which always
   dispatches on shard 0). *)
let cache t = t.shards.(0).scache
let plan_cache t = t.shards.(0).splans

let shard_cache t i = t.shards.(i).scache
let shard_plan_cache t i = t.shards.(i).splans
let socket_path t = t.socket
let slowlog t = t.slowlog

(* Per-model accuracy tables ride the telemetry core since the
   qerrors_mutex fold-in: writes land on the calling domain's shard
   (lock-free after the slot exists), reads merge shards on demand. *)
let qerror_table t name = Metrics.qerror_shard t.metrics name
let qerror_tables t = Metrics.qerror_tables t.metrics

(* Aggregates across shards — the STATS / METRICS / HEALTH view. *)
let sum_shards t f = Array.fold_left (fun acc st -> acc + f st) 0 t.shards
let cache_hits t = sum_shards t (fun st -> Lru.hits st.scache)
let cache_misses t = sum_shards t (fun st -> Lru.misses st.scache)
let cache_evictions t = sum_shards t (fun st -> Lru.evictions st.scache)
let cache_entries t = sum_shards t (fun st -> Lru.length st.scache)
let cache_bytes t = sum_shards t (fun st -> Lru.bytes st.scache)
let cache_collisions t = sum_shards t (fun st -> Lru.collisions st.scache)
let plan_collisions t = sum_shards t (fun st -> Plan_cache.collisions st.splans)

let plan_stats t =
  Array.fold_left
    (fun (h, m, e) st ->
      let h', m', e' = Plan_cache.stats st.splans in
      (h + h', m + m', e + e'))
    (0, 0, 0) t.shards

let plan_entries t = sum_shards t (fun st -> Plan_cache.length st.splans)

(* ---- request handlers ------------------------------------------------------ *)

let handle_load t ~name ~path =
  match Registry.load t.registry ~name ~path with
  | entry ->
    Metrics.incr t.metrics "loads";
    Log.info (fun m -> m "loaded %s version %d from %s" name entry.Registry.version path);
    Protocol.ok
      (Printf.sprintf "loaded %s version %d bytes %d" name entry.Registry.version
         (Selest_prm.Model.size_bytes entry.Registry.model))
  | exception Selest_prm.Serialize.Error msg ->
    Metrics.incr t.metrics "load_errors";
    Protocol.err msg

(* ---- the EST core ------------------------------------------------------------

   Every estimate the server computes — the wire fast path, text and
   binary EST, ESTBATCH body by body, TRUTH, EXPLAIN and the SLOWLOG
   replay — runs [resolve] then [est_core]: pin the registry, lex the
   body into the shard scratch, canonicalize, hash, probe the shard's
   estimate cache and, on a miss, fetch the skeleton's plan, execute it
   on the bytecode engine and fill the cache.  Stages are bracketed with
   the closure-free {!Obs.Span.enter}/[exit], so a warm hit allocates
   nothing with tracing off and tracing on traces this very code.  A
   request the core refuses raises [Rejected] with the reference error
   message; callers count it and format it for their transport. *)

exception Rejected of string

(* Does the slice equal [s], byte for byte?  Allocation-free. *)
let slice_eq buf ~off ~len s =
  String.length s = len
  &&
  let rec go i =
    i = len
    || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

(* Resolve a model named by a buffer slice ([len = 0]: the default, the
   MRU head) against a pinned snapshot without allocating.  The (name,
   version, fingerprint, model) the request sees was published together
   — a concurrent LOAD can only flip the pointer for *later* requests,
   never tear this one. *)
let resolve t buf ~off ~len =
  let entries = Registry.Epoch.entries (Registry.Epoch.pin t.registry) in
  if len = 0 then
    match entries with
    | [] -> raise (Rejected "no model loaded (use LOAD)")
    | hd :: _ -> hd
  else
    let rec named = function
      | [] ->
        raise
          (Rejected
             (Printf.sprintf "no model named %S (use LOAD)"
                (Bytes.sub_string buf off len)))
      | ((name, _) as hd) :: rest ->
        if slice_eq buf ~off ~len name then hd else named rest
    in
    named entries

let resolve_model t = function
  | None -> resolve t Bytes.empty ~off:0 ~len:0
  | Some name ->
    resolve t (Bytes.unsafe_of_string name) ~off:0 ~len:(String.length name)

(* The estimate cache keys on a 63-bit hash: the canonical scratch hash
   folded with the model name and version (FNV-1a), so a hot-reload
   invalidates every cached estimate without touching the cache.  The
   full key never exists as a string — hash hits are verified against
   the resident entry's canonical snapshot instead. *)
let fnv_prime = 0x100000001b3

let est_hash st ~name ~version =
  let h = ref (Squery.hash st.scratch) in
  for i = 0 to String.length name - 1 do
    h := (!h lxor Char.code (String.unsafe_get name i)) * fnv_prime
  done;
  h := (!h lxor version) * fnv_prime;
  !h land max_int

(* Probe the shard cache for the scratch's current query.  Returns the
   verified resident entry or raises the preallocated [Not_found]; a
   hash hit whose full-key verification fails — a true collision — is
   recounted as a miss and surfaced in the telemetry, then treated as a
   miss (the subsequent {!Lru.add} overwrites the resident).
   Allocation-free either way. *)
let probe t st ~name ~version hash =
  let entry = Lru.find st.scache hash in
  if
    entry.Lru.version = version
    && String.equal entry.Lru.model name
    && Squery.Vec.matches entry.Lru.vec st.scratch
  then entry
  else begin
    Lru.collision st.scache;
    Metrics.frontend_collision t.metrics;
    raise Not_found
  end

(* Pre-render both wire responses when an entry is filled, so warm hits
   write stored bytes straight to the socket. *)
let make_entry ~name ~version ~vec est =
  {
    Lru.est;
    text = Protocol.ok (Printf.sprintf "%.17g" est) ^ "\n";
    bin = Protocol.Bin.encode_response (Protocol.Bin.Bvalue est);
    vec;
    model = name;
    version;
  }

(* The plan cache keys on the binding-independent half of the same
   split: model name and version plus the query's skeleton, rendered
   and hashed in one buffer pass ({!Canon.Skel}).  Hot-reloading bumps
   the version, so a stale model's plans can never be fetched again —
   on every shard, since every shard's keys carry the version. *)
let plan_for st ~name ~(entry : Registry.entry) q =
  Obs.Span.with_ "plan.fetch" (fun sp ->
      let skel = Canon.Skel.make ~name ~version:entry.Registry.version q in
      let plan, status =
        Plan_cache.find_or_compile st.splans ~hash:skel.Canon.Skel.hash
          ~key:skel.Canon.Skel.key
          ~compile:(fun () -> Plan.compile entry.Registry.model q)
      in
      Obs.Span.add sp "cached" (match status with `Hit -> "hit" | `Miss -> "miss");
      plan)

(* Fold one request's kernel-counter deltas into the service metrics.
   [max_factor_entries] is a per-query high-water mark, not additive, so
   it stays in EXPLAIN rather than here. *)
let roll_hotpath t (d : Obs.Hotpath.t) =
  let bump name v = if v > 0 then Metrics.incr ~by:v t.metrics name in
  bump "ve.factor_ops" d.Obs.Hotpath.factor_ops;
  bump "ve.entries_touched" d.Obs.Hotpath.entries_touched;
  bump "ve.scratch_hits" d.Obs.Hotpath.scratch_hits;
  bump "ve.scratch_misses" d.Obs.Hotpath.scratch_misses;
  bump "ve.order_hits" d.Obs.Hotpath.order_hits;
  bump "ve.order_misses" d.Obs.Hotpath.order_misses;
  bump "plan.program_hits" d.Obs.Hotpath.program_hits;
  bump "plan.program_misses" d.Obs.Hotpath.program_misses

(* The miss half: fetch (or compile) the skeleton's plan, execute it,
   and fill the shard's estimate cache with a fully rendered entry (the
   scratch still holds the query; it provides the entry's canonical
   snapshot).  [on_plan] sees the plan that ran (EXPLAIN renders it). *)
let infer t st ~on_plan ~name ~(entry : Registry.entry) ~hash =
  let q = Squery.to_query st.scratch in
  match
    Obs.Hotpath.measure (fun () ->
        let plan = plan_for st ~name ~entry q in
        on_plan plan;
        Plan.estimate plan ~sizes:t.sizes q)
  with
  | estimate, d ->
    let le =
      make_entry ~name ~version:entry.Registry.version
        ~vec:(Squery.Vec.of_scratch st.scratch)
        estimate
    in
    Lru.add st.scache hash le;
    Metrics.incr t.metrics (Printf.sprintf "infer.%s" name);
    roll_hotpath t d;
    le
  | exception exn -> raise (Rejected (Printexc.to_string exn))

let parse_error sp msg =
  Obs.Span.exit sp;
  raise (Rejected msg)

(* Lex one body into the shard scratch ({!Selest_db.Squery}) under the
   open [est.parse] span [sp]: symbols are interned, predicates land in
   reusable int arrays, and the warm path never builds an intermediate
   string or list.  Acceptance and error messages agree with the
   reference pipeline ([Qparse.parse] + [Canon.normalize]). *)
let parse_into st sp buf ~off ~len =
  match Squery.parse st.scratch buf ~off ~len with
  | () -> ()
  | exception (Failure msg | Invalid_argument msg) -> parse_error sp msg
  | exception Not_found ->
    parse_error sp "unknown table, tuple variable or attribute in query"

(* Answer one body for a resolved model: the resident or freshly filled
   cache entry.  [force] (EXPLAIN, SLOWLOG replay) probes the cache but
   never lets a hit short-circuit inference, so the stages price a real
   estimate; the probe outcome is the [est.cache] span's [cached]
   attribute.  Moves the [frontend.*] stage counters for every caller;
   the front-end spans reuse those clock reads. *)
let est_core ?(force = false) ?(on_plan = ignore) t st (name, (e : Registry.entry))
    buf ~off ~len =
  let t0 = Obs.Clock.now_ns () in
  let sp = Obs.Span.enter_at "est.parse" t0 in
  parse_into st sp buf ~off ~len;
  let t1 = Obs.Clock.now_ns () in
  Obs.Span.exit_at sp t1;
  let sp = Obs.Span.enter_at "est.canon" t1 in
  Squery.canon st.scratch;
  let t2 = Obs.Clock.now_ns () in
  Obs.Span.exit_at sp t2;
  let version = e.Registry.version in
  let hash = est_hash st ~name ~version in
  let t3 = Obs.Clock.now_ns () in
  Metrics.frontend_parse_ns t.metrics (t1 - t0);
  Metrics.frontend_canon_ns t.metrics (t2 - t1);
  Metrics.frontend_key_ns t.metrics (t3 - t2);
  let sp = Obs.Span.enter_at "est.cache" t3 in
  match probe t st ~name ~version hash with
  | entry when not force ->
    Obs.Span.exit sp;
    entry
  | (_ : Lru.entry) ->
    Obs.Span.add sp "cached" "hit";
    Obs.Span.exit sp;
    infer t st ~on_plan ~name ~entry:e ~hash
  | exception Not_found ->
    Obs.Span.add sp "cached" "miss";
    Obs.Span.exit sp;
    infer t st ~on_plan ~name ~entry:e ~hash

(* [est_core] on a string body, for the allocating reference entry
   points. *)
let est_body ?force ?on_plan t st model body =
  est_core ?force ?on_plan t st model (Bytes.unsafe_of_string body) ~off:0
    ~len:(String.length body)

(* The response stage: [respond] renders (or writes) the answer. *)
let respond f x =
  let sp = Obs.Span.enter "est.respond" in
  match f x with
  | r -> Obs.Span.exit sp; r
  | exception e -> Obs.Span.exit sp; raise e

(* The request root: every EST-shaped request runs under one ["est"]
   span, closed on every path. *)
let est_span f =
  let sp = Obs.Span.enter "est" in
  match f () with
  | r -> Obs.Span.exit sp; r
  | exception e -> Obs.Span.exit sp; raise e

let handle_est t st ~model ~body =
  (* the pre-rendered text response, minus its newline *)
  let text (le : Lru.entry) = String.sub le.Lru.text 0 (String.length le.Lru.text - 1) in
  match est_span (fun () -> respond text (est_body t st (resolve_model t model) body)) with
  | r -> r
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg

(* ESTBATCH: every body runs through the EST core in request order
   against one pinned model, so answers are bit-identical to sequential
   EST and a repeated body is a cache hit, never a second inference.
   All-or-nothing: the first failing body turns the whole batch into
   one [ERR query N: ...] (bodies before it may already be cached).
   Transport-free; raises [Rejected]. *)
let estbatch_core t st ~model ~bodies =
  let m = resolve_model t model in
  List.mapi
    (fun i body ->
      match est_body t st m body with
      | le -> le.Lru.est
      | exception Rejected msg ->
        raise (Rejected (Printf.sprintf "query %d: %s" (i + 1) msg)))
    bodies

let handle_estbatch t st ~model ~bodies =
  match estbatch_core t st ~model ~bodies with
  | answers ->
    Protocol.ok (String.concat " " (List.map (Printf.sprintf "%.17g") answers))
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg

(* ---- EXPLAIN ---------------------------------------------------------------

   The EST core under span collection, forced: the cache is probed and
   its outcome reported but never allowed to short-circuit, so the
   breakdown prices a real end-to-end estimate on the bytecode engine
   that serves EST.

   Stage times are *self* times: each span's duration minus its direct
   children's.  Self times partition the root's wall time exactly, so the
   stages sum to total_us and nothing is double-counted; a span that is
   not a stage (the evidence pass inside a cold compile) counts toward
   its nearest stage ancestor.  Plan-cache lookup glue reports as
   fetch_us, a cold skeleton's compilation as compile_us (zero on a
   plan-cache hit), the bytecode program's lookup and evidence writes as
   load_us, its contractions as run_us, and the glue inside "est" itself
   (dispatch, binding, cache fill, metrics) as other_us. *)

let explain_stages =
  [ ("parse_us", "est.parse"); ("canon_us", "est.canon");
    ("cache_us", "est.cache"); ("fetch_us", "plan.fetch");
    ("compile_us", "plan.compile"); ("load_us", "exec.load");
    ("run_us", "exec.run"); ("respond_us", "est.respond"); ("other_us", "est") ]

(* (stage span name, self time) for every record: duration minus the
   direct children's durations, attributed to the record's own name if
   it is a stage, else to its nearest stage ancestor. *)
let stage_self_times records =
  let by_id = Hashtbl.create 16 and children_us = Hashtbl.create 16 in
  List.iter
    (fun (r : Obs.Span.record) ->
      Hashtbl.replace by_id r.Obs.Span.id r;
      let prev =
        Option.value ~default:0.0 (Hashtbl.find_opt children_us r.Obs.Span.parent)
      in
      Hashtbl.replace children_us r.Obs.Span.parent
        (prev +. Obs.Span.duration_us r))
    records;
  let rec stage (r : Obs.Span.record) =
    if List.exists (fun (_, n) -> n = r.Obs.Span.name) explain_stages then
      r.Obs.Span.name
    else
      match Hashtbl.find_opt by_id r.Obs.Span.parent with
      | Some p -> stage p
      | None -> r.Obs.Span.name
  in
  List.map
    (fun (r : Obs.Span.record) ->
      let inner =
        Option.value ~default:0.0 (Hashtbl.find_opt children_us r.Obs.Span.id)
      in
      (stage r, Float.max 0.0 (Obs.Span.duration_us r -. inner)))
    records

let stage_us selfs span_name =
  List.fold_left
    (fun acc (name, us) -> if name = span_name then acc +. us else acc)
    0.0 selfs

let span_attr records span_name key =
  List.find_map
    (fun (r : Obs.Span.record) ->
      if r.Obs.Span.name = span_name then
        List.assoc_opt key r.Obs.Span.attrs
      else None)
    records

let handle_explain t st ~model ~body =
  let plan = ref None in
  match
    Obs.Span.collect (fun () ->
        Obs.Hotpath.measure (fun () ->
            est_span (fun () ->
                respond
                  (fun le -> Printf.sprintf "%.17g" le.Lru.est)
                  (est_body ~force:true
                     ~on_plan:(fun p -> plan := Some p)
                     t st (resolve_model t model) body))))
  with
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg
  | (estimate, d), records ->
    let selfs = stage_self_times records in
    let stages =
      List.map (fun (k, sp) -> (k, stage_us selfs sp)) explain_stages
    in
    let stage_sum = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 stages in
    let total_us =
      List.fold_left
        (fun acc (r : Obs.Span.record) ->
          if r.Obs.Span.name = "est" then acc +. Obs.Span.duration_us r
          else acc)
        0.0 records
    in
    let attr span = Option.value ~default:"none" (span_attr records span "cached") in
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "estimate=%s" estimate);
    Buffer.add_string buf (Printf.sprintf " total_us=%.1f" total_us);
    List.iter
      (fun (k, us) -> Buffer.add_string buf (Printf.sprintf " %s=%.1f" k us))
      stages;
    Buffer.add_string buf (Printf.sprintf " stage_sum_us=%.1f" stage_sum);
    Buffer.add_string buf (Printf.sprintf " cache=%s" (attr "est.cache"));
    Buffer.add_string buf (Printf.sprintf " plan_cache=%s" (attr "plan.fetch"));
    (match !plan with
    | None -> ()
    | Some plan ->
      (* the real executed schedule: per-step eliminated variable and the
         planner's predicted intermediate entries (compare against the
         measured max_factor_entries below) *)
      let steps = Plan.steps plan (Squery.to_query st.scratch) in
      Buffer.add_string buf
        (Printf.sprintf " plan=%s"
           (Format.asprintf "%a" Selest_bn.Ve.Schedule.pp
              {
                Selest_bn.Ve.Schedule.order =
                  List.map (fun s -> s.Selest_bn.Ve.Schedule.var) steps;
                steps;
              }));
      Buffer.add_string buf
        (Printf.sprintf " factors=%d" (List.length (Plan.factors plan))));
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k v))
      (Obs.Hotpath.to_pairs d);
    Protocol.ok (Buffer.contents buf)

(* ---- EXPLAINPLAN -----------------------------------------------------------

   The optimizer's view of a query: choose the C_out-minimal join tree
   under the model's sub-query estimates (priced through the same plan
   cache EST uses, so repeated EXPLAINPLANs are cheap), execute it with
   the materializing hash-join executor, and render estimated vs. actual
   rows per operator.  Sub-queries the model cannot price fall back to
   the server's lazily-built AVI baseline rather than aborting the
   enumeration. *)

let avi_fallback t =
  match Atomic.get t.avi with
  | Some e -> e.Selest_est.Estimator.estimate
  | None ->
    let e = Selest_est.Avi.build t.db in
    (* A concurrent duplicate build is harmless (same deterministic
       baseline); the first publisher wins and everyone reads it. *)
    ignore (Atomic.compare_and_set t.avi None (Some e));
    (match Atomic.get t.avi with
     | Some e -> e.Selest_est.Estimator.estimate
     | None -> e.Selest_est.Estimator.estimate)

let handle_explainplan t st ~model ~body =
  match
    let name, e = resolve_model t model in
    let sp = Obs.Span.enter "est.parse" in
    parse_into st sp (Bytes.unsafe_of_string body) ~off:0 ~len:(String.length body);
    Obs.Span.exit sp;
    Squery.canon st.scratch;
    (name, e, Squery.to_query st.scratch)
  with
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg
  | name, e, q -> (
    let model_cost sub =
      Plan.estimate (plan_for st ~name ~entry:e sub) ~sizes:t.sizes sub
    in
    let fallback = avi_fallback t in
    (* the oracle the plan was chosen by, fallback composed in — also
       what the rendering prices each operator with *)
    let price sub =
      try model_cost sub
      with Selest_est.Estimator.Unsupported _ -> fallback sub
    in
    match
      let tree =
        match q.Query.tvars with
        | [ (tv, _) ] -> Selest_opt.Jointree.Leaf tv
        | _ ->
          (Selest_opt.Optimizer.best ~fallback ~cost:model_cost q)
            .Selest_opt.Optimizer.tree
      in
      let result = Selest_opt.Hashjoin.run t.db q tree in
      let cost_est =
        Selest_opt.Optimizer.sum_intermediates ~cost:price q tree
      in
      Selest_opt.Explain.render ~est:price q result
      ^ Selest_opt.Explain.summary_line ~cost_est result
    with
    | rendered ->
      Metrics.incr t.metrics (Printf.sprintf "infer.%s" name);
      Protocol.ok_multiline rendered
    | exception exn ->
      Metrics.incr t.metrics "est_errors";
      Protocol.err (Printexc.to_string exn))

(* ---- TRUTH -----------------------------------------------------------------

   Ground truth for one query: compute the estimate through the same
   cache-then-infer path as EST, record the q-error into the model's
   rolling histogram (on the calling domain's telemetry shard — the
   TRUTH path no longer serializes domains), and echo both. *)

(* ---- tail-sampled slow-log -------------------------------------------------- *)

(* Recompute the latency capture threshold: the configured quantile's
   upper bucket edge in the merged aggregate histogram.  Runs once per
   [refresh_mask + 1] responses, so its merge cost never shows up in a
   latency profile. *)
let refresh_slow_threshold t =
  let h = Metrics.latency_histogram t.metrics in
  if Obs.Histogram.count h >= slow_warmup then
    Atomic.set t.slow_threshold
      (max 1 (Obs.Histogram.quantile_ns h t.slow_quantile))

(* Re-execute a captured request's query under span collection.  The
   live path does not collect (collection would eat the telemetry budget
   on every request), so a capture replays the query once through the
   EST core — forced, so a cache hit cannot hide the stages — to
   reconstruct the est.parse / est.canon / est.cache / plan.fetch /
   exec.* tree of the bytecode path that served it.  Returns the
   canonical query text and the span tree; the raw body when the body
   no longer resolves or parses. *)
let replay_spans t st ~model ~body =
  let outcome, records =
    Obs.Span.collect (fun () ->
        est_span (fun () ->
            match est_body ~force:true t st (resolve_model t model) body with
            | (_ : Lru.entry) -> Some (Canon.key (Squery.to_query st.scratch))
            | exception Rejected _ -> None))
  in
  (Option.value ~default:body outcome, records)

let capture t st ~verb ~reason ?model ?body ?qerror ~lat_ns () =
  let query, spans =
    match body with
    | None -> (verb, [])
    | Some b -> replay_spans t st ~model ~body:b
  in
  Metrics.incr t.metrics "slowlog_captures";
  ignore
    (Obs.Slowlog.add t.slowlog ~verb ~reason ~query ~lat_ns
       ~threshold_ns:(Atomic.get t.slow_threshold) ?qerror ~spans ())

(* Per-response bookkeeping: per-verb latency recording, periodic
   threshold refresh, and latency-outlier capture.  Only verbs whose
   work a replay reproduces pass a body (EST / EXPLAIN / TRUTH): an
   ESTBATCH latency is N requests wide and would always cross a
   per-request threshold, and the STATS-family verbs carry no query. *)
let observe_response t st ~verb ?model ?body ~dt_ns () =
  Metrics.observe_verb_ns t.metrics ~verb dt_ns;
  let seen = Atomic.fetch_and_add t.responses 1 in
  if seen land refresh_mask = refresh_mask then refresh_slow_threshold t;
  match body with
  | None -> ()
  | Some _ ->
    if
      dt_ns >= Atomic.get t.slow_threshold
      && seen - Atomic.get t.last_capture >= capture_min_gap
    then begin
      Atomic.set t.last_capture seen;
      capture t st ~verb ~reason:Obs.Slowlog.Latency ?model ?body ~lat_ns:dt_ns
        ()
    end

let handle_truth t st ~model ~truth ~body ~t0 =
  match est_span (fun () -> est_body t st (resolve_model t model) body) with
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg
  | le ->
    let estimate = le.Lru.est and name = le.Lru.model in
    Metrics.observe_qerror t.metrics name ~est:estimate ~truth;
    let qv = Obs.Qerror.value ~est:estimate ~truth in
    (* Accuracy gate: an estimate this wrong is captured with its span
       tree regardless of how fast it was computed. *)
    if qv >= t.qerror_gate then
      capture t st ~verb:"truth" ~reason:Obs.Slowlog.Qerror ?model ~body
        ~qerror:qv
        ~lat_ns:(Obs.Clock.now_ns () - t0)
        ();
    Protocol.ok
      (Printf.sprintf "qerror=%.6g estimate=%.17g n=%d" qv estimate
         (Obs.Qerror.count (Metrics.qerror_merged t.metrics name)))

(* ---- STATS / METRICS ------------------------------------------------------- *)

let qerror_stats_fields t =
  List.concat_map
    (fun (name, qe) ->
      let s = Obs.Qerror.summarize qe in
      let f v = Printf.sprintf "%.3g" v in
      [ (Printf.sprintf "qerr.%s.n" name, string_of_int s.Obs.Qerror.n);
        (Printf.sprintf "qerr.%s.mean" name, f s.Obs.Qerror.mean);
        (Printf.sprintf "qerr.%s.p50" name, f s.Obs.Qerror.p50);
        (Printf.sprintf "qerr.%s.p90" name, f s.Obs.Qerror.p90);
        (Printf.sprintf "qerr.%s.max" name, f s.Obs.Qerror.max_q) ])
    (qerror_tables t)

(* The merged snapshot elides counters still at zero, but the
   program-memo pair is part of STATS' contract (a plan compiled with its
   program pre-built never counts a miss), so pin both fields. *)
let with_program_counters t pairs =
  List.fold_left
    (fun acc name ->
      if List.mem_assoc name acc then acc
      else acc @ [ (name, string_of_int (Metrics.get t.metrics name)) ])
    pairs
    [ "plan.program_hits"; "plan.program_misses" ]

let handle_stats t =
  let pairs =
    with_program_counters t (Metrics.report t.metrics)
    @ [
        ("cache_hits", string_of_int (cache_hits t));
        ("cache_misses", string_of_int (cache_misses t));
        ("cache_evictions", string_of_int (cache_evictions t));
        ("cache_entries", string_of_int (cache_entries t));
        ("cache_bytes", string_of_int (cache_bytes t));
        ("cache_collisions", string_of_int (cache_collisions t));
      ]
    @ (let hits, misses, evictions = plan_stats t in
       [
         ("plan_cache_hits", string_of_int hits);
         ("plan_cache_misses", string_of_int misses);
         ("plan_cache_evictions", string_of_int evictions);
         ("plan_cache_entries", string_of_int (plan_entries t));
         ("plan_cache_collisions", string_of_int (plan_collisions t));
       ])
    @ [
        ("models", string_of_int (Registry.size t.registry));
        ("registry_epoch", string_of_int (Registry.Epoch.current_epoch t.registry));
        ("domains", string_of_int (Array.length t.shards));
      ]
    @ qerror_stats_fields t
  in
  Protocol.ok (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) pairs))

(* ---- HEALTH ----------------------------------------------------------------- *)

(* Error-budget burn: observed violation fraction over the budget a p99
   target allows (1%).  1.0 = exactly on budget, above = burning. *)
let burn_of ~violations ~n =
  if n = 0 then 0.0 else float_of_int violations /. float_of_int n /. 0.01

let latency_violations ~slo_p99_us h =
  let n = Obs.Histogram.count h in
  (n, n - Obs.Histogram.count_le h (int_of_float (slo_p99_us *. 1e3)))

(* Observations at or under [gate], read off the cumulative q-error
   buckets (bucket-quantized like the quantiles themselves). *)
let qerror_violations ~gate qe =
  let le =
    Array.fold_left
      (fun acc (edge, cum) -> if edge <= gate then max acc cum else acc)
      0 (Obs.Qerror.buckets qe)
  in
  let n = Obs.Qerror.count qe in
  (n, n - le)

let threshold_us_string ns =
  if ns = max_int then "-" else Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

(* The SLO report.  Latency quantiles and the latency burn are computed
   over the window since the previous HEALTH (epoch / delta semantics of
   {!Obs.Telemetry.Snapshot.delta}; the first HEALTH reports since
   start), so repeated probes see fresh burn rates, not a lifetime
   average that a long good run can never move.  q-error burn is
   lifetime — ground truth is too rare to window. *)
let handle_health t =
  let snap = Obs.Telemetry.snapshot (Metrics.telemetry t.metrics) in
  let window =
    match Atomic.get t.health_prev with
    | Some prev -> Obs.Telemetry.Snapshot.delta ~prev snap
    | None -> snap
  in
  Atomic.set t.health_prev (Some snap);
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let us ns = float_of_int ns /. 1e3 in
  let hq h p = us (Obs.Histogram.quantile_ns h p) in
  let lat_n, lat_viol, lat_burn, lat_p99 =
    match Obs.Telemetry.Snapshot.find_hist window Metrics.lat_key with
    | None -> (0, 0, 0.0, 0.0)
    | Some h ->
      let n, viol = latency_violations ~slo_p99_us:t.slo_p99_us h in
      (n, viol, burn_of ~violations:viol ~n, hq h 0.99)
  in
  let q_slos =
    List.map
      (fun (name, qe) ->
        let n, viol = qerror_violations ~gate:t.slo_qerror qe in
        (name, qe, n, viol, burn_of ~violations:viol ~n))
      (qerror_tables t)
  in
  let healthy =
    lat_burn <= 1.0 && List.for_all (fun (_, _, _, _, b) -> b <= 1.0) q_slos
  in
  line "status=%s uptime_s=%.1f epoch=%d shards=%d requests=%d window_requests=%d"
    (if healthy then "ok" else "degraded")
    (float_of_int (Obs.Clock.now_ns () - t.start_ns) /. 1e9)
    snap.Obs.Telemetry.epoch
    (Obs.Telemetry.n_shards (Metrics.telemetry t.metrics))
    (Obs.Telemetry.Snapshot.find_counter snap "requests")
    (Obs.Telemetry.Snapshot.find_counter window "requests");
  (* per-verb latency quantiles over the window; "all" is the aggregate *)
  let verb_prefix = Metrics.verb_key "" in
  let plen = String.length verb_prefix in
  List.iter
    (fun (name, h) ->
      let verb =
        if name = Metrics.lat_key then Some "all"
        else if String.length name > plen && String.sub name 0 plen = verb_prefix
        then Some (String.sub name plen (String.length name - plen))
        else None
      in
      match verb with
      | Some v when Obs.Histogram.count h > 0 ->
        line
          "verb=%s n=%d mean_us=%.1f p50_us=%.1f p95_us=%.1f p99_us=%.1f p999_us=%.1f max_us=%.1f"
          v (Obs.Histogram.count h)
          (Obs.Histogram.mean_ns h /. 1e3)
          (hq h 0.5) (hq h 0.95) (hq h 0.99) (hq h 0.999)
          (us (Obs.Histogram.max_ns_seen h))
      | _ -> ())
    window.Obs.Telemetry.hists;
  line
    "slo=latency target_p99_us=%.0f observed_p99_us=%.1f n=%d violations=%d burn=%.2f status=%s"
    t.slo_p99_us lat_p99 lat_n lat_viol lat_burn
    (if lat_burn <= 1.0 then "ok" else "breach");
  List.iter
    (fun (name, qe, n, viol, b) ->
      let s = Obs.Qerror.summarize qe in
      line
        "slo=qerror model=%s target_p99=%.1f observed_p99=%.3g n=%d violations=%d burn=%.2f status=%s"
        name t.slo_qerror s.Obs.Qerror.p99 n viol b
        (if b <= 1.0 then "ok" else "breach"))
    q_slos;
  let rate h m =
    let tot = h + m in
    if tot = 0 then 0.0 else float_of_int h /. float_of_int tot
  in
  line "cache=estimate hits=%d misses=%d hit_rate=%.3f entries=%d"
    (cache_hits t) (cache_misses t)
    (rate (cache_hits t) (cache_misses t))
    (cache_entries t);
  let plan_hits, plan_misses, _ = plan_stats t in
  line "cache=plan hits=%d misses=%d hit_rate=%.3f entries=%d" plan_hits
    plan_misses
    (rate plan_hits plan_misses)
    (plan_entries t);
  (* shard identity: one line per executor shard, so a hot or wedged
     shard is visible from the same probe as everything else *)
  Array.iter
    (fun st ->
      line "shard id=%d inflight=%d accepted=%d requests=%d cache_entries=%d"
        st.sid (Atomic.get st.inflight) (Atomic.get st.accepted)
        (Metrics.get t.metrics st.req_counter)
        (Lru.length st.scache))
    t.shards;
  List.iter
    (fun (name, qe) ->
      let s = Obs.Qerror.summarize qe in
      let f v = Printf.sprintf "%.3g" v in
      line "qerror model=%s n=%d mean=%s p50=%s p90=%s p99=%s max=%s" name
        s.Obs.Qerror.n (f s.Obs.Qerror.mean) (f s.Obs.Qerror.p50)
        (f s.Obs.Qerror.p90) (f s.Obs.Qerror.p99) (f s.Obs.Qerror.max_q))
    (qerror_tables t);
  line "slowlog captured=%d held=%d capacity=%d threshold_us=%s quantile=%.3f qerror_gate=%.1f"
    (Obs.Slowlog.total t.slowlog)
    (Obs.Slowlog.length t.slowlog)
    (Obs.Slowlog.capacity t.slowlog)
    (threshold_us_string (Atomic.get t.slow_threshold))
    t.slow_quantile t.qerror_gate;
  Protocol.ok_multiline (Buffer.contents buf)

(* ---- SHARDS ----------------------------------------------------------------- *)

(* The shard-per-domain introspection surface: layout first (domain
   count, admission budget, backlog, endpoints), then one line per shard
   with its live admission state and domain-local cache counters. *)
let handle_shards t =
  let buf = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "domains=%d max_inflight=%d backlog=%d socket=%s tcp=%s epoch=%d"
    (Array.length t.shards) t.max_inflight t.backlog t.socket
    (match t.tcp with
    | None -> "-"
    | Some (host, port) -> Printf.sprintf "%s:%d" host port)
    (Registry.Epoch.current_epoch t.registry);
  Array.iter
    (fun st ->
      let ph, pm, _ = Plan_cache.stats st.splans in
      line
        "shard id=%d inflight=%d accepted=%d requests=%d cache_entries=%d cache_hits=%d cache_misses=%d plan_entries=%d plan_hits=%d plan_misses=%d"
        st.sid (Atomic.get st.inflight) (Atomic.get st.accepted)
        (Metrics.get t.metrics st.req_counter)
        (Lru.length st.scache) (Lru.hits st.scache) (Lru.misses st.scache)
        (Plan_cache.length st.splans) ph pm)
    t.shards;
  Protocol.ok_multiline (Buffer.contents buf)

(* ---- SLOWLOG ---------------------------------------------------------------- *)

let handle_slowlog t n =
  let n = Option.value ~default:10 n in
  let entries = Obs.Slowlog.recent ~n t.slowlog in
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "entries=%d captured=%d capacity=%d threshold_us=%s"
    (List.length entries)
    (Obs.Slowlog.total t.slowlog)
    (Obs.Slowlog.capacity t.slowlog)
    (threshold_us_string (Atomic.get t.slow_threshold));
  List.iter
    (fun (e : Obs.Slowlog.entry) ->
      line "slow seq=%d verb=%s reason=%s lat_us=%.1f threshold_us=%s qerror=%s query=%s"
        e.Obs.Slowlog.seq e.Obs.Slowlog.verb
        (Obs.Slowlog.reason_to_string e.Obs.Slowlog.reason)
        (float_of_int e.Obs.Slowlog.lat_ns /. 1e3)
        (threshold_us_string e.Obs.Slowlog.threshold_ns)
        (match e.Obs.Slowlog.qerror with
        | None -> "-"
        | Some q -> Printf.sprintf "%.6g" q)
        e.Obs.Slowlog.query;
      (* the captured tree, start-ordered, indented by nesting depth *)
      List.iter
        (fun (s : Obs.Span.record) ->
          let attrs =
            match s.Obs.Span.attrs with
            | [] -> ""
            | l ->
              " "
              ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
          in
          line "%sspan %s us=%.1f%s"
            (String.make (2 + (2 * s.Obs.Span.depth)) ' ')
            s.Obs.Span.name (Obs.Span.duration_us s) attrs)
        (List.sort
           (fun (a : Obs.Span.record) b -> compare a.Obs.Span.start_ns b.Obs.Span.start_ns)
           e.Obs.Slowlog.spans))
    entries;
  Protocol.ok_multiline (Buffer.contents buf)

let prometheus_metrics t =
  let open Obs.Prometheus in
  let counter ?(help = "") ?(labels = []) name v =
    Counter { name; help; labels; value = float_of_int v }
  in
  let gauge ?(help = "") name v =
    Gauge { name; help; labels = []; value = float_of_int v }
  in
  let fgauge ?(help = "") ?(labels = []) name v =
    Gauge { name; help; labels; value = v }
  in
  (* service counters; infer.<model> folds into one labelled family and
     the program-memo pair keeps its own stable names *)
  let infers, plain =
    List.partition
      (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "infer.")
      (List.filter
         (fun (k, _) -> k <> "plan.program_hits" && k <> "plan.program_misses")
         (Metrics.counters t.metrics))
  in
  let plain_metrics =
    List.map
      (fun (k, v) -> counter ("selest_" ^ sanitize k ^ "_total") v)
      plain
  in
  let infer_metrics =
    List.map
      (fun (k, v) ->
        let model_name = String.sub k 6 (String.length k - 6) in
        counter ~help:"inference runs per model"
          ~labels:[ ("model", model_name) ] "selest_infer_total" v)
      infers
  in
  let program_metrics =
    [ counter ~help:"bytecode program-memo hits inside compiled plans"
        "selest_program_memo_hits"
        (Metrics.get t.metrics "plan.program_hits");
      counter ~help:"bytecode program-memo misses (slow-path recomputes)"
        "selest_program_memo_misses"
        (Metrics.get t.metrics "plan.program_misses") ]
  in
  let latency =
    Histogram
      {
        name = "selest_request_latency_us";
        help = "request latency in microseconds";
        labels = [];
        buckets = Metrics.histogram t.metrics;
        sum = Metrics.latency_sum_us t.metrics;
        count = Metrics.observations t.metrics;
      }
  in
  let verb_latency =
    List.map
      (fun (verb, h) ->
        Histogram
          {
            name = "selest_verb_latency_us";
            help = "per-verb request latency in microseconds";
            labels = [ ("verb", verb) ];
            buckets = Obs.Histogram.buckets_us h;
            sum = float_of_int (Obs.Histogram.sum_ns h) /. 1e3;
            count = Obs.Histogram.count h;
          })
      (Metrics.verb_histograms t.metrics)
  in
  let lat_n, lat_viol =
    latency_violations ~slo_p99_us:t.slo_p99_us
      (Metrics.latency_histogram t.metrics)
  in
  let slo_metrics =
    [ counter ~help:"tail-sampled slow-log captures"
        "selest_slowlog_captured_total"
        (Obs.Slowlog.total t.slowlog);
      gauge ~help:"slow-log entries held" "selest_slowlog_entries"
        (Obs.Slowlog.length t.slowlog);
      fgauge ~help:"latency SLO error-budget burn (lifetime)"
        "selest_slo_latency_burn"
        (burn_of ~violations:lat_viol ~n:lat_n) ]
    @ List.map
        (fun (name, qe) ->
          let n, viol = qerror_violations ~gate:t.slo_qerror qe in
          fgauge ~help:"q-error SLO error-budget burn"
            ~labels:[ ("model", name) ] "selest_slo_qerror_burn"
            (burn_of ~violations:viol ~n))
        (qerror_tables t)
  in
  let shard_metrics =
    [ gauge ~help:"executor shards (domains)" "selest_domains"
        (Array.length t.shards) ]
    @ (Array.to_list t.shards
      |> List.concat_map (fun st ->
             let sid = string_of_int st.sid in
             [ Gauge
                 {
                   name = "selest_shard_inflight";
                   help = "live connections per shard";
                   labels = [ ("shard", sid) ];
                   value = float_of_int (Atomic.get st.inflight);
                 };
               Counter
                 {
                   name = "selest_shard_accepted_total";
                   help = "connections handed to each shard";
                   labels = [ ("shard", sid) ];
                   value = float_of_int (Atomic.get st.accepted);
                 } ]))
  in
  let cache_metrics =
    [ counter ~help:"estimate cache hits" "selest_cache_hits_total"
        (cache_hits t);
      counter ~help:"estimate cache misses" "selest_cache_misses_total"
        (cache_misses t);
      counter ~help:"estimate cache evictions" "selest_cache_evictions_total"
        (cache_evictions t);
      counter
        ~help:"estimate cache hash hits whose full-key verification failed"
        "selest_cache_collisions_total" (cache_collisions t);
      gauge ~help:"estimate cache entries" "selest_cache_entries"
        (cache_entries t);
      gauge ~help:"estimate cache bytes" "selest_cache_bytes"
        (cache_bytes t);
      gauge ~help:"loaded models" "selest_models" (Registry.size t.registry);
      gauge ~help:"registry snapshot epoch (bumps on LOAD)"
        "selest_registry_epoch"
        (Registry.Epoch.current_epoch t.registry)
    ]
  in
  let plan_hits, plan_misses, plan_evictions = plan_stats t in
  let plan_metrics =
    [ counter ~help:"compiled-plan cache hits" "selest_plan_cache_hits_total"
        plan_hits;
      counter ~help:"compiled-plan cache misses"
        "selest_plan_cache_misses_total" plan_misses;
      counter ~help:"compiled-plan cache evictions"
        "selest_plan_cache_evictions_total" plan_evictions;
      counter
        ~help:"plan cache hash hits whose full-key verification failed"
        "selest_plan_cache_collisions_total" (plan_collisions t);
      gauge ~help:"compiled-plan cache entries" "selest_plan_cache_entries"
        (plan_entries t) ]
  in
  let qerror_metrics =
    List.map
      (fun (name, qe) ->
        let s = Obs.Qerror.summarize qe in
        Histogram
          {
            name = "selest_qerror";
            help = "q-error of estimates vs supplied ground truth";
            labels = [ ("model", name) ];
            buckets = Obs.Qerror.buckets qe;
            sum =
              (if s.Obs.Qerror.n = 0 then 0.0
               else s.Obs.Qerror.mean *. float_of_int s.Obs.Qerror.n);
            count = s.Obs.Qerror.n;
          })
      (qerror_tables t)
  in
  plain_metrics @ infer_metrics @ program_metrics
  @ (latency :: verb_latency)
  @ cache_metrics @ plan_metrics @ shard_metrics @ qerror_metrics
  @ slo_metrics

let handle_metrics t =
  Protocol.ok_multiline (Obs.Prometheus.render (prometheus_metrics t))

let handle_line_st t st line =
  Metrics.incr t.metrics "requests";
  Metrics.incr t.metrics st.req_counter;
  let t0 = Obs.Clock.now_ns () in
  (* The handler has already run when [finish] fires (argument order):
     it records the verb's latency and feeds the tail sampler.  Only
     verbs a replay reproduces pass [?body] — see [observe_response]. *)
  let finish ~verb ?model ?body (r, action) =
    observe_response t st ~verb ?model ?body
      ~dt_ns:(Obs.Clock.now_ns () - t0)
      ();
    (r, action)
  in
  match Protocol.parse_request line with
  | Error msg ->
    Metrics.incr t.metrics "protocol_errors";
    finish ~verb:"error" (Protocol.err msg, `Continue)
  | Ok Protocol.Ping -> finish ~verb:"ping" (Protocol.pong, `Continue)
  | Ok (Protocol.Load { name; path }) ->
    finish ~verb:"load" (handle_load t ~name ~path, `Continue)
  | Ok (Protocol.Est { model; body }) ->
    Metrics.incr t.metrics "est_requests";
    finish ~verb:"est" ?model ~body (handle_est t st ~model ~body, `Continue)
  | Ok (Protocol.Estbatch { model; bodies }) ->
    Metrics.incr t.metrics "estbatch_requests";
    List.iter (fun _ -> Metrics.incr t.metrics "est_requests") bodies;
    finish ~verb:"estbatch" (handle_estbatch t st ~model ~bodies, `Continue)
  | Ok (Protocol.Explain { model; body }) ->
    Metrics.incr t.metrics "explain_requests";
    finish ~verb:"explain" ?model ~body
      (handle_explain t st ~model ~body, `Continue)
  | Ok (Protocol.Explainplan { model; body }) ->
    Metrics.incr t.metrics "explainplan_requests";
    finish ~verb:"explainplan"
      (handle_explainplan t st ~model ~body, `Continue)
  | Ok (Protocol.Truth { model; truth; body }) ->
    Metrics.incr t.metrics "truth_requests";
    finish ~verb:"truth" ?model ~body
      (handle_truth t st ~model ~truth ~body ~t0, `Continue)
  | Ok Protocol.Stats -> finish ~verb:"stats" (handle_stats t, `Continue)
  | Ok Protocol.Metrics -> finish ~verb:"metrics" (handle_metrics t, `Continue)
  | Ok Protocol.Health -> finish ~verb:"health" (handle_health t, `Continue)
  | Ok Protocol.Shards -> finish ~verb:"shards" (handle_shards t, `Continue)
  | Ok (Protocol.Slowlog { n }) ->
    finish ~verb:"slowlog" (handle_slowlog t n, `Continue)
  | Ok Protocol.Shutdown -> finish ~verb:"shutdown" (Protocol.ok "bye", `Stop)

(* One binary frame, transport-free: decode, dispatch to the EST core,
   encode.  Same request/latency/error accounting as
   [handle_line_st], minus the text formatting. *)
let handle_frame_st t st payload =
  Metrics.incr t.metrics "requests";
  Metrics.incr t.metrics st.req_counter;
  let t0 = Obs.Clock.now_ns () in
  let finish ~verb ?model ?body r =
    observe_response t st ~verb ?model ?body
      ~dt_ns:(Obs.Clock.now_ns () - t0)
      ();
    Protocol.Bin.encode_response r
  in
  match Protocol.Bin.decode_request payload with
  | Error msg ->
    Metrics.incr t.metrics "protocol_errors";
    finish ~verb:"error" (Protocol.Bin.Berr msg)
  | Ok (Protocol.Bin.Best { model; body }) ->
    Metrics.incr t.metrics "est_requests";
    finish ~verb:"est" ?model ~body
      (match est_span (fun () -> est_body t st (resolve_model t model) body) with
      | le -> Protocol.Bin.Bvalue le.Lru.est
      | exception Rejected msg ->
        Metrics.incr t.metrics "est_errors";
        Protocol.Bin.Berr msg)
  | Ok (Protocol.Bin.Bestbatch { model; bodies }) ->
    Metrics.incr t.metrics "estbatch_requests";
    List.iter (fun _ -> Metrics.incr t.metrics "est_requests") bodies;
    finish ~verb:"estbatch"
      (match estbatch_core t st ~model ~bodies with
      | answers -> Protocol.Bin.Bvalues answers
      | exception Rejected msg ->
        Metrics.incr t.metrics "est_errors";
        Protocol.Bin.Berr msg)

(* ---- allocation-free fast path ---------------------------------------------

   The warm EST round trip — socket read to answer write — touches the
   heap zero times.  A request is recognized as a slice of the
   connection buffer ({!Protocol.Slice}) and handed to the EST core
   straight from the buffer: resolve, lex, canonicalize, hash, probe; a
   verified hit writes the entry's pre-rendered response bytes straight
   to the socket.  Misses and errors are answered here too — by the
   same core, with the reference error messages and accounting — so
   the reference path only sees lines the slice recognizers reject
   (other verbs, malformed EST lines).  Tracing does not switch paths:
   with a sink installed the same code emits its spans.  Tail sampling
   is skipped: a warm hit is answered far under any realistic capture
   threshold, and slow-path responses keep the threshold fresh. *)

let write_all_fd fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Answer one recognized EST slice ([st.slice] already filled); [bin]
   selects which rendering is written. *)
let fast_answer t st fd buf ~bin =
  let sl = st.slice in
  match
    est_core t st
      (resolve t buf ~off:sl.Protocol.Slice.model_off
         ~len:sl.Protocol.Slice.model_len)
      buf ~off:sl.Protocol.Slice.body_off ~len:sl.Protocol.Slice.body_len
  with
  | le ->
    let sp = Obs.Span.enter "est.respond" in
    write_all_fd fd (if bin then le.Lru.bin else le.Lru.text);
    Obs.Span.exit sp
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    write_all_fd fd
      (if bin then Protocol.Bin.encode_response (Protocol.Bin.Berr msg)
       else Protocol.err msg ^ "\n")

(* The fast path owns every request its slice recognizer accepts.
   Closing the root span restores the domain's nesting even when a
   write raises mid-stage. *)
let fast_est t st fd buf ~bin =
  let t0 = Obs.Clock.now_ns () in
  Metrics.fast_est_request t.metrics;
  Metrics.bump t.metrics st.c_req;
  let root = Obs.Span.enter "est" in
  (match fast_answer t st fd buf ~bin with
  | () -> Obs.Span.exit root
  | exception e ->
    Obs.Span.exit root;
    raise e);
  Metrics.fast_est_latency_ns t.metrics (Obs.Clock.now_ns () - t0);
  true

let fast_line t st fd buf ~off ~len =
  Protocol.Slice.est_line st.slice buf ~off ~len
  && fast_est t st fd buf ~bin:false

let fast_frame t st fd buf ~off ~len =
  Protocol.Slice.bin_est st.slice buf ~off ~len
  && fast_est t st fd buf ~bin:true

let fast_handlers t ~shard =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Server.fast_handlers: shard out of range";
  let st = t.shards.(shard) in
  ( (fun fd buf ~off ~len -> fast_line t st fd buf ~off ~len),
    (fun fd buf ~off ~len -> fast_frame t st fd buf ~off ~len) )

(* Transport-free entry points.  [handle_line]/[handle_frame] dispatch
   on shard 0 (embedded single-shard use, tests, benches);
   [handle_line_shard] picks an explicit shard so transport-free callers
   can drive the per-shard state the way the listener would. *)
let handle_line t line = handle_line_st t t.shards.(0) line
let handle_frame t payload = handle_frame_st t t.shards.(0) payload

let handle_line_shard t ~shard line =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Server.handle_line_shard: shard out of range";
  handle_line_st t t.shards.(shard) line

(* ---- listener + shard event loops ------------------------------------------ *)

let resolve_tcp host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  with
  | ai :: _ -> ai.Unix.ai_addr
  | [] -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

(* The accept loop: select over the Unix-domain and (optional) TCP
   listening sockets plus a stop pipe, round-robin accepted fds into
   shard mailboxes, and reject with BUSY when every shard is at its
   admission budget.  Handoff synchronizes once per connection; requests
   never cross this thread again. *)
let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists t.socket then (try Unix.unlink t.socket with Unix.Unix_error _ -> ());
  let unix_sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_sock (Unix.ADDR_UNIX t.socket);
  Unix.listen unix_sock t.backlog;
  let tcp_sock =
    match t.tcp with
    | None -> None
    | Some (host, port) ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (resolve_tcp host port);
      Unix.listen s t.backlog;
      Some s
  in
  Log.info (fun m ->
      m "listening on %s%s (%d domain%s, max_inflight %d/shard, backlog %d)"
        t.socket
        (match t.tcp with
        | None -> ""
        | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p)
        (Array.length t.shards)
        (if Array.length t.shards = 1 then "" else "s")
        t.max_inflight t.backlog);
  let stop = t.stop_flag in
  let rts = Array.map (fun st -> Shard.create ~sid:st.sid) t.shards in
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_w;
  let request_stop () =
    (* Unconditional: a duplicate wake is a harmless extra pipe byte
       (EAGAIN swallowed), and guarding on an exchange would let an
       external {!shutdown} that latched the flag first skip the wake. *)
    Atomic.set stop true;
    (try ignore (Unix.write stop_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Array.iter Shard.wake rts
  in
  Atomic.set t.waker request_stop;
  let workers =
    Array.mapi
      (fun i rt ->
        let st = t.shards.(i) in
        Domain.spawn (fun () ->
            Shard.run rt ~stop ~request_stop
              ~on_line_fast:(fun fd buf ~off ~len ->
                fast_line t st fd buf ~off ~len)
              ~on_frame_fast:(fun fd buf ~off ~len ->
                fast_frame t st fd buf ~off ~len)
              ~on_line:(fun line -> handle_line_st t st line)
              ~on_frame:(fun payload -> handle_frame_st t st payload)
              ~on_close:(fun () ->
                ignore (Atomic.fetch_and_add st.inflight (-1)))
              ~on_protocol_error:(fun () ->
                Metrics.incr t.metrics "protocol_errors")
              ()))
      rts
  in
  let listeners = unix_sock :: Option.to_list tcp_sock in
  let nshards = Array.length t.shards in
  let next = ref 0 in
  let dispatch fd =
    (* Round-robin with a linear probe past shards at their budget, so a
       slow shard sheds to its neighbours before anyone is rejected. *)
    let rec pick k =
      if k = nshards then None
      else
        let i = (!next + k) mod nshards in
        if Atomic.get t.shards.(i).inflight < t.max_inflight then Some i
        else pick (k + 1)
    in
    match pick 0 with
    | Some i ->
      next := (i + 1) mod nshards;
      Atomic.incr t.shards.(i).inflight;
      Atomic.incr t.shards.(i).accepted;
      Shard.submit rts.(i) fd
    | None ->
      Metrics.incr t.metrics "admission_rejected";
      (try
         write_all_fd fd
           (Protocol.busy
              (Printf.sprintf "all %d shards at max_inflight=%d — retry later"
                 nshards t.max_inflight)
           ^ "\n")
       with Unix.Unix_error _ | Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  while not (Atomic.get stop) do
    match Unix.select (stop_r :: listeners) [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun lsock ->
          if List.memq lsock readable then
            match Unix.accept lsock with
            | exception Unix.Unix_error _ -> ()
            | fd, _ -> dispatch fd)
        listeners
  done;
  Array.iter Shard.wake rts;
  Array.iter Domain.join workers;
  Array.iter Shard.destroy rts;
  List.iter
    (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
    listeners;
  (try Unix.close stop_r with Unix.Unix_error _ -> ());
  (try Unix.close stop_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket with Unix.Unix_error _ -> ());
  (* Drain the JSONL trace sink before the final report: a SHUTDOWN must
     not strand buffered span records in a dying process. *)
  Obs.Trace_log.close ();
  Log.info (fun m ->
      m "shut down after %d requests@.%a" (Metrics.get t.metrics "requests") Metrics.pp
        t.metrics)

let shutdown t =
  (* Latch first so a [run] that has not yet installed its waker still
     observes the flag before its first select; then kick the installed
     waker (no-op pre-[run], stop-pipe write + shard wakes after). *)
  Atomic.set t.stop_flag true;
  (Atomic.get t.waker) ()
