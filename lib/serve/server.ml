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
  mutable c_infer : (string * Selest_obs.Telemetry.counter_handle) list;
      (* "infer.<model>" handles, registered on a model's first miss *)
  hot : Obs.Hotpath.t;  (* the current miss's kernel-counter delta *)
  inflight : int Atomic.t;  (* live connections owned by this shard *)
  accepted : int Atomic.t;  (* connections ever handed to this shard *)
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
  catalog : Catalog.source;  (* what STATS / METRICS / HEALTH / SHARDS read *)
  avi : Selest_est.Estimator.t option Atomic.t;
      (* lazily-built AVI baseline: EXPLAINPLAN's fallback oracle for
         sub-queries the model cannot price *)
  (* ---- telemetry / SLO surface ---- *)
  slowlog : Obs.Slowlog.t;
  slow_quantile : float;  (* latency capture threshold quantile *)
  qerror_gate : float;  (* TRUTH q-error above this is captured *)
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
        {
          sid;
          scache = Lru.create ~capacity_bytes:cache_bytes;
          splans = Plan_cache.create ();
          scratch = Squery.create symtab;
          slice = Protocol.Slice.create ();
          c_req = Metrics.counter_handle metrics (Metrics.shard_key sid "requests");
          c_infer = [];
          hot = Obs.Hotpath.create ();
          inflight = Atomic.make 0;
          accepted = Atomic.make 0;
        })
  in
  let registry = Registry.create ~schema:(Database.schema db) in
  let slowlog = Obs.Slowlog.create ~capacity:slowlog_capacity () in
  {
    db;
    sizes = Selest_plan.Estimate.sizes_of_db db;
    symtab;
    socket;
    tcp;
    max_inflight;
    backlog;
    registry;
    shards;
    metrics;
    catalog =
      {
        Catalog.metrics;
        registry;
        slowlog;
        shard_sources =
          Array.map
            (fun st ->
              {
                Catalog.lru = st.scache;
                plans = st.splans;
                inflight = st.inflight;
                accepted = st.accepted;
                requests_key = Metrics.shard_key st.sid "requests";
              })
            shards;
        slo_p99_us;
        slo_qerror;
      };
    avi = Atomic.make None;
    slowlog;
    slow_quantile;
    qerror_gate;
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
let snapshot t = Catalog.snapshot t.catalog

(* ---- the EST core ------------------------------------------------------------

   Every estimate a request asks for — the wire fast path, text and
   binary EST, ESTBATCH body by body, TRUTH and EXPLAIN — runs
   [resolve] then [est_core]: pin the registry, lex the
   body into the shard scratch, canonicalize, hash, probe the shard's
   estimate cache and, on a miss, adopt the answer a reload carried for
   the query or else fetch the skeleton's plan, execute it on the
   bytecode engine and fill the cache.  Stages are bracketed with
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
   recounted as a miss and counted as a collision, then treated as a
   miss (the subsequent {!Lru.add} overwrites the resident).
   Allocation-free either way. *)
let probe st ~name ~version hash =
  let entry = Lru.find st.scache hash in
  if
    entry.Lru.version = version
    && String.equal entry.Lru.model name
    && Squery.Vec.matches entry.Lru.vec st.scratch
  then entry
  else begin
    Lru.collision st.scache;
    raise Not_found
  end

(* Pre-render both wire responses when an entry is filled, so warm hits
   write stored bytes straight to the socket.  The text is
   ["OK " ^ Printf.sprintf "%.17g" est ^ "\n"] built in one exact-size
   string: Printf's [%g] is this very [caml_format_float] call. *)
external format_float : string -> float -> string = "caml_format_float"

let render_ok est =
  let s = format_float "%.17g" est in
  let n = String.length s in
  let b = Bytes.create (n + 4) in
  Bytes.blit_string "OK " 0 b 0 3;
  Bytes.blit_string s 0 b 3 n;
  Bytes.set b (n + 3) '\n';
  Bytes.unsafe_to_string b

let make_entry ~name ~version ~vec est =
  {
    Lru.est;
    text = render_ok est;
    bin = Protocol.Bin.encode_response (Protocol.Bin.Bvalue est);
    vec;
    model = name;
    version;
  }

(* The plan cache keys on the binding-independent half of the same
   split: model name and version plus the query's skeleton, folded from
   the canonical scratch's interned ids ({!Canon.Skel.scratch_hash}).
   A hit is verified against the key stored with the plan; that key is
   built, and the canonical query materialized, only when a plan is
   compiled.  Hot-reloading bumps the version, so a stale model's plans
   can never be fetched again — on every shard, since every shard's
   keys carry the version.  A skeleton missing here is first looked up
   in the version's carried plans, which a reload compiled before its
   publish, and compiled only when it is not there.  EST bodies and
   EXPLAINPLAN's sub-queries (loaded into the scratch) share this one
   key space. *)
let scratch_plan st ~name ~(entry : Registry.entry) =
  let version = entry.Registry.version and s = st.scratch in
  let sp = Obs.Span.enter "plan.fetch" in
  match
    Plan_cache.probe st.splans entry.Registry.plans
      ~hash:(Canon.Skel.scratch_hash ~name ~version s)
      ~verify:(fun key s -> Canon.Skel.scratch_matches key ~name ~version s)
      ~key:(fun s -> Canon.Skel.scratch_key ~name ~version s)
      ~compile:(fun s -> Plan.compile entry.Registry.model (Squery.to_query s))
      s
  with
  | plan, status ->
    Obs.Span.add sp "cached" (match status with `Hit -> "hit" | `Miss -> "miss");
    Obs.Span.exit sp;
    plan
  | exception e ->
    Obs.Span.exit sp;
    raise e

(* A materialized query's plan (EXPLAINPLAN's sub-queries), keyed like
   an EST body: loaded into the shard scratch and canonicalized. *)
let plan_for st ~name ~entry q =
  Squery.load_query st.scratch q;
  Squery.canon st.scratch;
  scratch_plan st ~name ~entry

(* Top-level recursion, so a lookup builds no closure. *)
let rec find_counter name = function
  | (n, h) :: rest -> if String.equal n name then h else find_counter name rest
  | [] -> raise Not_found

(* The shard's "infer.<name>" handle, registered the first time the
   shard counts an inference for that model name. *)
let infer_counter t st name =
  match find_counter name st.c_infer with
  | h -> h
  | exception Not_found ->
    let h = Metrics.counter_handle t.metrics ("infer." ^ name) in
    st.c_infer <- (name, h) :: st.c_infer;
    h

(* Execute [plan] with the scratch's selects written straight into the
   program's evidence slots, and render the cache entry (the scratch
   also provides the entry's canonical snapshot).  The one compute path:
   a request's miss and a reload's carried answers both run it, so a
   carried answer is bit for bit the one a request would compute. *)
let answer t st ~name ~version plan =
  make_entry ~name ~version ~vec:(Squery.Vec.of_scratch st.scratch)
    (Plan.execute_scratch plan st.scratch *. Plan.scale plan ~sizes:t.sizes)

(* The miss half: fetch (or compile) the skeleton's plan, [answer] on
   it and fill the shard's estimate cache with the fully rendered
   entry.  The kernel counters the request moved are read before and
   after into [st.hot] and rolled up through handles.  [on_plan] sees
   the plan that ran (EXPLAIN renders it). *)
let infer t st ~on_plan ~name ~(entry : Registry.entry) ~hash =
  Obs.Hotpath.begin_delta st.hot;
  match
    let plan = scratch_plan st ~name ~entry in
    on_plan plan;
    answer t st ~name ~version:entry.Registry.version plan
  with
  | le ->
    Obs.Hotpath.end_delta st.hot;
    Lru.add st.scache hash le;
    Metrics.bump t.metrics (infer_counter t st name);
    Metrics.kernel_delta t.metrics st.hot;
    le
  | exception exn ->
    Obs.Hotpath.end_delta st.hot;
    raise (Rejected (Printexc.to_string exn))

(* A miss the version's carried answers cover: the entry a reload
   computed for this query before publishing the version, verified like
   a hit and adopted into the shard's cache.  Its skeleton's carried
   plan is fetched too (nothing compiles: the answer was carried only
   because the plan was), so the skeleton joins the version's fetched
   record and the next reload carries it again.  Raises [Not_found]
   when nothing carried matches. *)
let adopt st ~name (e : Registry.entry) hash =
  let le = Lru.Carried.find e.Registry.estimates hash in
  if Squery.Vec.matches le.Lru.vec st.scratch then begin
    ignore (scratch_plan st ~name ~entry:e : Plan.t);
    Lru.adopt st.scache hash le;
    le
  end
  else raise Not_found

(* ---- LOAD --------------------------------------------------------------------

   A reload publishes in three steps after deserializing: on this shard
   and under the registry's writer lock, it compiles the plans of every
   skeleton requests fetched under the version it replaces
   ({!Plan_cache.carry}), re-answers on those plans the queries this
   shard's estimate cache holds under that version ({!Lru.carry}: a
   query whose skeleton was not carried is skipped, never compiled),
   and then installs the entry.  After the publish the first estimate
   of each carried query is a hit on every shard ([adopt]), and of any
   other query a miss on a ready plan. *)
let carry_answers t st ~name ~(prev : Registry.entry) ~version plans =
  let s = st.scratch in
  Lru.carry st.scache ~cap:(Plan_cache.capacity st.splans)
    ~keep:(fun (le : Lru.entry) ->
      le.Lru.version = prev.Registry.version && String.equal le.Lru.model name)
    ~answer:(fun (le : Lru.entry) ->
      Squery.Vec.load le.Lru.vec s;
      let plan =
        Plan_cache.Shared.carried_plan plans
          ~hash:(Canon.Skel.scratch_hash ~name ~version s)
          ~verify:(fun key s -> Canon.Skel.scratch_matches key ~name ~version s)
          s
      in
      (est_hash st ~name ~version, answer t st ~name ~version plan))

let handle_load t st ~name ~path =
  let carry (prev : Registry.entry) ~version model =
    let plans =
      Plan_cache.carry st.splans prev.Registry.plans
        ~rekey:(fun key ->
          let k = Canon.Skel.rekey ~name ~version key in
          (k.Canon.Skel.hash, k.Canon.Skel.key))
        ~compile:(fun p -> Plan.compile model (Plan.query p))
    in
    let estimates = carry_answers t st ~name ~prev ~version plans in
    Metrics.incr ~by:(Lru.Carried.length estimates) t.metrics "cache_carried";
    (plans, estimates)
  in
  match Registry.load ~carry t.registry ~name ~path with
  | entry ->
    Metrics.incr t.metrics "loads";
    Log.info (fun m -> m "loaded %s version %d from %s" name entry.Registry.version path);
    Protocol.ok
      (Printf.sprintf "loaded %s version %d bytes %d" name entry.Registry.version
         (Selest_prm.Model.size_bytes entry.Registry.model))
  | exception Selest_prm.Serialize.Error msg ->
    Metrics.incr t.metrics "load_errors";
    Protocol.err msg

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
   cache entry.  [force] (EXPLAIN) probes the cache but
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
  match probe st ~name ~version hash with
  | entry when not force ->
    Obs.Span.exit sp;
    entry
  | (_ : Lru.entry) ->
    Obs.Span.add sp "cached" "hit";
    Obs.Span.exit sp;
    infer t st ~on_plan ~name ~entry:e ~hash
  | exception Not_found -> (
    (* [force] prices a real inference, so it adopts nothing *)
    match if force then raise Not_found else adopt st ~name e hash with
    | le ->
      Obs.Span.add sp "cached" "carried";
      Obs.Span.exit sp;
      le
    | exception Not_found ->
      Obs.Span.add sp "cached" "miss";
      Obs.Span.exit sp;
      infer t st ~on_plan ~name ~entry:e ~hash)

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
   not a stage counts toward its nearest stage ancestor.  Plan-cache lookup glue reports as
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
        est_span (fun () ->
            respond
              (fun le -> Printf.sprintf "%.17g" le.Lru.est)
              (est_body ~force:true
                 ~on_plan:(fun p -> plan := Some p)
                 t st (resolve_model t model) body)))
  with
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    Protocol.err msg
  | estimate, records ->
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
      (* the forced inference's kernel counters ([infer]'s delta) *)
      (Obs.Hotpath.to_pairs st.hot);
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
      Metrics.bump t.metrics (infer_counter t st name);
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
   on every request), so a capture replays the query once on the
   bytecode engine to reconstruct the est.parse / est.canon / est.cache
   / plan.fetch / exec.* tree of the path that served it.  A replay is
   not a request: it probes the estimate cache with [Lru.mem], takes the
   plan with [Plan_cache.peek] (compiling a throwaway one only when the
   skeleton is gone) and runs it, so no counter and no cache moves.
   Returns the canonical query text and the span tree; the raw body when
   the body no longer resolves, parses or runs. *)
let replay_spans t st ~model ~body =
  let replay () =
    let name, e = resolve_model t model in
    let version = e.Registry.version and s = st.scratch in
    let sp = Obs.Span.enter "est.parse" in
    parse_into st sp (Bytes.unsafe_of_string body) ~off:0 ~len:(String.length body);
    Obs.Span.exit sp;
    let sp = Obs.Span.enter "est.canon" in
    Squery.canon s;
    Obs.Span.exit sp;
    let sp = Obs.Span.enter "est.cache" in
    Obs.Span.add sp "cached"
      (if Lru.mem st.scache (est_hash st ~name ~version) then "hit" else "miss");
    Obs.Span.exit sp;
    let sp = Obs.Span.enter "plan.fetch" in
    let plan =
      match
        Plan_cache.peek st.splans e.Registry.plans
          ~hash:(Canon.Skel.scratch_hash ~name ~version s)
          ~verify:(fun key s -> Canon.Skel.scratch_matches key ~name ~version s)
          s
      with
      | plan -> plan
      | exception Not_found -> Plan.compile e.Registry.model (Squery.to_query s)
    in
    Obs.Span.exit sp;
    ignore (Plan.execute_scratch plan s : float);
    Canon.key (Squery.to_query s)
  in
  let outcome, records =
    Obs.Span.collect (fun () ->
        est_span (fun () ->
            match replay () with
            | key -> Some key
            | exception _ -> None))
  in
  (Option.value ~default:body outcome, records)

let capture t st ~verb ~reason ?model ?body ?qerror ~lat_ns () =
  let query, spans =
    match body with
    | None -> (verb, [])
    | Some b -> replay_spans t st ~model ~body:b
  in
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

(* ---- STATS / METRICS / HEALTH / SHARDS ---------------------------------------

   The four views render one {!Catalog.snapshot}, so a fact they share
   is read once, from the family that owns it. *)

let add_line buf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    fmt

let render_stats snap =
  Protocol.ok
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) (Catalog.stats_pairs snap)))

let render_metrics snap = Protocol.ok_multiline (Catalog.prometheus snap)

let threshold_us_string ns =
  if ns = max_int then "-" else Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

(* The SLO report.  Latency quantiles and the latency burn are computed
   over the window since the previous HEALTH (epoch / delta semantics of
   {!Obs.Telemetry.Snapshot.delta}; the first HEALTH reports since
   start), so repeated probes see fresh burn rates, not a lifetime
   average that a long good run can never move.  q-error burn is
   lifetime — ground truth is too rare to window. *)
let render_health t (snap : Catalog.snapshot) =
  let tel = snap.Catalog.tel in
  let window =
    match Atomic.exchange t.health_prev (Some tel) with
    | Some prev -> Obs.Telemetry.Snapshot.delta ~prev tel
    | None -> tel
  in
  let buf = Buffer.create 1024 in
  let line fmt = add_line buf fmt in
  let v name = Catalog.int snap name in
  let us ns = float_of_int ns /. 1e3 in
  let hq h p = us (Obs.Histogram.quantile_ns h p) in
  let lat_n, lat_viol, lat_burn, lat_p99 =
    match Obs.Telemetry.Snapshot.find_hist window Metrics.lat_key with
    | None -> (0, 0, 0.0, 0.0)
    | Some h ->
      let n, viol = Catalog.latency_violations ~slo_p99_us:snap.Catalog.slo_p99_us h in
      (n, viol, Catalog.burn ~violations:viol ~n, hq h 0.99)
  in
  let q_burns = List.map (fun (_, qe) -> Catalog.qerror_burn snap qe) snap.Catalog.qerrors in
  let healthy =
    lat_burn <= 1.0
    && List.for_all (fun b -> b <= 1.0) q_burns
    && v "selest_shard_exits_total" = 0
  in
  line "status=%s uptime_s=%.1f epoch=%d shards=%d requests=%d window_requests=%d"
    (if healthy then "ok" else "degraded")
    (float_of_int (Obs.Clock.now_ns () - t.start_ns) /. 1e9)
    tel.Obs.Telemetry.epoch snap.Catalog.tel_shards (v "selest_requests_total")
    (Obs.Telemetry.Snapshot.find_counter window "requests");
  (* per-verb latency quantiles over the window; "all" is the aggregate *)
  List.iter
    (fun (v, h) ->
      if Obs.Histogram.count h > 0 then
        line
          "verb=%s n=%d mean_us=%.1f p50_us=%.1f p95_us=%.1f p99_us=%.1f p999_us=%.1f max_us=%.1f"
          v (Obs.Histogram.count h)
          (Obs.Histogram.mean_ns h /. 1e3)
          (hq h 0.5) (hq h 0.95) (hq h 0.99) (hq h 0.999)
          (us (Obs.Histogram.max_ns_seen h)))
    (Option.to_list
       (Option.map (fun h -> ("all", h))
          (Obs.Telemetry.Snapshot.find_hist window Metrics.lat_key))
    @ Catalog.with_prefix (Metrics.verb_key "") window.Obs.Telemetry.hists);
  line
    "slo=latency target_p99_us=%.0f observed_p99_us=%.1f n=%d violations=%d burn=%.2f status=%s"
    snap.Catalog.slo_p99_us lat_p99 lat_n lat_viol lat_burn
    (if lat_burn <= 1.0 then "ok" else "breach");
  List.iter2
    (fun (name, qe) b ->
      let n, viol = Catalog.qerror_violations ~gate:snap.Catalog.slo_qerror qe in
      line
        "slo=qerror model=%s target_p99=%.1f observed_p99=%.3g n=%d violations=%d burn=%.2f status=%s"
        name snap.Catalog.slo_qerror (Obs.Qerror.summarize qe).Obs.Qerror.p99 n viol b
        (if b <= 1.0 then "ok" else "breach"))
    snap.Catalog.qerrors q_burns;
  let cache kind prefix =
    let hits = v (prefix ^ "_hits_total") and misses = v (prefix ^ "_misses_total") in
    line "cache=%s hits=%d misses=%d hit_rate=%.3f entries=%d" kind hits misses
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses))
      (v (prefix ^ "_entries"))
  in
  cache "estimate" "selest_cache";
  cache "plan" "selest_plan_cache";
  (* shard identity: one line per executor shard, so a hot or wedged
     shard is visible from the same probe as everything else *)
  Array.iteri
    (fun sid (sh : Catalog.shard) ->
      line "shard id=%d inflight=%d accepted=%d requests=%d cache_entries=%d" sid
        sh.Catalog.inflight sh.Catalog.accepted sh.Catalog.requests
        sh.Catalog.cache_entries)
    snap.Catalog.shards;
  List.iter
    (fun (name, qe) ->
      let s = Obs.Qerror.summarize qe in
      let f v = Printf.sprintf "%.3g" v in
      line "qerror model=%s n=%d mean=%s p50=%s p90=%s p99=%s max=%s" name
        s.Obs.Qerror.n (f s.Obs.Qerror.mean) (f s.Obs.Qerror.p50)
        (f s.Obs.Qerror.p90) (f s.Obs.Qerror.p99) (f s.Obs.Qerror.max_q))
    snap.Catalog.qerrors;
  line "slowlog captured=%d held=%d capacity=%d threshold_us=%s quantile=%.3f qerror_gate=%.1f"
    (v "selest_slowlog_captured_total")
    (v "selest_slowlog_entries")
    (Obs.Slowlog.capacity t.slowlog)
    (threshold_us_string (Atomic.get t.slow_threshold))
    t.slow_quantile t.qerror_gate;
  Protocol.ok_multiline (Buffer.contents buf)

(* The shard-per-domain introspection surface: layout first (domain
   count, admission budget, backlog, endpoints), then one line per shard
   with its live admission state and domain-local cache counters. *)
let render_shards t (snap : Catalog.snapshot) =
  let buf = Buffer.create 256 in
  let line fmt = add_line buf fmt in
  line "domains=%d max_inflight=%d backlog=%d socket=%s tcp=%s epoch=%d"
    (Catalog.int snap "selest_domains") t.max_inflight t.backlog t.socket
    (match t.tcp with
    | None -> "-"
    | Some (host, port) -> Printf.sprintf "%s:%d" host port)
    (Catalog.int snap "selest_registry_epoch");
  Array.iteri
    (fun sid (sh : Catalog.shard) ->
      line
        "shard id=%d inflight=%d accepted=%d requests=%d cache_entries=%d cache_hits=%d cache_misses=%d plan_entries=%d plan_hits=%d plan_misses=%d"
        sid sh.Catalog.inflight sh.Catalog.accepted sh.Catalog.requests
        sh.Catalog.cache_entries sh.Catalog.cache_hits sh.Catalog.cache_misses
        sh.Catalog.plan_entries sh.Catalog.plan_hits sh.Catalog.plan_misses)
    snap.Catalog.shards;
  Protocol.ok_multiline (Buffer.contents buf)

let view t snap = function
  | `Stats -> render_stats snap
  | `Metrics -> render_metrics snap
  | `Health -> render_health t snap
  | `Shards -> render_shards t snap

(* ---- SLOWLOG ---------------------------------------------------------------- *)

let handle_slowlog t n =
  let n = Option.value ~default:10 n in
  let entries = Obs.Slowlog.recent ~n t.slowlog in
  let buf = Buffer.create 512 in
  let line fmt = add_line buf fmt in
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

let handle_line_st t st line =
  Metrics.incr t.metrics "requests";
  Metrics.bump t.metrics st.c_req;
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
    finish ~verb:"load" (handle_load t st ~name ~path, `Continue)
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
  | Ok Protocol.Stats -> finish ~verb:"stats" (view t (snapshot t) `Stats, `Continue)
  | Ok Protocol.Metrics -> finish ~verb:"metrics" (view t (snapshot t) `Metrics, `Continue)
  | Ok Protocol.Health -> finish ~verb:"health" (view t (snapshot t) `Health, `Continue)
  | Ok Protocol.Shards -> finish ~verb:"shards" (view t (snapshot t) `Shards, `Continue)
  | Ok (Protocol.Slowlog { n }) ->
    finish ~verb:"slowlog" (handle_slowlog t n, `Continue)
  | Ok Protocol.Shutdown -> finish ~verb:"shutdown" (Protocol.ok "bye", `Stop)

(* One binary frame, transport-free: decode, dispatch to the EST core,
   encode.  Same request/latency/error accounting as
   [handle_line_st], minus the text formatting. *)
let handle_frame_st t st payload =
  Metrics.incr t.metrics "requests";
  Metrics.bump t.metrics st.c_req;
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
   verified hit returns the entry's pre-rendered response bytes, which
   the shard loop writes as they are.  Misses and errors are answered
   here too — by the same core, with the reference error messages and
   accounting — so the reference path only sees lines the slice
   recognizers reject (other verbs, malformed EST lines).  Tracing does
   not switch paths: with a sink installed the same code emits its
   spans.  Tail sampling is skipped: a warm hit is answered far under
   any realistic capture threshold, and slow-path responses keep the
   threshold fresh. *)

(* Answer one recognized EST slice ([st.slice] already filled); [bin]
   selects which rendering is returned. *)
let fast_answer t st buf ~bin =
  let sl = st.slice in
  match
    est_core t st
      (resolve t buf ~off:sl.Protocol.Slice.model_off
         ~len:sl.Protocol.Slice.model_len)
      buf ~off:sl.Protocol.Slice.body_off ~len:sl.Protocol.Slice.body_len
  with
  | le ->
    let sp = Obs.Span.enter "est.respond" in
    let reply = if bin then le.Lru.bin else le.Lru.text in
    Obs.Span.exit sp;
    reply
  | exception Rejected msg ->
    Metrics.incr t.metrics "est_errors";
    if bin then Protocol.Bin.encode_response (Protocol.Bin.Berr msg)
    else Protocol.err msg ^ "\n"

(* The fast path owns every request its slice recognizer accepts.  Its
   latency ends when the reply goes back to the loop, as the reference
   path's does. *)
let fast_est t st buf ~bin =
  let t0 = Obs.Clock.now_ns () in
  Metrics.fast_est_request t.metrics;
  Metrics.bump t.metrics st.c_req;
  let root = Obs.Span.enter "est" in
  let reply =
    match fast_answer t st buf ~bin with
    | r -> Obs.Span.exit root; r
    | exception e -> Obs.Span.exit root; raise e
  in
  Metrics.fast_est_latency_ns t.metrics (Obs.Clock.now_ns () - t0);
  reply

let shutdown t =
  (* Latch first so a [run] that has not yet installed its waker still
     observes the flag before its first select; then kick the installed
     waker (no-op pre-[run], stop-pipe write + shard wakes after). *)
  Atomic.set t.stop_flag true;
  (Atomic.get t.waker) ()

(* The shard loop's two handlers: one message slice in, its complete
   reply out.  A recognized EST takes the fast path; anything else is
   copied out for the reference dispatch.  [SHUTDOWN] latches the stop
   before its reply goes back, so the loop answers nothing after it. *)
let line_reply t st buf ~off ~len =
  if Protocol.Slice.est_line st.slice buf ~off ~len then fast_est t st buf ~bin:false
  else begin
    let reply, action = handle_line_st t st (Bytes.sub_string buf off len) in
    if action = `Stop then shutdown t;
    reply ^ "\n"
  end

let frame_reply t st buf ~off ~len =
  if Protocol.Slice.bin_est st.slice buf ~off ~len then fast_est t st buf ~bin:true
  else handle_frame_st t st (Bytes.sub buf off len)

let run_shard t rt =
  let sid = Shard.sid rt in
  if sid < 0 || sid >= Array.length t.shards then
    invalid_arg "Server.run_shard: shard out of range";
  let st = t.shards.(sid) in
  try
    Shard.run rt ~stop:t.stop_flag
      ~on_line:(fun buf ~off ~len -> line_reply t st buf ~off ~len)
      ~on_frame:(fun buf ~off ~len -> frame_reply t st buf ~off ~len)
      ~on_close:(fun () -> ignore (Atomic.fetch_and_add st.inflight (-1)))
      ~on_protocol_error:(fun () -> Metrics.incr t.metrics "protocol_errors")
      ~on_conn_error:(fun e ->
        Metrics.incr t.metrics "conn_errors";
        Log.err (fun m ->
            m "shard %d: closed a connection whose request raised %s" sid
              (Printexc.to_string e)))
  with e ->
    Metrics.incr t.metrics "shard_exits";
    Log.err (fun m -> m "shard %d: event loop exited on %s" sid (Printexc.to_string e))

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
  let rts = Array.map (fun st -> Shard.create Shard.unix ~sid:st.sid) t.shards in
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
  let workers = Array.map (fun rt -> Domain.spawn (fun () -> run_shard t rt)) rts in
  let listeners = unix_sock :: Option.to_list tcp_sock in
  let nshards = Array.length t.shards in
  let next = ref 0 in
  let reject fd why =
    Metrics.incr t.metrics "admission_rejected";
    (* one best-effort write: the line is short and the socket new *)
    let line = Protocol.busy why ^ "\n" in
    (try ignore (Unix.write_substring fd line 0 (String.length line))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
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
      reject fd
        (Printf.sprintf "all %d shards at max_inflight=%d — retry later" nshards
           t.max_inflight)
  in
  (* One fd held in reserve.  When the process runs out of descriptors,
     [accept] fails and leaves the connection in the backlog, so the
     listener would wake for it again at once, forever: instead the spare
     is released to accept it, answer BUSY and close it, then taken
     back. *)
  let open_spare () =
    try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
    with Unix.Unix_error _ -> None
  in
  let spare = ref (open_spare ()) in
  let shed lsock =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !spare;
    (match Unix.accept lsock with
    | fd, _ -> reject fd "out of file descriptors — retry later"
    | exception Unix.Unix_error _ -> ());
    spare := open_spare ()
  in
  while not (Atomic.get stop) do
    match Unix.select (stop_r :: listeners) [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun lsock ->
          if List.memq lsock readable then
            match Unix.accept lsock with
            | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> shed lsock
            | exception Unix.Unix_error _ -> ()
            | fd, _ -> dispatch fd)
        listeners
  done;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !spare;
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
      m "shut down after %d requests@.%s" (Metrics.get t.metrics "requests")
        (String.concat "\n"
           (List.map (fun (k, v) -> k ^ "=" ^ v) (Catalog.stats_pairs (snapshot t)))))
