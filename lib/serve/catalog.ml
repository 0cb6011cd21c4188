module Obs = Selest_obs

type kind = Counter | Gauge | Histogram

type value =
  | Int of int
  | Float of float
  | Latency of Obs.Histogram.t
  | Qerror of Obs.Qerror.t

(* ---- what a snapshot reads ------------------------------------------------- *)

type shard_source = {
  lru : Lru.t;
  plans : Plan_cache.t;
  inflight : int Atomic.t;
  accepted : int Atomic.t;
  requests_key : string;
}

type source = {
  metrics : Metrics.t;
  registry : Registry.t;
  slowlog : Obs.Slowlog.t;
  shard_sources : shard_source array;
  slo_p99_us : float;
  slo_qerror : float;
}

type shard = {
  requests : int;
  inflight : int;
  accepted : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_collisions : int;
  cache_entries : int;
  cache_bytes : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  plan_collisions : int;
  plan_entries : int;
  plan_carried : int;
}

type snapshot = {
  tel : Obs.Telemetry.snapshot;
  tel_shards : int;
  shards : shard array;
  models : int;
  registry_epoch : int;
  qerrors : (string * Obs.Qerror.t) list;
  slowlog_captured : int;
  slowlog_held : int;
  slo_p99_us : float;
  slo_qerror : float;
}

let snapshot src =
  let tel = Obs.Telemetry.snapshot (Metrics.telemetry src.metrics) in
  let read_shard s =
    let plan_hits, plan_misses, plan_evictions = Plan_cache.stats s.plans in
    {
      requests = Obs.Telemetry.Snapshot.find_counter tel s.requests_key;
      inflight = Atomic.get s.inflight;
      accepted = Atomic.get s.accepted;
      cache_hits = Lru.hits s.lru;
      cache_misses = Lru.misses s.lru;
      cache_evictions = Lru.evictions s.lru;
      cache_collisions = Lru.collisions s.lru;
      cache_entries = Lru.length s.lru;
      cache_bytes = Lru.bytes s.lru;
      plan_hits;
      plan_misses;
      plan_evictions;
      plan_collisions = Plan_cache.collisions s.plans;
      plan_entries = Plan_cache.length s.plans;
      plan_carried = Plan_cache.carried s.plans;
    }
  in
  {
    tel;
    tel_shards = Obs.Telemetry.n_shards (Metrics.telemetry src.metrics);
    shards = Array.map read_shard src.shard_sources;
    models = Registry.size src.registry;
    registry_epoch = Registry.Epoch.current_epoch src.registry;
    qerrors = Metrics.qerror_tables src.metrics;
    slowlog_captured = Obs.Slowlog.total src.slowlog;
    slowlog_held = Obs.Slowlog.length src.slowlog;
    slo_p99_us = src.slo_p99_us;
    slo_qerror = src.slo_qerror;
  }

(* ---- SLO arithmetic ---------------------------------------------------------- *)

let burn ~violations ~n =
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

let qerror_burn snap qe =
  let n, violations = qerror_violations ~gate:snap.slo_qerror qe in
  burn ~violations ~n

(* ---- the families -------------------------------------------------------------- *)

type family = {
  name : string;
  kind : kind;
  unit : string;
  help : string;
  label : string option;
  stats : string option;
  read : snapshot -> (string * value) list;
}

let counter_of snap key = Obs.Telemetry.Snapshot.find_counter snap.tel key

let lat snap =
  match Obs.Telemetry.Snapshot.find_hist snap.tel Metrics.lat_key with
  | Some h -> h
  | None -> Obs.Histogram.create ()

let sum snap f = Array.fold_left (fun acc s -> acc + f s) 0 snap.shards

(* Telemetry slots named [prefix ^ label], with the label. *)
let with_prefix prefix slots =
  let n = String.length prefix in
  List.filter_map
    (fun (k, v) ->
      if String.length k > n && String.sub k 0 n = prefix then
        Some (String.sub k n (String.length k - n), v)
      else None)
    slots

(* A service counter: one telemetry slot, its STATS key the slot name. *)
let tel_counter ?(unit = "requests") name key help =
  { name; kind = Counter; unit; help; label = None; stats = Some key;
    read = (fun s -> [ ("", Int (counter_of s key)) ]) }

let scalar kind ~unit name key help f =
  { name; kind; unit; help; label = None; stats = Some key;
    read = (fun s -> [ ("", f s) ]) }

let per_shard kind ~unit name key help f =
  { name; kind; unit; help; label = Some "shard"; stats = Some ("shard.*." ^ key);
    read =
      (fun s ->
        Array.to_list (Array.mapi (fun i sh -> (string_of_int i, Int (f sh))) s.shards)) }

let families =
  [ tel_counter ~unit:"connections" "selest_admission_rejected_total"
      "admission_rejected" "connections answered BUSY at the admission budget";
    tel_counter ~unit:"connections" "selest_conn_errors_total" "conn_errors"
      "connections closed because a request handler raised";
    tel_counter "selest_est_errors_total" "est_errors"
      "estimate-shaped requests answered ERR";
    tel_counter "selest_est_requests_total" "est_requests"
      "estimates requested (EST and each ESTBATCH body)";
    tel_counter "selest_estbatch_requests_total" "estbatch_requests" "ESTBATCH requests";
    tel_counter "selest_explain_requests_total" "explain_requests" "EXPLAIN requests";
    tel_counter "selest_explainplan_requests_total" "explainplan_requests"
      "EXPLAINPLAN requests";
    tel_counter ~unit:"ns" "selest_frontend_canon_ns_total" "frontend.canon_ns"
      "time canonicalizing estimate bodies";
    tel_counter ~unit:"ns" "selest_frontend_key_ns_total" "frontend.key_ns"
      "time hashing estimate-cache keys";
    tel_counter ~unit:"ns" "selest_frontend_parse_ns_total" "frontend.parse_ns"
      "time lexing estimate bodies";
    tel_counter "selest_load_errors_total" "load_errors" "LOAD requests that failed";
    tel_counter ~unit:"models" "selest_loads_total" "loads" "models loaded";
    tel_counter "selest_protocol_errors_total" "protocol_errors"
      "malformed request lines and frames";
    tel_counter "selest_requests_total" "requests" "requests served";
    tel_counter "selest_truth_requests_total" "truth_requests" "TRUTH requests";
    tel_counter ~unit:"entries" "selest_ve_entries_touched_total" "ve.entries_touched"
      "factor entries read or written by inferences";
    tel_counter ~unit:"ops" "selest_ve_factor_ops_total" "ve.factor_ops"
      "factor contractions run by inferences";
    { name = "selest_infer_total"; kind = Counter; unit = "inferences";
      help = "inference runs per model"; label = Some "model"; stats = Some "infer.*";
      read =
        (fun s ->
          List.map (fun (m, v) -> (m, Int v)) (with_prefix "infer." s.tel.Obs.Telemetry.counters)) };
    tel_counter ~unit:"programs" "selest_program_memo_hits" "plan.program_hits"
      "bytecode program-memo hits inside compiled plans";
    tel_counter ~unit:"programs" "selest_program_memo_misses" "plan.program_misses"
      "bytecode program-memo misses (slow-path recomputes)";
    scalar Histogram ~unit:"us" "selest_request_latency_us" "lat"
      "request latency in microseconds" (fun s -> Latency (lat s));
    { name = "selest_verb_latency_us"; kind = Histogram; unit = "us";
      help = "per-verb request latency in microseconds"; label = Some "verb"; stats = None;
      read =
        (fun s ->
          List.map (fun (v, h) -> (v, Latency h))
            (with_prefix (Metrics.verb_key "") s.tel.Obs.Telemetry.hists)) };
    scalar Counter ~unit:"requests" "selest_cache_hits_total" "cache_hits"
      "estimate cache hits" (fun s -> Int (sum s (fun sh -> sh.cache_hits)));
    scalar Counter ~unit:"requests" "selest_cache_misses_total" "cache_misses"
      "estimate cache misses" (fun s -> Int (sum s (fun sh -> sh.cache_misses)));
    scalar Counter ~unit:"entries" "selest_cache_evictions_total" "cache_evictions"
      "estimate cache evictions" (fun s -> Int (sum s (fun sh -> sh.cache_evictions)));
    scalar Counter ~unit:"requests" "selest_cache_collisions_total" "cache_collisions"
      "estimate cache hash hits whose full-key verification failed"
      (fun s -> Int (sum s (fun sh -> sh.cache_collisions)));
    tel_counter ~unit:"entries" "selest_cache_carried_total" "cache_carried"
      "estimates a reload answered on the new version before its publish";
    scalar Gauge ~unit:"entries" "selest_cache_entries" "cache_entries"
      "estimate cache entries" (fun s -> Int (sum s (fun sh -> sh.cache_entries)));
    scalar Gauge ~unit:"bytes" "selest_cache_bytes" "cache_bytes" "estimate cache bytes"
      (fun s -> Int (sum s (fun sh -> sh.cache_bytes)));
    scalar Gauge ~unit:"models" "selest_models" "models" "loaded models"
      (fun s -> Int s.models);
    scalar Gauge ~unit:"epoch" "selest_registry_epoch" "registry_epoch"
      "registry snapshot epoch (bumps on LOAD)" (fun s -> Int s.registry_epoch);
    scalar Counter ~unit:"requests" "selest_plan_cache_hits_total" "plan_cache_hits"
      "compiled-plan cache hits" (fun s -> Int (sum s (fun sh -> sh.plan_hits)));
    scalar Counter ~unit:"requests" "selest_plan_cache_misses_total" "plan_cache_misses"
      "compiled-plan cache misses" (fun s -> Int (sum s (fun sh -> sh.plan_misses)));
    scalar Counter ~unit:"plans" "selest_plan_cache_carried_total" "plan_cache_carried"
      "plans compiled for a reloaded model before its publish (also counted as misses)"
      (fun s -> Int (sum s (fun sh -> sh.plan_carried)));
    scalar Counter ~unit:"plans" "selest_plan_cache_evictions_total" "plan_cache_evictions"
      "compiled-plan cache evictions" (fun s -> Int (sum s (fun sh -> sh.plan_evictions)));
    scalar Counter ~unit:"requests" "selest_plan_cache_collisions_total"
      "plan_cache_collisions" "plan cache hash hits whose full-key verification failed"
      (fun s -> Int (sum s (fun sh -> sh.plan_collisions)));
    scalar Gauge ~unit:"plans" "selest_plan_cache_entries" "plan_cache_entries"
      "compiled-plan cache entries" (fun s -> Int (sum s (fun sh -> sh.plan_entries)));
    scalar Gauge ~unit:"shards" "selest_domains" "domains" "executor shards (domains)"
      (fun s -> Int (Array.length s.shards));
    per_shard Counter ~unit:"requests" "selest_shard_requests_total" "requests"
      "requests served per shard" (fun sh -> sh.requests);
    per_shard Gauge ~unit:"connections" "selest_shard_inflight" "inflight"
      "live connections per shard" (fun sh -> sh.inflight);
    per_shard Counter ~unit:"connections" "selest_shard_accepted_total" "accepted"
      "connections handed to each shard" (fun sh -> sh.accepted);
    { name = "selest_qerror"; kind = Histogram; unit = "ratio";
      help = "q-error of estimates vs supplied ground truth"; label = Some "model";
      stats = Some "qerr.*";
      read = (fun s -> List.map (fun (m, qe) -> (m, Qerror qe)) s.qerrors) };
    scalar Counter ~unit:"captures" "selest_slowlog_captured_total" "slowlog_captures"
      "tail-sampled slow-log captures" (fun s -> Int s.slowlog_captured);
    scalar Gauge ~unit:"entries" "selest_slowlog_entries" "slowlog_entries"
      "slow-log entries held" (fun s -> Int s.slowlog_held);
    scalar Gauge ~unit:"ratio" "selest_slo_latency_burn" "slo.latency_burn"
      "latency SLO error-budget burn (lifetime)"
      (fun s ->
        let n, violations = latency_violations ~slo_p99_us:s.slo_p99_us (lat s) in
        Float (burn ~violations ~n));
    { name = "selest_slo_qerror_burn"; kind = Gauge; unit = "ratio";
      help = "q-error SLO error-budget burn"; label = Some "model";
      stats = Some "slo.qerror_burn.*";
      read = (fun s -> List.map (fun (m, qe) -> (m, Float (qerror_burn s qe))) s.qerrors) } ]

let int snap ?(label = "") name =
  match List.assoc label ((List.find (fun f -> f.name = name) families).read snap) with
  | Int v -> v
  | _ -> invalid_arg ("Catalog.int: " ^ name)

let kind_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* ---- STATS ---------------------------------------------------------------------- *)

let stats_key pattern label =
  match String.index_opt pattern '*' with
  | None -> pattern
  | Some i ->
    String.sub pattern 0 i ^ label
    ^ String.sub pattern (i + 1) (String.length pattern - i - 1)

let stats_pairs snap =
  List.concat_map
    (fun f ->
      match f.stats with
      | None -> []
      | Some pattern ->
        List.concat_map
          (fun (label, v) ->
            let key = stats_key pattern label in
            match v with
            | Int n -> [ (key, string_of_int n) ]
            | Float x -> [ (key, Printf.sprintf "%.6g" x) ]
            | Latency h -> Metrics.latency_pairs key h
            | Qerror qe ->
              let s = Obs.Qerror.summarize qe in
              let g v = Printf.sprintf "%.3g" v in
              [ (key ^ ".n", string_of_int s.Obs.Qerror.n);
                (key ^ ".mean", g s.Obs.Qerror.mean);
                (key ^ ".p50", g s.Obs.Qerror.p50);
                (key ^ ".p90", g s.Obs.Qerror.p90);
                (key ^ ".max", g s.Obs.Qerror.max_q) ])
          (f.read snap))
    families

(* ---- METRICS --------------------------------------------------------------------- *)

let prometheus snap =
  let open Obs.Prometheus in
  String.concat ""
    (List.map
       (fun f ->
         let help = Printf.sprintf "%s [%s]" f.help f.unit and name = f.name in
         let labels l = match f.label with None -> [] | Some k -> [ (k, l) ] in
         match f.read snap with
         | [] -> header ~name ~help ~kind:(kind_string f.kind)
         | samples ->
           render
             (List.map
                (fun (l, v) ->
                  let labels = labels l in
                  match (f.kind, v) with
                  | Counter, Int n -> Counter { name; help; labels; value = float_of_int n }
                  | Gauge, Int n -> Gauge { name; help; labels; value = float_of_int n }
                  | Gauge, Float x -> Gauge { name; help; labels; value = x }
                  | Histogram, Latency h ->
                    Histogram
                      { name; help; labels; buckets = Obs.Histogram.buckets_us h;
                        sum = float_of_int (Obs.Histogram.sum_ns h) /. 1e3;
                        count = Obs.Histogram.count h }
                  | Histogram, Qerror qe ->
                    let s = Obs.Qerror.summarize qe in
                    Histogram
                      { name; help; labels; buckets = Obs.Qerror.buckets qe;
                        sum =
                          (if s.Obs.Qerror.n = 0 then 0.0
                           else s.Obs.Qerror.mean *. float_of_int s.Obs.Qerror.n);
                        count = s.Obs.Qerror.n }
                  | _ -> invalid_arg ("Catalog.prometheus: value of the wrong kind for " ^ name))
                samples))
       families)
