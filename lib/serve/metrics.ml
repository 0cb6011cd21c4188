module Obs = Selest_obs

(* The request path records into per-domain Telemetry shards — lock-free
   after a slot exists — and every read here merges shards on demand.
   The aggregate request-latency histogram lives under [lat_all]; each
   verb additionally gets its own histogram under "lat.<verb>". *)
let lat_all = "lat"
let verb_prefix = "lat."

(* Pre-registered telemetry handles for the allocation-free request
   front-end: the warm EST fast path bumps these by integer id — no
   string hashing, no [find_opt] boxing — while everything else keeps
   the string-keyed API.  The four [frontend.*] counters accumulate
   nanoseconds (parse / canonicalize / key-hash) and the count of
   estimate-cache hash hits whose full-key verification failed. *)
type t = {
  tel : Obs.Telemetry.t;
  h_lat : Obs.Telemetry.hist_handle;  (* the aggregate "lat" histogram *)
  h_lat_est : Obs.Telemetry.hist_handle;  (* "lat.est" *)
  c_requests : Obs.Telemetry.counter_handle;
  c_est_requests : Obs.Telemetry.counter_handle;
  c_frontend_parse : Obs.Telemetry.counter_handle;
  c_frontend_canon : Obs.Telemetry.counter_handle;
  c_frontend_key : Obs.Telemetry.counter_handle;
  c_frontend_collisions : Obs.Telemetry.counter_handle;
}

let create () =
  let tel = Obs.Telemetry.create () in
  {
    tel;
    h_lat = Obs.Telemetry.hist_handle tel lat_all;
    h_lat_est = Obs.Telemetry.hist_handle tel (verb_prefix ^ "est");
    c_requests = Obs.Telemetry.counter_handle tel "requests";
    c_est_requests = Obs.Telemetry.counter_handle tel "est_requests";
    c_frontend_parse = Obs.Telemetry.counter_handle tel "frontend.parse_ns";
    c_frontend_canon = Obs.Telemetry.counter_handle tel "frontend.canon_ns";
    c_frontend_key = Obs.Telemetry.counter_handle tel "frontend.key_ns";
    c_frontend_collisions =
      Obs.Telemetry.counter_handle tel "frontend.collisions";
  }

let telemetry t = t.tel

let incr ?(by = 1) t name = Obs.Telemetry.incr ~by t.tel name
let get t name = Obs.Telemetry.get t.tel name

(* ---- allocation-free fast-path bumps --------------------------------------- *)

let counter_handle t name = Obs.Telemetry.counter_handle t.tel name
let bump t h = Obs.Telemetry.hincr t.tel h
let bump_by t h n = Obs.Telemetry.hincr_by t.tel h n

let fast_est_request t =
  Obs.Telemetry.hincr t.tel t.c_requests;
  Obs.Telemetry.hincr t.tel t.c_est_requests

let fast_est_latency_ns t ns =
  Obs.Telemetry.hrecord t.tel t.h_lat ns;
  Obs.Telemetry.hrecord t.tel t.h_lat_est ns

let frontend_parse_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_parse ns
let frontend_canon_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_canon ns
let frontend_key_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_key ns
let frontend_collision t = Obs.Telemetry.hincr t.tel t.c_frontend_collisions

let counters t = (Obs.Telemetry.snapshot t.tel).Obs.Telemetry.counters

let observe_ns t ns = Obs.Telemetry.record_ns t.tel lat_all ns

let observe_verb_ns t ~verb ns =
  Obs.Telemetry.record_ns t.tel lat_all ns;
  Obs.Telemetry.record_ns t.tel (verb_prefix ^ verb) ns

let observe t seconds = observe_ns t (int_of_float (seconds *. 1e9))

(* ---- accuracy (q-error) ----------------------------------------------------
   Same sharding discipline as counters/histograms: TRUTH observations
   land in the calling domain's shard table (lock-free after the slot
   exists), reads merge shards on demand. *)

let observe_qerror t name ~est ~truth =
  Obs.Telemetry.observe_qerror t.tel name ~est ~truth

let qerror_shard t name = Obs.Telemetry.qerror_shard t.tel name
let qerror_merged t name = Obs.Telemetry.qerror_merged t.tel name
let qerror_tables t = Obs.Telemetry.qerrors_merged t.tel

(* Shard-identity counter names: "shard.<sid>.requests" etc.  Callers
   precompute these once per shard so the request path does no
   formatting. *)
let shard_key sid name = Printf.sprintf "shard.%d.%s" sid name

let agg t = Obs.Telemetry.hist_merged t.tel lat_all
let lat_key = lat_all
let verb_key verb = verb_prefix ^ verb
let latency_histogram = agg

let observations t = Obs.Histogram.count (agg t)
let mean_latency_us t = Obs.Histogram.mean_ns (agg t) /. 1e3

let percentile_us t p = float_of_int (Obs.Histogram.quantile_ns (agg t) p) /. 1e3

let histogram t = Obs.Histogram.buckets_us (agg t)
let latency_sum_us t = float_of_int (Obs.Histogram.sum_ns (agg t)) /. 1e3

(* Every verb that has recorded a latency, with its merged histogram. *)
let verb_histograms t =
  let snap = Obs.Telemetry.snapshot t.tel in
  List.filter_map
    (fun (name, h) ->
      let plen = String.length verb_prefix in
      if String.length name > plen && String.sub name 0 plen = verb_prefix then
        Some (String.sub name plen (String.length name - plen), h)
      else None)
    snap.Obs.Telemetry.hists

let report t =
  let snap = Obs.Telemetry.snapshot t.tel in
  let h =
    match Obs.Telemetry.Snapshot.find_hist snap lat_all with
    | Some h -> h
    | None -> Obs.Histogram.create ()
  in
  let q p = float_of_int (Obs.Histogram.quantile_ns h p) /. 1e3 in
  List.map (fun (k, v) -> (k, string_of_int v)) snap.Obs.Telemetry.counters
  @ [
      ("lat_count", string_of_int (Obs.Histogram.count h));
      (* exact, from the running sum — unquantized *)
      ("lat_mean_us", Printf.sprintf "%.1f" (Obs.Histogram.mean_ns h /. 1e3));
      (* upper bucket edge of the HDR layout: overstates by < 0.8% *)
      ("lat_p50_us", Printf.sprintf "%.1f" (q 0.50));
      ("lat_p95_us", Printf.sprintf "%.1f" (q 0.95));
      ("lat_p99_us", Printf.sprintf "%.1f" (q 0.99));
      ("lat_p999_us", Printf.sprintf "%.1f" (q 0.999));
      ("lat_quantization", "percentiles=bucket-upper-edge(<0.8%) mean=exact");
    ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s=%s@." k v) (report t)
