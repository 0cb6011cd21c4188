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
   the string-keyed API.  The three [frontend.*] counters accumulate
   nanoseconds (parse / canonicalize / key-hash). *)
type t = {
  tel : Obs.Telemetry.t;
  h_lat : Obs.Telemetry.hist_handle;  (* the aggregate "lat" histogram *)
  h_lat_est : Obs.Telemetry.hist_handle;  (* "lat.est" *)
  c_requests : Obs.Telemetry.counter_handle;
  c_est_requests : Obs.Telemetry.counter_handle;
  c_frontend_parse : Obs.Telemetry.counter_handle;
  c_frontend_canon : Obs.Telemetry.counter_handle;
  c_frontend_key : Obs.Telemetry.counter_handle;
  c_kernel : Obs.Telemetry.counter_handle array;  (* [kernel_names] order *)
}

(* The kernel counters a request's {!Obs.Hotpath} delta rolls into.
   [max_factor_entries] is a high-water mark, not additive, and EXPLAIN
   alone reports it. *)
let kernel_names =
  [| "ve.factor_ops"; "ve.entries_touched"; "plan.program_hits"; "plan.program_misses" |]

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
    c_kernel = Array.map (Obs.Telemetry.counter_handle tel) kernel_names;
  }

let telemetry t = t.tel

let incr ?by t name = Obs.Telemetry.incr ?by t.tel name
let get t name = Obs.Telemetry.get t.tel name

(* ---- allocation-free fast-path bumps --------------------------------------- *)

let counter_handle t name = Obs.Telemetry.counter_handle t.tel name
let bump t h = Obs.Telemetry.hincr t.tel h

let fast_est_request t =
  Obs.Telemetry.hincr t.tel t.c_requests;
  Obs.Telemetry.hincr t.tel t.c_est_requests

let fast_est_latency_ns t ns =
  Obs.Telemetry.hrecord t.tel t.h_lat ns;
  Obs.Telemetry.hrecord t.tel t.h_lat_est ns

let frontend_parse_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_parse ns
let frontend_canon_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_canon ns
let frontend_key_ns t ns = Obs.Telemetry.hincr_by t.tel t.c_frontend_key ns

(* Bumps only the counters that moved, so one that never does stays out
   of the merged snapshot exactly as before. *)
let bump_kernel t i v = if v > 0 then Obs.Telemetry.hincr_by t.tel t.c_kernel.(i) v

let kernel_delta t (d : Obs.Hotpath.t) =
  bump_kernel t 0 d.Obs.Hotpath.factor_ops;
  bump_kernel t 1 d.Obs.Hotpath.entries_touched;
  bump_kernel t 2 d.Obs.Hotpath.program_hits;
  bump_kernel t 3 d.Obs.Hotpath.program_misses

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

(* A latency histogram's STATS fields, keyed [key ^ "_count"] etc. *)
let latency_pairs key h =
  let q p = Printf.sprintf "%.1f" (float_of_int (Obs.Histogram.quantile_ns h p) /. 1e3) in
  [
    (key ^ "_count", string_of_int (Obs.Histogram.count h));
    (* exact, from the running sum — unquantized *)
    (key ^ "_mean_us", Printf.sprintf "%.1f" (Obs.Histogram.mean_ns h /. 1e3));
    (* upper bucket edge of the HDR layout: overstates by < 0.8% *)
    (key ^ "_p50_us", q 0.50);
    (key ^ "_p95_us", q 0.95);
    (key ^ "_p99_us", q 0.99);
    (key ^ "_p999_us", q 0.999);
    (key ^ "_quantization", "percentiles=bucket-upper-edge(<0.8%) mean=exact");
  ]
