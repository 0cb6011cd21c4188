(** Service counters and latency quantiles — a façade over the sharded
    telemetry core.

    The serving constraint the paper's offline/online split implies —
    estimates must arrive in optimizer time, i.e. microseconds — is only
    checkable if the service measures itself.  This module keeps named
    monotonic counters (requests, cache hits/misses, errors, per-model
    inference counts) and HDR log-bucketed latency histograms
    ({!Selest_obs.Histogram}) from which p50…p999 are read without
    storing individual samples.

    Since PR 8 nothing here takes a lock on the hot path: every write
    lands on the calling domain's {!Selest_obs.Telemetry} shard
    (lock-free after the named slot exists), and every read merges shard
    snapshots on demand, so [STATS]/[METRICS] never block writers.
    Reads are consistent lower bounds — single-word, monotone values
    that are exact once writers quiesce or a happens-before edge exists
    (e.g. [Domain.join]); there is no longer a single mutex-consistent
    snapshot, and the few-writes-in-flight skew is far below the old
    bucket quantization it replaces.

    {b Quantization}: {!percentile_us} answers with the {e upper edge}
    of the HDR bucket holding the requested quantile — an overstatement
    bounded by 1/128 < 0.8% relative error, replacing the old fixed
    1.5×-geometric buckets whose error was ~50%.  {!mean_latency_us}
    divides the exact running sum by the count and carries no
    quantization at all.  {!latency_pairs} states this in [lat_quantization];
    the full bucket layout is exported by [METRICS]
    ([selest_request_latency_us]). *)

type t

val create : unit -> t

val telemetry : t -> Selest_obs.Telemetry.t
(** The underlying sharded telemetry instance (epoch snapshots, deltas,
    per-verb histograms — the HEALTH surface reads through this). *)

val incr : ?by:int -> t -> string -> unit
(** Bump a named counter on the calling domain's shard.  Lock-free;
    concurrent bumps from different domains never lose increments. *)

val get : t -> string -> int
(** Merged value of a counter across all shards; 0 when never bumped. *)

val counters : t -> (string * int) list
(** All counters, merged and sorted by name. *)

(** {2 Allocation-free fast path}

    The warm EST front-end is gated on zero GC allocation end to end, so
    its per-request accounting goes through pre-registered
    {!Selest_obs.Telemetry} handles (integer-indexed shard slots)
    instead of string-keyed lookups.  All of these are allocation-free
    once the calling domain's slot arrays are warm. *)

val counter_handle : t -> string -> Selest_obs.Telemetry.counter_handle
(** Register (or look up) a named counter's handle on the underlying
    telemetry — for callers with their own per-shard counters (the
    server's ["shard.<sid>.requests"]).  Startup-time only. *)

val bump : t -> Selest_obs.Telemetry.counter_handle -> unit

val fast_est_request : t -> unit
(** Count one EST request: bumps [requests] and [est_requests]. *)

val fast_est_latency_ns : t -> int -> unit
(** Record one EST latency into the aggregate and ["lat.est"]
    histograms (the handle twin of {!observe_verb_ns} [~verb:"est"]). *)

val frontend_parse_ns : t -> int -> unit
(** Accumulate zero-copy parse time into [frontend.parse_ns]. *)

val frontend_canon_ns : t -> int -> unit
(** Accumulate in-place canonicalization time into
    [frontend.canon_ns]. *)

val frontend_key_ns : t -> int -> unit
(** Accumulate cache-key hashing time into [frontend.key_ns]. *)

val kernel_delta : t -> Selest_obs.Hotpath.t -> unit
(** Roll one request's {!Selest_obs.Hotpath} delta into
    [ve.factor_ops], [ve.entries_touched] and [plan.program_hits] /
    [plan.program_misses] through pre-registered handles, bumping only
    the counters that moved.  The delta's other fields, and a diagnostic
    run's whole delta, are EXPLAIN's alone.  Allocation-free. *)

val observe : t -> float -> unit
(** Record one request latency, in seconds, into the aggregate
    histogram. *)

val observe_ns : t -> int -> unit
(** Same, in integer nanoseconds — the zero-allocation form the request
    path uses. *)

val observe_verb_ns : t -> verb:string -> int -> unit
(** Record one latency into both the aggregate histogram and the verb's
    own histogram (the per-verb quantiles HEALTH reports). *)

val observe_qerror : t -> string -> est:float -> truth:float -> unit
(** Record one (estimate, ground-truth) pair into the named per-model
    q-error table on the calling domain's shard.  Lock-free after the
    slot exists — the TRUTH path no longer serializes domains. *)

val qerror_shard : t -> string -> Selest_obs.Qerror.t
(** The calling domain's shard-local q-error table for a model name
    (created empty on first use).  Writes through it are merged into
    {!qerror_merged} / {!qerror_tables} reads. *)

val qerror_merged : t -> string -> Selest_obs.Qerror.t
(** Fresh merged copy of a model's q-error table across all shards. *)

val qerror_tables : t -> (string * Selest_obs.Qerror.t) list
(** Every model with q-error observations, merged copies, sorted. *)

val shard_key : int -> string -> string
(** [shard_key 3 "requests"] = ["shard.3.requests"] — the naming scheme
    for per-shard counters in STATS / Prometheus. *)

val observations : t -> int

val mean_latency_us : t -> float
(** Exact mean latency (no bucket quantization); 0 when nothing was
    observed. *)

val percentile_us : t -> float -> float
(** [percentile_us t 0.95]: upper edge of the HDR bucket holding the
    p-th latency quantile, in microseconds (< 0.8% overstatement); 0
    when nothing was observed.  Raises [Invalid_argument] outside
    [0,1]. *)

val lat_key : string
(** Telemetry slot name of the aggregate latency histogram. *)

val verb_key : string -> string
(** [verb_key "est"]: telemetry slot name of a verb's histogram. *)

val latency_histogram : t -> Selest_obs.Histogram.t
(** The merged aggregate latency histogram (a fresh copy). *)

val latency_pairs : string -> Selest_obs.Histogram.t -> (string * string) list
(** [latency_pairs "lat" h]: [lat_count], [lat_mean_us] (exact),
    [lat_p50_us], [lat_p95_us], [lat_p99_us], [lat_p999_us] (HDR bucket
    upper edges, < 0.8% over) and [lat_quantization] documenting that
    asymmetry. *)
