(** The server's one metrics catalog.

    Every fact the service reports is declared here once, as a
    {!family}: its Prometheus name, kind, unit, help text, label and
    STATS key, and how it is read from the one place it lives — a
    {!Selest_obs.Telemetry} counter or histogram, a q-error table, the
    per-shard {!Lru} / {!Plan_cache} counters, the shard admission
    atomics, the {!Registry} or the slow log.  No request-path write
    goes through this module; it only reads.

    {!snapshot} reads all of those stores once.  STATS, METRICS, HEALTH
    and SHARDS are renderers of one snapshot, so a fact they share
    cannot disagree between them, and a declared family is present in
    every view even while it is zero.  (The grounding is the postgres
    planner-statistics design: the planner and EXPLAIN both read one
    source.) *)

type kind = Counter | Gauge | Histogram

type value =
  | Int of int
  | Float of float
  | Latency of Selest_obs.Histogram.t  (** nanosecond samples *)
  | Qerror of Selest_obs.Qerror.t

(** {2 Sources} *)

type shard_source = {
  lru : Lru.t;
  plans : Plan_cache.t;
  inflight : int Atomic.t;  (** live connections owned by the shard *)
  accepted : int Atomic.t;  (** connections ever handed to the shard *)
  requests_key : string;  (** the shard's telemetry request counter *)
}

type source = {
  metrics : Metrics.t;
  registry : Registry.t;
  slowlog : Selest_obs.Slowlog.t;
  shard_sources : shard_source array;  (** indexed by shard id *)
  slo_p99_us : float;  (** the latency SLO the burn gauges judge *)
  slo_qerror : float;  (** the q-error SLO *)
}

(** {2 Snapshots} *)

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
(** One shard's reading.  The cache families are the sums of these. *)

type snapshot = {
  tel : Selest_obs.Telemetry.snapshot;
      (** the merged telemetry (HEALTH windows are deltas of these) *)
  tel_shards : int;  (** telemetry shards, i.e. domains that have written *)
  shards : shard array;
  models : int;
  registry_epoch : int;
  qerrors : (string * Selest_obs.Qerror.t) list;  (** merged, by model *)
  slowlog_captured : int;
  slowlog_held : int;
  slo_p99_us : float;
  slo_qerror : float;
}

val snapshot : source -> snapshot
(** Read every store once.  Values are the stores' own racy-but-monotone
    reads (see {!Selest_obs.Telemetry}); exact once writers quiesce. *)

(** {2 Families} *)

type family = {
  name : string;  (** Prometheus name *)
  kind : kind;
  unit : string;
  help : string;
  label : string option;  (** the one label of a labelled family *)
  stats : string option;
      (** STATS key; in a labelled family ["*"] stands for the label
          value.  A histogram's key is a prefix (see {!stats_pairs}). *)
  read : snapshot -> (string * value) list;
      (** the samples: label value ([""] when unlabelled) and value.  An
          unlabelled family always has exactly one. *)
}

val families : family list
(** The catalog, in rendering order. *)

val kind_string : kind -> string
(** ["counter"], ["gauge"] or ["histogram"] — the Prometheus [# TYPE]. *)

val int : snapshot -> ?label:string -> string -> int
(** [int snap name] reads integer family [name]'s sample (the one with
    [label] in a labelled family).  Raises [Not_found] for an undeclared
    family or an absent label value. *)

val with_prefix : string -> (string * 'a) list -> (string * 'a) list
(** The slots named [prefix ^ label], as [(label, value)] in order — how
    the labelled families read telemetry ([with_prefix "infer."]). *)

val stats_key : string -> string -> string
(** [stats_key "shard.*.requests" "1"] = ["shard.1.requests"]. *)

(** {2 SLO arithmetic} *)

val burn : violations:int -> n:int -> float
(** Observed violation fraction over the 1% a p99 target allows: 1.0 is
    exactly on budget, above is burning. *)

val latency_violations : slo_p99_us:float -> Selest_obs.Histogram.t -> int * int
(** [(observations, observations over the target)]. *)

val qerror_violations : gate:float -> Selest_obs.Qerror.t -> int * int
(** [(observations, observations over gate)], bucket-quantized like the
    q-error quantiles. *)

val qerror_burn : snapshot -> Selest_obs.Qerror.t -> float
(** One model's lifetime q-error burn against [slo_qerror]. *)

(** {2 Renderers} *)

val stats_pairs : snapshot -> (string * string) list
(** Every family with a STATS key, in catalog order.  Integers render
    as themselves and float gauges with [%.6g].  A latency histogram
    [k] expands to {!Metrics.latency_pairs} [k]; a q-error table [k] to
    [k.n], [k.mean], [k.p50], [k.p90] and [k.max]. *)

val prometheus : snapshot -> string
(** The text exposition of every family, in catalog order: a family
    with no samples yet renders its [# HELP]/[# TYPE] header alone. *)
