(** The long-lived estimation server — shard-per-domain since PR 9.

    Holds together the pieces the online phase needs: the database context
    (schema, value codings and table sizes used to parse queries and scale
    probabilities), a model {!Registry} published as epoch-pinned
    immutable snapshots, per-shard {!Lru} estimate caches and
    {!Plan_cache}s, and {!Metrics}.  {!run} listens on a Unix-domain
    socket (and optionally TCP) and speaks {!Protocol}; {!handle_line} is
    the transport-free request dispatcher, exposed so tests and
    benchmarks can exercise the full request path — parse, canonicalize,
    cache, infer — without sockets.

    {2 Shard-per-domain architecture}

    [create ~domains:n] builds [n] executor shards.  {!run} spawns one
    domain per shard; each domain owns a disjoint set of connections and
    multiplexes them over a [poll(2)] loop ({!Shard}).  The listener
    thread only accepts: each accepted fd is handed to a shard mailbox
    round-robin (one mutex touch per {e connection}, never per request)
    with a linear probe past shards at their admission budget.  When
    every shard is at [max_inflight] live connections the listener
    answers [BUSY ...], closes the connection and bumps the
    [admission_rejected] counter ([selest_admission_rejected_total]).
    So does a connection that arrives when the process is out of file
    descriptors: the listener keeps one spare descriptor, releases it to
    accept that connection, and takes it back, rather than leaving the
    connection in the backlog to wake it again at once, forever.

    On the [EST] hot path a shard acquires {e zero} mutexes: the
    registry read is one atomic snapshot pin, the estimate cache and
    plan cache are domain-local and lock-free, and telemetry writes
    land on the domain's own lock-free shard.  Estimates are bit-identical
    across shard counts — every shard executes the same compiled plan
    for the same query.

    A concurrent [LOAD] publishes a whole new registry snapshot with an
    atomic pointer flip: in-flight requests keep the snapshot they
    pinned (never a torn version/fingerprint), later requests see the
    new one, and because every cache key carries the model version, each
    shard's cached estimates and plans for the old version simply stop
    being reachable.  Old snapshots are reclaimed by the GC.  Before
    the flip, a [LOAD] of an existing name compiles on its shard the
    plans of the skeletons requests fetched under the old version and
    re-answers, on the new version, the queries that shard's estimate
    cache holds under the old one (both capped at the plan-cache
    capacity); every shard adopts those plans and answers on its first
    miss, so a carried query's first estimate after the flip is a hit.

    Every estimate a request asks for — [EST] over text or binary
    framing, [ESTBATCH] body by body and [TRUTH] — runs one EST core,
    as follows: pin the registry snapshot;
    lex the body straight out of the request buffer into the shard's
    reusable scratch query ({!Selest_db.Squery} — interned symbols, no
    intermediate strings); canonicalize in place; derive the 63-bit
    estimate-cache hash (scratch hash mixed with model name and
    version) and probe the shard's estimate cache, verifying a hash hit
    against the entry's canonical snapshot; on a miss adopt the answer
    the reload that published this model version carried for the query,
    if any (counted as a hit: no inference), else fetch the
    skeleton's compiled plan from the shard's {!Plan_cache} under a key
    folded from the scratch's interned ids ({!Canon.Skel.scratch_hash},
    verified against the key stored with the plan; the query is
    materialized only to compile a cold skeleton with
    {!Selest_plan.Plan.compile}), execute it on the bytecode engine
    with the scratch's selects written straight into the program's
    evidence slots ({!Selest_plan.Plan.execute_scratch}), then fill the
    estimate cache with pre-rendered text and binary responses
    ({!make_entry}).  On the wire ({!run_shard}) an
    [EST] line or frame is recognized and served entirely from buffer
    slices: the whole warm round trip from socket read to answer write
    allocates nothing, and misses and errors are answered by the same
    core with the reference messages.  In front of the lexer, each
    shard keeps a fixed-size memo of raw bodies ({!Memo}): a body whose
    exact bytes were last answered by a verified hit (or a carried
    adoption) under the same model name and version, with that very
    entry still resident under its hash ({!Lru.find_exact}), is
    answered from the entry without lexing, canonicalizing or hashing,
    and promoted and counted as that hit.  A miss only hashes the body
    and compares one set of slots; it never enters the memo.  The
    reference entry points ({!handle_line}, [ESTBATCH]) and the
    diagnostic runs ([EXPLAIN], slow-log captures) do not use the memo.  Only
    requests the slice recognizers reject — other verbs, malformed EST
    lines — take the reference path ({!Protocol.parse_request} +
    [handle_line]).  Tracing does not change the path.

    An [ESTBATCH] request runs its bodies through the EST core in
    request order on the dispatching shard, so answers are bit-identical
    to sequential [EST] answers and a repeated body is a cache hit.  The
    first failing body fails the whole batch as [ERR query N: ...];
    bodies before it may already be cached.

    {2 Observability}

    The EST core is instrumented with {!Selest_obs.Span} (spans [est] →
    [est.parse], [est.canon], [est.cache], [plan.fetch],
    [plan.compile], [exec.load], [exec.run], [est.respond]; a memo hit
    emits [est] → [est.cache] with [cached=memo] → [est.respond] and
    moves no [frontend.*] counter, since no front-end stage ran), opened
    through the closure-free {!Selest_obs.Span.enter}/[exit], and every
    inference's {!Selest_obs.Hotpath} kernel counters (read before and
    after, per shard) are rolled into the service metrics through
    pre-registered handles, as is the per-model [infer.<name>] count of
    estimate-cache misses
    ([ve.factor_ops], [ve.entries_touched] and
    [plan.program_hits]/[misses], the program-memo pair of the compiled
    plans).

    [EXPLAIN <query>] is a diagnostic run, not a request: the query is
    parsed, canonicalized and executed on the bytecode engine that
    serves EST, under span collection, and one line of [key=value]
    fields answers: [estimate] (bit for bit EST's), [total_us], the
    per-stage times ([parse_us], [canon_us], [cache_us], [fetch_us],
    [compile_us], [load_us], [run_us], [respond_us], [other_us] —
    {e self} times, so they partition [total_us]; [respond_us] is 0,
    since the run writes no reply), their [stage_sum_us], whether the
    estimate cache ([cache]) and the plan cache or the version's
    carried plans ([plan_cache]) hold the query, the executed [plan]
    (per-step eliminated variable and predicted intermediate entries,
    to set against the measured [max_factor_entries]), the plan's
    [factors] count, and the run's hot-path counters (whose
    [program_hits]/[program_misses] say whether the plan had a
    bytecode program for the query's evidence shape).  The run probes
    the estimate cache without promoting or counting, runs a resident
    plan on a {!Selest_plan.Plan.fork} (a throwaway compile when there
    is none) and fills nothing: an EXPLAIN moves [requests],
    [explain_requests] and its [explain] latency histogram, and no
    cache, memo, plan, inference, kernel or [frontend.*] counter.  A
    client warms the cache with [EST].

    [EXPLAINPLAN <query>] answers the optimizer's view: the C_out-minimal
    join tree under the model's sub-query estimates (priced through the
    same plan cache, AVI fallback for sub-queries the model cannot
    price), executed with {!Selest_opt.Hashjoin} and rendered
    postgres-style with estimated vs. actual rows per operator.

    [TRUTH <true-size> <query>] records accuracy: the estimate is
    computed through the normal cache-then-infer path and the q-error
    against the supplied truth lands in the calling domain's shard of a
    per-model rolling histogram ({!Selest_obs.Qerror} via
    {!Metrics.observe_qerror} — lock-free, merged on read), summarized
    in [STATS] ([qerr.<model>.*] fields) and exported by [METRICS].

    [SHARDS] answers the shard layout: one header line ([domains],
    [max_inflight], [backlog], endpoints, registry [epoch]) then one
    line per shard with its live admission state ([inflight],
    [accepted]), request count and domain-local cache counters.

    [STATS], [METRICS], [HEALTH] and [SHARDS] render one
    {!Catalog.snapshot}: every family {!Catalog.families} declares is
    present in each view that shows it, at zero until it moves.
    [METRICS] is the Prometheus text exposition
    ({!Selest_obs.Prometheus}) of the whole catalog, [STATS] one line of
    its STATS keys.

    All counters and latency histograms live in a sharded, lock-free
    {!Selest_obs.Telemetry} core (one shard per domain, merged on read),
    so the views never block the request path.

    [HEALTH] answers a multi-line SLO report: per-verb latency quantiles
    (p50/p95/p99/p999, computed over the window since the previous
    HEALTH via snapshot deltas), error-budget burn against the declared
    latency and q-error SLOs, cache hit rates, per-shard identity lines
    ([shard id=... inflight=... accepted=... requests=...]), per-model
    accuracy and the slow-log state.  [SLOWLOG \[n\]] dumps the newest
    tail-sampled captures — reference-path requests over the
    quantile-derived latency threshold or TRUTHs over the q-error gate —
    each with its canonical query and the span tree of the same
    diagnostic run [EXPLAIN] prices, which moves no counter and no
    cache.  A wire [EST] (the fast path, {!run_shard}), hit or miss, is
    never latency-captured.  [HEALTH] reports [status=degraded] while a
    latency or q-error SLO burns over budget or a shard loop has died. *)

type t

val make_entry : name:string -> version:int -> vec:Selest_db.Squery.Vec.t -> float -> Lru.entry
(** The estimate-cache entry a miss fills for an estimate under model
    [name] at [version]: the text response (["OK " ^ Printf.sprintf
    "%.17g" est ^ "\n"], byte for byte, rendered in C into one
    exact-size string) and the 13-byte binary value frame, pre-rendered,
    beside the canonical snapshot [vec]. *)

val create :
  ?cache_bytes:int ->
  ?slowlog_capacity:int ->
  ?slow_quantile:float ->
  ?qerror_gate:float ->
  ?slo_p99_us:float ->
  ?slo_qerror:float ->
  ?domains:int ->
  ?tcp:string * int ->
  ?max_inflight:int ->
  ?backlog:int ->
  db:Selest_db.Database.t ->
  socket:string ->
  unit ->
  t
(** [cache_bytes] defaults to 1 MiB {e per shard}.  No socket is bound
    until {!run}.

    Sharding knobs: [domains] (default 1) is the number of executor
    shards {!run} spawns; [tcp] is an optional [(host, port)] endpoint
    to listen on in addition to the Unix socket; [max_inflight]
    (default 1024) is the per-shard admission budget in live
    connections — when every shard is full new connections are answered
    [BUSY] and closed; [backlog] (default 128) is the [listen(2)]
    backlog used for both listeners.  Raises [Invalid_argument] when
    [domains], [max_inflight] or [backlog] is below 1.

    Telemetry knobs: [slowlog_capacity] (default 128) bounds the
    slow-log ring; [slow_quantile] (default 0.99) sets the latency
    capture threshold — a reference-path [EST] or [TRUTH] slower than
    this quantile of the merged latency histogram is captured
    (threshold refreshed every 512 reference-path responses after 64
    observations, rate-limited to one capture per 256 of them; the
    wire fast path neither refreshes the threshold nor is captured); [qerror_gate] (default 100) captures any [TRUTH] whose
    q-error reaches it; [slo_p99_us] (default 10000) and [slo_qerror]
    (default 100) declare the p99 latency and q-error SLO targets
    [HEALTH] burns the error budget against. *)

val registry : t -> Registry.t
val metrics : t -> Metrics.t

val n_domains : t -> int
(** Number of executor shards (the [?domains] argument). *)

val max_inflight : t -> int
val backlog : t -> int

val cache : t -> Lru.t
(** Shard 0's estimate cache — "the" cache for embedded single-shard
    use and the transport-free {!handle_line} entry point (which always
    dispatches on shard 0). *)

val plan_cache : t -> Plan_cache.t
(** Shard 0's compiled-plan cache, keyed by (model name, version, query
    skeleton).  Exposed so tests and benchmarks can inspect or clear it;
    normal clients only see its hit/miss/eviction counters in [STATS] and
    [METRICS]. *)

val shard_cache : t -> int -> Lru.t
(** A specific shard's estimate cache (tests/benchmarks). *)

val shard_plan_cache : t -> int -> Plan_cache.t
(** A specific shard's plan cache (domain-private, no lock). *)

val slowlog : t -> Selest_obs.Slowlog.t
(** The tail-sampled slow-log ring — [SLOWLOG]'s backing store, exposed
    so tests can assert on captures without re-parsing the text dump. *)

val qerror_table : t -> string -> Selest_obs.Qerror.t
(** The calling domain's shard-local rolling q-error histogram for a
    model name, created on first use.  [TRUTH] records into it; exposed
    so a workload replay can feed ground truth directly.  Merged across
    domains by {!qerror_tables} and the STATS/HEALTH/METRICS surfaces. *)

val qerror_tables : t -> (string * Selest_obs.Qerror.t) list
(** Every model with q-error observations — fresh merged copies, sorted
    by model name. *)

val snapshot : t -> Catalog.snapshot
(** One read of every metrics store ({!Catalog.snapshot}). *)

val view : t -> Catalog.snapshot -> [ `Stats | `Metrics | `Health | `Shards ] -> string
(** The response [STATS], [METRICS], [HEALTH] or [SHARDS] renders from
    one snapshot — exposed so a caller can render all four from the same
    one.  [`Health] also advances HEALTH's burn window to [snap]. *)

val handle_line : t -> string -> string * [ `Continue | `Stop ]
(** Dispatch one request line to one response, on shard 0.  Never
    raises: every failure (parse error, unknown model, bad model file,
    inference error) becomes an [ERR] response and [`Continue]; only
    [SHUTDOWN] returns [`Stop].  Every response is a single line except
    [METRICS], [EXPLAINPLAN], [HEALTH], [SHARDS] and [SLOWLOG], which
    return the [OK lines=<k>] multi-line frame
    ({!Protocol.extra_lines}). *)

val handle_line_shard : t -> shard:int -> string -> string * [ `Continue | `Stop ]
(** {!handle_line} against an explicit shard's domain-local state, so
    transport-free callers (tests, benches) can drive per-shard caches
    the way the listener's dispatch would.  Raises [Invalid_argument]
    when [shard] is out of range. *)

val run_shard : t -> 'fd Shard.t -> unit
(** Serve the connections handed to [rt] on shard [Shard.sid rt] until
    the server stops: {!Shard.run} with this server's handlers, over
    whatever I/O [rt] was created with.  {!run} calls it in each shard
    domain with {!Shard.unix}; tests and benchmarks call it with a
    simulated network.

    The handlers return each request's complete reply and never touch
    the connection.  A text line or frame the slice recognizers accept
    as an [EST] is answered from the buffer slice through the EST core
    — on a verified cache hit (or a memo hit, for a body whose exact
    bytes a verified hit answered) the reply is the entry's pre-rendered
    bytes, so the warm round trip allocates nothing; misses and errors
    get the reference bytes and counters.  Any other message is copied
    out and answered as {!handle_line} / {!handle_frame} answer it.
    [SHUTDOWN] latches {!shutdown} before its [OK bye] goes back.

    A connection whose request raises is closed, logged and counted
    ([selest_conn_errors_total]).  If the loop itself raises (say,
    [poll] fails), its connections are closed and the exception is
    logged at error level and counted in [selest_shard_exits_total]
    instead of propagating; [HEALTH] then reports [status=degraded].
    Raises [Invalid_argument] when the shard id is out of range. *)

val handle_frame : t -> bytes -> string
(** Dispatch one binary request payload ({!Protocol.Bin}, length prefix
    already stripped) to one encoded response frame, on shard 0.  The
    binary twin of {!handle_line} for [EST]/[ESTBATCH], sharing its
    request, latency and error accounting — exposed transport-free for
    the same reason.  A connection enters binary mode by sending the
    text line [BIN], which the shard connection loop answers with
    [OK bin] before switching to length-prefixed frames until EOF. *)

val run : t -> unit
(** Bind the Unix socket (unlinking a stale file first) and the optional
    TCP endpoint with the configured [backlog], spawn one executor
    domain per shard, and accept connections, handing each to a shard
    mailbox round-robin under the [max_inflight] admission budget
    (rejected connections get one [BUSY] line).  Returns once a
    [SHUTDOWN] request has been answered: the shard domains are joined,
    the socket file is removed and the final metrics are logged at info
    level. *)

val shutdown : t -> unit
(** Ask a running {!run} to stop, from any thread — the programmatic
    equivalent of the [SHUTDOWN] verb.  Idempotent; safe before [run]
    starts (it will exit before accepting) and after it returns.  Use it
    in cleanup paths so a harness never blocks joining a server whose
    [SHUTDOWN] request was lost to an earlier failure. *)
