(** The line-oriented wire protocol of the estimation service.

    One request per line, one response line per request, UTF-8/ASCII text
    over a Unix-domain socket — deliberately trivial so any optimizer,
    script or [socat] session can speak it.

    {2 Requests}

    {v
    PING
    LOAD <name> <path>
    EST [@<model>] <tvars> [; <joins> [; <selects>]]
    ESTBATCH [@<model>] <body> || <body> || ...
    EXPLAIN [@<model>] <body>
    EXPLAINPLAN [@<model>] <body>
    TRUTH [@<model>] <true-size> <body>
    STATS
    METRICS
    HEALTH
    SHARDS
    SLOWLOG [<count>]
    SHUTDOWN
    v}

    Command words are case-insensitive.  The [EST] query body uses the
    textual query syntax of {!Selest_db.Qparse}, with the three clause
    sections separated by [;] and items within a section separated by
    top-level commas (commas inside a set predicate's [{...}] braces do
    not split), e.g.

    {v
    EST c=contact, p=patient ; c.patient=p ; p.USBorn=yes, c.Contype={household,roommate}
    v}

    [@<model>] selects a registry entry by name; without it the server
    answers from the most recently loaded model.

    [ESTBATCH] carries several [EST] bodies separated by [||] and answers
    them in one round trip: cache probes stay on the dispatcher, misses
    are fanned out across the server's domain pool.  It answers
    [OK <e1> <e2> ...] in request order, or a single [ERR] naming the
    first offending body if {e any} body fails (all-or-nothing, so the
    response shape is always predictable).

    [EXPLAIN] runs the same query as [EST] once more as a diagnostic,
    not a request (it reports whether the estimate and plan caches hold
    the query, but fills and counts nothing), and answers with the
    per-stage time and hot-path op breakdown plus the elimination order
    used — see {!Server}.

    [EXPLAINPLAN] is the optimizer's view of the same query: the server
    picks the C_out-minimal join order under the model's sub-query
    estimates ({!Selest_opt.Optimizer}, AVI fallback for sub-queries the
    model cannot price), executes it with the materializing hash-join
    executor ({!Selest_opt.Hashjoin}), and answers a multi-line
    postgres-style tree with estimated vs. actual rows per operator.

    [TRUTH] supplies ground truth for a query: the server computes its
    estimate (through the cache like [EST]) and records the q-error into
    the model's rolling accuracy histogram, answering
    [OK qerror=<q> estimate=<e> n=<count>].  The true size must be a
    finite non-negative number.  [STATS] and [METRICS]
    expose the per-model q-error summaries.

    [HEALTH] answers a multi-line SLO report: per-verb latency quantiles
    (p50/p95/p99/p999 from the HDR histograms), error-budget burn
    against the declared latency and q-error SLOs, cache hit rates and
    per-model accuracy — see {!Server}.

    [SHARDS] answers a multi-line view of the shard-per-domain layout:
    a header with the domain count, admission budget and listener
    backlog, then one line per shard with its live connection count,
    total accepted connections, request total and per-shard cache
    sizes — the introspection surface for the sharded server.

    [SLOWLOG \[<count>\]] dumps the newest [count] (default 10) entries
    of the tail-sampled slow-log: requests whose latency crossed the
    quantile-derived threshold or whose [TRUTH] q-error crossed the
    accuracy gate, each with its canonical query and captured span
    tree (multi-line response).

    {2 Responses}

    [PONG] for [PING]; [OK <payload>] for success; [ERR <message>] for any
    failure — a protocol error never terminates the server.  [EST] answers
    [OK <estimate>] with the estimate printed losslessly ([%.17g]); [STATS]
    answers [OK] followed by space-separated [key=value] pairs.

    [METRICS] is the one multi-line response: a header line
    [OK lines=<k>] followed by [k] raw lines of Prometheus text
    exposition ({!Selest_obs.Prometheus}).  {!extra_lines} tells a
    line-oriented client how much to read after any response header.

    {2 Binary upgrade}

    A client may send the text line [BIN] as its {e first} (or any)
    request; the server answers [OK bin] and the connection switches to
    length-prefixed binary frames ({!Bin}) for the rest of its life —
    [EST] and [ESTBATCH] only, no float formatting or line parsing on
    the hot path.  The text protocol is unchanged for clients that never
    upgrade. *)

type request =
  | Ping
  | Load of { name : string; path : string }
  | Est of { model : string option; body : string }
      (** [body] is the raw query text after the optional [@model]. *)
  | Estbatch of { model : string option; bodies : string list }
      (** [bodies] are the [||]-separated query texts, in request order. *)
  | Explain of { model : string option; body : string }
      (** [EST] with a per-stage breakdown instead of a bare estimate. *)
  | Explainplan of { model : string option; body : string }
      (** Optimize the query's join order under the model's estimates,
          execute the chosen tree, and render it postgres-style with
          estimated vs. actual per-operator cardinalities (multi-line
          response). *)
  | Truth of { model : string option; truth : float; body : string }
      (** Ground truth for [body]; feeds the model's q-error histogram. *)
  | Stats
  | Metrics  (** Prometheus text exposition (multi-line response). *)
  | Health  (** SLO report: per-verb quantiles, budget burn (multi-line). *)
  | Shards  (** Shard layout and per-shard load (multi-line response). *)
  | Slowlog of { n : int option }
      (** Newest [n] (default 10) tail-sampled slow-log entries
          (multi-line response). *)
  | Shutdown

val parse_request : string -> (request, string) result
(** Errors mention the offending command, never raise. *)

val split_sections : string -> string list * string list * string list
(** Split an [EST] body into (tvars, joins, selects) item lists: sections
    on [;], items on top-level commas, blanks dropped.  Raises [Failure]
    on more than three sections or an empty tvars section. *)

val ok : string -> string
val err : string -> string
(** Response constructors; [err] flattens newlines so a response is always
    exactly one line. *)

val busy : string -> string
(** [BUSY <reason>] — the 503-style admission-control rejection an
    overloaded server writes before closing the connection.  Distinct
    from [ERR]: the request was never looked at, retrying later is the
    right client response. *)

val ok_multiline : string -> string
(** [ok_multiline payload]: the [OK lines=<k>] header followed by the
    payload's lines verbatim (a trailing newline is dropped first). *)

val extra_lines : string -> int
(** Number of payload lines following a response header: [k] for an
    [OK lines=<k>] header, 0 for every single-line response. *)

val pong : string

val is_ok : string -> bool
val is_err : string -> bool
(** [is_ok] accepts [PONG] too — it is [PING]'s success response. *)

val is_busy : string -> bool
(** Recognize an admission-control [BUSY] rejection. *)

val payload : string -> string
(** The response text after the status word ([""] when none). *)

val stats_field : string -> string -> string option
(** [stats_field response key]: the value of [key=...] in a [STATS]
    response payload. *)

(** Length-prefixed binary frames for the estimation hot path.

    Wire format (all integers big-endian):

    {v
    frame    := u32 payload-length, payload        (length <= 16 MiB)

    request  := 0x01 u16 model-len, model, body          (EST)
              | 0x02 u16 model-len, model,
                     u16 count, { u32 body-len, body }*  (ESTBATCH)

    response := 0x00 f64                                 (OK estimate)
              | 0x01 u16 count, f64*                     (OK batch)
              | 0x02 utf-8 message                       (ERR)
    v}

    A zero-length model name selects the server's default model (the
    text protocol's missing [@model]).  Query bodies are the same
    textual syntax as [EST] — only the framing and the floats are
    binary, so estimates cross the wire losslessly as IEEE-754 bits
    instead of [%.17g] text.  Decoders are total: truncated or garbage
    payloads yield [Error], never an exception. *)
module Bin : sig
  val hello : string
  (** ["BIN"] — the text line that upgrades a connection. *)

  val hello_ok : string
  (** ["OK bin"] — the server's acknowledgement, sent as a text line. *)

  val max_frame : int
  (** Maximum payload length accepted or produced (16 MiB). *)

  type brequest =
    | Best of { model : string option; body : string }
    | Bestbatch of { model : string option; bodies : string list }

  type bresponse =
    | Bvalue of float
    | Bvalues of float list  (** In request order, like [ESTBATCH]. *)
    | Berr of string

  val encode_request : brequest -> string
  (** The complete frame, length prefix included.  Raises
      [Invalid_argument] past the format's limits (model > 64 KiB - 1,
      more than 65535 bodies, frame > {!max_frame}). *)

  val decode_request : bytes -> (brequest, string) result
  (** Parse a request payload (prefix already stripped).  Total. *)

  val encode_response : bresponse -> string

  val value_frame : float -> string
  (** [encode_response (Bvalue v)]: the 13-byte frame, built directly. *)

  val decode_response : bytes -> (bresponse, string) result

  val read_frame :
    in_channel -> [ `Frame of bytes | `Eof | `Oversized of int ]
  (** Read one length-prefixed frame.  [`Eof] on a clean end of stream
      (including mid-frame truncation); [`Oversized] when the announced
      length exceeds {!max_frame} — the stream cannot be resynchronized
      and should be closed. *)

  val write_frame : out_channel -> string -> unit
  (** Write an encoded frame and flush. *)
end

(** Zero-copy request recognition for the allocation-free front-end.

    A slice scratch is filled with (offset, length) pairs into the
    caller's buffer — no strings are built.  The recognizers accept a
    strict {e subset} of the reference parsers ({!parse_request},
    {!Bin.decode_request}): exact uppercase [EST], a well-formed
    [@model] token, a non-empty body.  They answer [false] for
    everything else, so callers fall back to the reference path and
    keep identical observable behavior (error messages included) off
    the fast path. *)
module Slice : sig
  type t = {
    mutable model_off : int;
    mutable model_len : int;  (** [0] selects the default model. *)
    mutable body_off : int;
    mutable body_len : int;
  }

  val create : unit -> t

  val est_line : t -> Bytes.t -> off:int -> len:int -> bool
  (** Recognize [EST [@model] <body>] in [buf[off..off+len)] (one text
      line, newline already stripped) and fill the slices.
      Allocation-free. *)

  val bin_est : t -> Bytes.t -> off:int -> len:int -> bool
  (** Recognize a {!Bin} [EST] request payload (opcode [0x01]) in
      [buf[off..off+len)] — the frame body, length prefix already
      stripped.  Allocation-free. *)
end
