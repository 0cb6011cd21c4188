(** Tail-sampled slow-log: a bounded ring of captured outlier requests.

    The server appends an entry when the latency of a request answered
    on its reference path crosses the quantile-derived threshold (the
    wire fast path, which answers every recognized EST, never samples,
    hit or miss) or a TRUTH-reported q-error crosses the accuracy gate;
    each entry keeps the canonical query, the trigger metadata and a
    {!Span.record} tree.  Captures are rare (tail
    sampling plus the server's rate limiter), so the single mutex here
    is never on the request hot path — ordinary requests don't touch
    this module. *)

type reason = Latency | Qerror

val reason_to_string : reason -> string

type entry = {
  seq : int;  (** capture number, 1-based, never reused *)
  verb : string;
  reason : reason;
  query : string;  (** canonical query, or the raw line when unparseable *)
  lat_ns : int;  (** the original request's latency *)
  threshold_ns : int;  (** latency threshold in force at capture time *)
  qerror : float option;  (** for q-error-gated captures *)
  spans : Span.record list;  (** span tree, emission order (children first) *)
}

type t

val create : ?capacity:int -> unit -> t
(** A ring holding the last [capacity] (default 128) captures.  Raises
    [Invalid_argument] on a non-positive capacity. *)

val capacity : t -> int

val add :
  t ->
  verb:string ->
  reason:reason ->
  query:string ->
  lat_ns:int ->
  threshold_ns:int ->
  ?qerror:float ->
  spans:Span.record list ->
  unit ->
  int
(** Append one capture, evicting the oldest when full; returns the
    entry's [seq]. *)

val total : t -> int
(** Entries ever captured (including evicted ones). *)

val length : t -> int
(** Entries currently held (≤ capacity). *)

val recent : ?n:int -> t -> entry list
(** The newest [n] (default: all held) entries, newest first. *)
