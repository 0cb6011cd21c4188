(** Hierarchical spans with zero-cost-when-disabled recording.

    A span is a named interval of work with key=value attributes.  Spans
    nest: opening a span inside another records the parent's id, so a
    sink can reconstruct the call tree.  Timing uses {!Clock.now_ns}.

    Two sinks can be active:

    - a {e per-domain} sink, installed by {!collect} for the dynamic
      extent of one callback (used by [EXPLAIN] to capture a single
      request's spans without seeing concurrent domains' spans); and
    - a {e global} sink shared by all domains, installed by
      {!set_global_sink} (used by [--trace-log]).  The global sink must
      be thread-safe; span records are pushed from whichever domain
      closed the span.

    When neither sink is installed — the default — {!enter} costs two
    plain atomic loads (the global sink and a count of installed
    per-domain sinks) and returns the shared {!null} span: no
    domain-local read, no clock read, no allocation, and {!add} and
    {!exit} on the null span are no-ops.  A live span remembers its
    domain's state, so {!exit} needs no domain-local read either.  This
    is the "global no-op sink" fast path; the serving path brackets its
    stages with {!enter}/{!exit} (no closure to allocate), so a warm
    request with tracing off allocates nothing, and with tracing on it
    runs the same code and emits its spans. *)

type record = {
  name : string;
  id : int;  (** unique within a trace; odd-ball ids across domains don't collide *)
  parent : int;  (** id of the enclosing span, or [0] at the root *)
  depth : int;  (** nesting depth, [0] at the root *)
  start_ns : int;
  end_ns : int;
  attrs : (string * string) list;  (** in the order {!add} was called *)
}

type sink = record -> unit

type t
(** An open span, returned by {!enter} or passed to the {!with_}
    callback.  Valid until it is closed. *)

val null : t
(** The dead span handed out when tracing is disabled.  {!add} on it
    does nothing. *)

val enabled : unit -> bool
(** [true] iff some sink (per-domain or global) would receive records
    right now.  Lets callers skip building expensive attribute strings. *)

val live : t -> bool
(** [true] for spans handed out while a sink is active, [false] for
    {!null}.  Cheaper than {!enabled} inside a [with_] callback. *)

val add : t -> string -> string -> unit
(** [add sp key value] attaches an attribute.  No-op on {!null}. *)

val enter : ?attrs:(string * string) list -> string -> t
(** [enter name] opens a span nested under the domain's current one and
    returns it; {!null} (no allocation) when no sink is installed.
    Every [enter] must be paired with exactly one {!exit}, on every
    path — including exceptions — or the domain's nesting is left
    pointing at the dead span. *)

val exit : t -> unit
(** Close a span opened by {!enter} and emit its record to the active
    sinks.  No-op on {!null}. *)

val enter_at : string -> int -> t
(** [enter_at name start_ns]: {!enter} with a start time the caller
    already read from {!Clock.now_ns} — a stage whose boundaries are
    timed anyway costs no extra clock read when traced. *)

val exit_at : t -> int -> unit
(** [exit_at sp end_ns]: {!exit} with a caller-read end time. *)

val next : t -> string -> t
(** [next sp name] closes [sp] and opens its sibling [name] at the same
    instant (one clock read for both); {!enter} when [sp] is {!null}. *)

val with_ : ?attrs:(string * string) list -> string -> (t -> 'a) -> 'a
(** [with_ name f] is {!enter}, [f], {!exit} — the span is closed even
    when [f] raises.  Records are emitted at close, so children are
    emitted before their parents. *)

val collect : (unit -> 'a) -> 'a * record list
(** [collect f] runs [f] with a buffering per-domain sink installed and
    returns the records of every span closed during [f], in emission
    order (children first).  A previously installed per-domain sink is
    saved and restored; the global sink still sees the records too. *)

val set_global_sink : sink option -> unit
(** Install (or clear) the process-wide sink.  The sink must tolerate
    concurrent calls from multiple domains. *)

val duration_us : record -> float
(** Span length in microseconds. *)
