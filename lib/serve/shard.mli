(** One executor shard's connection event loop.

    A shard-per-domain server spawns one domain per shard; each domain
    runs {!run}, which multiplexes every connection the listener has
    handed it over a [poll(2)] loop (a C stub that releases the runtime
    lock while it waits; no fd-number limit, unlike [select]).  The
    connections live in arrays that persist across wakeups, so a
    wakeup allocates nothing.  The listener→shard handoff is a
    small mutex-guarded mailbox plus a self-pipe wakeup — synchronized
    once per {e connection}, never per request — and from then on the
    connection is owned exclusively by the shard: message extraction,
    dispatch and the reply write all happen on the shard's domain with
    no locks.

    The loop understands both wire formats of {!Protocol}: newline-
    terminated text lines, and, after a connection sends the [BIN]
    hello, length-prefixed binary frames.  Partial reads are buffered
    per connection, and the newline scan resumes where the previous read's
    scan stopped.  A frame announcing more than {!Protocol.Bin.max_frame}
    bytes is answered with a binary error, and a text line longer than
    that cap with an [ERR] line; either way the connection is dropped
    (the stream cannot be resynchronized). *)

type t

val create : sid:int -> t
(** A shard runtime with an empty mailbox and a fresh wakeup pipe. *)

val sid : t -> int

val submit : t -> Unix.file_descr -> unit
(** Hand an accepted connection to this shard (listener side): enqueue
    the fd and wake the loop.  The shard now owns closing it. *)

val wake : t -> unit
(** Wake the loop out of [poll] (used to propagate a stop request). *)

val run :
  t ->
  stop:bool Atomic.t ->
  request_stop:(unit -> unit) ->
  on_line_fast:(Unix.file_descr -> Bytes.t -> off:int -> len:int -> bool) ->
  on_frame_fast:(Unix.file_descr -> Bytes.t -> off:int -> len:int -> bool) ->
  on_line:(string -> string * [ `Continue | `Stop ]) ->
  on_frame:(bytes -> string) ->
  on_close:(unit -> unit) ->
  on_protocol_error:(unit -> unit) ->
  on_conn_error:(exn -> unit) ->
  unit ->
  unit
(** Run the event loop until [stop] is set.

    Every complete message is first offered to the matching fast
    handler as a {e slice of the connection buffer}: [on_line_fast fd
    buf ~off ~len] (one text line, newline stripped) and
    [on_frame_fast fd buf ~off ~len] (one frame payload, length prefix
    stripped) return [true] when they recognized the request and wrote
    the complete response to [fd] themselves — the loop then consumes
    the message without ever copying it.  On [false] the message is
    copied out and handed to the reference handlers, so a fast handler
    that only recognizes warm [EST] requests leaves every other verb
    (including the [BIN] upgrade hello) byte-identical to the slow
    path.  Pass [fun _ _ ~off:_ ~len:_ -> false] to disable.

    [on_line] handles one text request and returns the response plus
    whether the server should stop ([`Stop] triggers [request_stop]
    {e after} the response is written, so a SHUTDOWN client sees its
    acknowledgement).  [on_frame] handles one binary request payload
    and returns the encoded response frame.  [on_close] fires exactly
    once per connection this shard ever owned — the listener's
    admission accounting decrements on it.  [on_protocol_error] fires
    on unrecoverable framing errors (oversized frame announcements).
    When a handler raises anything but an I/O error (those just close
    the connection), the loop closes that connection, passes the
    exception to [on_conn_error] and goes on serving the others.
    On exit every owned or still-queued connection is closed. *)

val destroy : t -> unit
(** Close the wakeup pipe (after {!run} has returned). *)

(** Synchronous single-connection harness: drive the exact
    message-extraction and dispatch path over an fd the caller owns (a
    socketpair end), without a listener, mailbox or domain.  The
    front-end benchmark measures its zero-allocation gate through
    {!Loopback.step}. *)
module Loopback : sig
  type conn

  val connect : Unix.file_descr -> conn
  (** Adopt [fd] as a text-mode connection with a fresh buffer. *)

  val upgrade_bin : conn -> unit
  (** Switch to binary framing directly (no hello exchange). *)

  val alive : conn -> bool

  val step :
    conn ->
    on_line_fast:(Unix.file_descr -> Bytes.t -> off:int -> len:int -> bool) ->
    on_frame_fast:(Unix.file_descr -> Bytes.t -> off:int -> len:int -> bool) ->
    on_line:(string -> string * [ `Continue | `Stop ]) ->
    on_frame:(bytes -> string) ->
    unit
  (** One blocking read followed by processing of every complete
      buffered message, exactly as the shard event loop would. *)
end
