(** One executor shard's connection event loop.

    A shard-per-domain server spawns one domain per shard; each domain
    runs {!run}, which multiplexes every connection the listener has
    handed it over a [poll(2)] loop (a C stub that releases the runtime
    lock while it waits; no fd-number limit, unlike [select]).  The
    connections live in arrays that persist across wakeups, so a
    wakeup allocates nothing.  The listener→shard handoff is a
    small mutex-guarded mailbox plus a self-pipe wakeup — synchronized
    once per {e connection}, never per request — and from then on the
    connection is owned exclusively by the shard: reading, message
    extraction, dispatch and the reply write all happen on the shard's
    domain with no locks.  {!run} is the only code that reads from or
    writes to a connection.

    The loop understands both wire formats of {!Protocol}: newline-
    terminated text lines, and, after a connection sends the [BIN]
    hello, length-prefixed binary frames.  Partial reads are buffered
    per connection, and the newline scan resumes where the previous read's
    scan stopped.  A frame announcing more than {!Protocol.Bin.max_frame}
    bytes is answered with a binary error, and a text line longer than
    that cap with an [ERR] line; either way the connection is dropped
    (the stream cannot be resynchronized).

    Every system call the loop makes goes through an {!io} record over
    an abstract connection handle: {!unix} in production, a simulated
    network in tests and benchmarks, the same loop either way. *)

type 'fd io = {
  poll : 'fd array -> int array -> int -> int -> int;
      (** [poll fds revents n timeout_ms]: wait until one of the first
          [n] handles is readable (or hung up), at most [timeout_ms];
          write each one's readiness (nonzero = ready) into [revents]
          and return how many are ready, 0 on a timeout. *)
  read : 'fd -> Bytes.t -> int -> int -> int;
      (** [Unix.read]'s contract: 0 is end of stream; [EAGAIN] raises. *)
  write : 'fd -> Bytes.t -> int -> int -> int;
      (** [Unix.write]'s contract: may write fewer bytes than asked. *)
  close : 'fd -> unit;
  pipe : unit -> 'fd * 'fd;
      (** A fresh wakeup channel (read end, write end); neither end may
          block. *)
}

val unix : Unix.file_descr io
(** The real I/O: the [poll(2)] stub and [Unix.read]/[write]/[close]. *)

type 'fd t

val create : 'fd io -> sid:int -> 'fd t
(** A shard runtime over [io] with an empty mailbox and a fresh wakeup
    pipe. *)

val sid : 'fd t -> int

val submit : 'fd t -> 'fd -> unit
(** Hand a connection to this shard (listener side): enqueue it and
    wake the loop.  The shard now owns closing it. *)

val wake : 'fd t -> unit
(** Wake the loop out of [poll] (used to propagate a stop request). *)

val run :
  'fd t ->
  stop:bool Atomic.t ->
  on_line:(Bytes.t -> off:int -> len:int -> string) ->
  on_frame:(Bytes.t -> off:int -> len:int -> string) ->
  on_close:(unit -> unit) ->
  on_protocol_error:(unit -> unit) ->
  on_conn_error:(exn -> unit) ->
  unit
(** Run the event loop until [stop] is set.

    Every complete message is handed to its framing's handler as a
    {e slice of the connection buffer}, valid only during the call:
    [on_line buf ~off ~len] gets one text line (newline and one
    trailing CR stripped), [on_frame buf ~off ~len] one frame payload
    (length prefix stripped).  Each returns the complete reply — a text
    reply ends in its newline, a binary one carries its length prefix —
    and the loop writes it.  Returning a stored string writes it with
    no allocation.  A text line that is the [BIN] hello (any case,
    surrounding blanks ignored) never reaches [on_line]: the loop
    answers [OK bin] and switches that connection to frames.

    Once [stop] is set — by a handler (the server latches it on
    [SHUTDOWN], whose reply is still written) or by anyone else — the
    loop answers nothing more and exits.  [on_close] fires exactly once
    per connection this shard ever owned — the listener's admission
    accounting decrements on it.  [on_protocol_error] fires on
    unrecoverable framing errors (oversized frame announcements, over-
    cap lines).  When a handler raises anything but an I/O error (those
    just close the connection), the loop closes that connection, passes
    the exception to [on_conn_error] and goes on serving the others.
    On exit every owned or still-queued connection is closed — also
    when the loop itself raises (say, [poll] fails), after which the
    exception propagates. *)

val destroy : 'fd t -> unit
(** Close the wakeup pipe (after {!run} has returned). *)
