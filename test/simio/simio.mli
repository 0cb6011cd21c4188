(** A seeded, deterministic network under {!Selest_serve.Shard.run}:
    the real shard loop over simulated peers.

    A peer sends a fixed list of messages and then closes its end.
    Reads hand the loop at most one chunk at a time, drawn from
    [1 .. max_chunk]; with [short_writes] each write takes a drawn
    share of the bytes offered, at least one.  A write never fails with
    [EAGAIN].  Everything runs on the loop's domain: the loop's [poll]
    is where the simulation moves, and when no peer is ready it runs
    the next {!when_idle} step.  Once a run is under way nothing here
    allocates on the minor heap, so the minor words a run allocates are
    the loop's. *)

type t
type fd

val create : ?seed:int -> ?short_writes:bool -> ?on_write:(unit -> unit) -> unit -> t
(** A network with no peers.  [seed] (default 0) drives every chunk and
    short-write draw; [short_writes] defaults to [false].  [on_write]
    runs after every write to a peer (a benchmark reads the GC's words
    there). *)

val io : t -> fd Selest_serve.Shard.io
(** The I/O record over this network, for {!Selest_serve.Shard.create}. *)

val connect : t -> ?max_chunk:int -> ?lockstep:bool -> string list -> fd
(** A new peer that sends these messages, then closes its end.  Without
    [max_chunk] a read takes everything that fits.  With [lockstep] the
    peer sends a message only once a reply byte arrived after the
    previous one, as a request/response client does.  Inside {!serve}
    the peer is handed to the network's shard at once; before, when
    {!serve} starts. *)

val when_idle : t -> (unit -> unit) -> unit
(** Queue a step (say, {!connect} another peer) to run the next time no
    peer is ready. *)

val serve : Selest_serve.Server.t -> t list -> unit
(** [serve server nets] runs {!Selest_serve.Server.run_shard} for shard
    [i] over the [i]th network — each in its own domain when there are
    several — until every network has no ready peer and no step left,
    then stops the server with {!Selest_serve.Server.shutdown}.  That
    stop is latched, so a server serves one such run. *)

val received : fd -> string
(** Every byte the loop has written to the peer. *)

val dropped : fd -> bool
(** The loop closed the connection before reading the peer's end of
    stream. *)
