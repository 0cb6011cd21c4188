(** Structured JSONL trace log ([--trace-log FILE]).

    {!install} opens (appends to) [file] and registers a thread-safe
    global span sink that writes one JSON object per closed span:

    {v
    {"name":"prm.estimate","id":3,"parent":2,"depth":2,
     "start_ns":123,"end_ns":456,"dur_us":0.333,
     "attrs":{"factors":"7","tvars":"c;p;s"}}
    v}

    Lines are written under a mutex so records from concurrent domains
    never interleave mid-line.  Installing replaces any previously
    installed trace log. *)

val install : string -> unit
(** Raises [Sys_error] if the file cannot be opened. *)

val close : unit -> unit
(** Flush, close, and deregister the sink.  No-op when not installed. *)

val installed : unit -> bool
