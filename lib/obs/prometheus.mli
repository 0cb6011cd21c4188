(** Prometheus text exposition (version 0.0.4), render and parse.

    Rendering covers the subset the [METRICS] verb needs: counters,
    gauges, and histograms with [# TYPE] comment lines, label sets, and
    cumulative [_bucket{le="..."}] / [_sum] / [_count] series.  The
    parser is deliberately tiny — just enough to round-trip our own
    output in tests and to let a client sanity-check a scrape — not a
    general exposition-format parser. *)

type metric =
  | Counter of {
      name : string;
      help : string;
      labels : (string * string) list;
      value : float;
    }
  | Gauge of {
      name : string;
      help : string;
      labels : (string * string) list;
      value : float;
    }
  | Histogram of {
      name : string;
      help : string;
      labels : (string * string) list;
      buckets : (float * int) array;
          (** (upper edge, {e cumulative} count), edges increasing; a
              final [+Inf] bucket equal to [count] is appended
              automatically when missing *)
      sum : float;
      count : int;
    }

val sanitize : string -> string
(** Map an internal metric name (e.g. ["ve.factor_ops"]) onto the legal
    charset [[a-zA-Z0-9_:]]; leading digits get a ['_'] prefix. *)

val header : name:string -> help:string -> kind:string -> string
(** The [# HELP] (omitted when [help] is empty) and [# TYPE] lines that
    open a family — all a declared family with no samples renders. *)

val render : metric list -> string
(** Exposition text.  Metrics sharing a name must be adjacent and of the
    same kind; the [# HELP] / [# TYPE] header is emitted once per name.
    Raises [Invalid_argument] on adjacent same-name kind conflicts. *)

type sample = {
  sample_name : string;  (** full series name, e.g. ["foo_bucket"] *)
  sample_labels : (string * string) list;
  sample_value : float;
}

val parse : string -> (string * string) list * sample list
(** [parse text] returns [(types, samples)]: the [# TYPE] declarations
    as [(metric name, "counter" | "gauge" | "histogram")] pairs in
    order, and every sample line.  Raises [Failure] on lines that are
    neither comments, blank, nor well-formed samples. *)

val find_sample :
  sample list -> name:string -> ?labels:(string * string) list -> unit ->
  float option
(** First sample matching [name] whose label set contains every pair in
    [labels] (default [[]]). *)
