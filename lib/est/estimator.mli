(** The common interface every selectivity estimator implements.

    An estimator is built offline from a database under a storage budget
    (the paper's two-phase architecture, Sec. 1); online it maps a
    select–keyjoin query to an estimated result size.  The [bytes] field is
    the model's storage under the library-wide accounting
    ({!Selest_util.Bytesize}), the x-axis of every accuracy-vs-storage
    figure. *)

type t = {
  name : string;
  bytes : int;
  prepare : Selest_db.Query.t -> unit;
      (** Pay any per-skeleton work (plan compilation) for the given
          query's shape up front, so a suite runner keeps it out of the
          per-query path.  A no-op for estimators with no compiled state
          and for a query [estimate] rejects (the runner calls it
          outside its {!Unsupported} handler); always optional —
          [estimate] must work without it. *)
  estimate : Selest_db.Query.t -> float;
}

exception Unsupported of string
(** Raised by [estimate] when a query is outside the estimator's supported
    class (e.g. a join query against a single-table histogram, or a sample
    of a join asked about a table it cannot debias).  The experiment
    harness treats this as an error, never as a zero estimate. *)

val adjusted_relative_error : truth:float -> estimate:float -> float
(** The paper's error metric: [|truth - estimate| / max 1 truth], as a
    percentage. *)
