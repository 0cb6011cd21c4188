(** Variable elimination (the standard exact BN inference of [19]):
    evidence normalization, elimination scheduling, and the one-shot
    oracle engine.

    Works on bags of factors, so the same code serves single-table BNs
    and the query-evaluation networks PRMs build (Def. 3.5).  Every
    estimate the library answers runs on the compiled plan IR
    ([lib/plan]), whose bytecode executor takes its evidence masks
    ({!merged_masks}) and elimination schedules ({!Schedule}) from here.
    The elimination order is chosen greedily by minimum
    intermediate-factor size, computed incrementally on the interaction
    graph (eliminating a variable only invalidates its neighbors' costs)
    instead of rescanning every factor per candidate per step.  The
    order, with each step's predicted intermediate size, is a
    first-class {!Schedule.t} value: the plan IR memoizes schedules per
    query shape itself.

    {!Reference} is the one engine that runs elimination on factor
    values: the test and benchmark oracle every compiled answer must
    equal bit for bit. *)

type evidence = (int * Selest_db.Query.pred) list
(** Variable id paired with the predicate it must satisfy.  [Eq] evidence
    slices factors; set/range evidence zeroes disallowed values and lets
    elimination sum the allowed ones — range queries cost nothing extra. *)

(** An elimination schedule: the greedy order plus, per step, the entry
    count of the intermediate factor the planner predicted when it chose
    that step (the product of the eliminated variable's induced-graph
    neighbor cardinalities).  Predicted sizes are exact for the factor
    bag the schedule was planned on; runtime counters
    ({!Selest_obs.Hotpath}) report the actual sizes for comparison. *)
module Schedule : sig
  type step = { var : int; predicted_entries : int }

  type t = { order : int list; steps : step list }
  (** [order = List.map (fun s -> s.var) steps]; kept separately so
      execution never rebuilds it. *)

  val of_shapes :
    keep:int array -> restricted:int array -> (int array * int array) list -> t
  (** [of_shapes ~keep ~restricted scopes]: the greedy
      min-intermediate-size schedule over every variable not in [keep]
      of the factor scopes [(vars, cards)] once the [restricted]
      variables are dropped from each — exactly the schedule {!plan}
      gives on the factors evidence restricting those variables
      leaves, without slicing any table.  Ties go to the smallest
      variable id.  [keep] and [restricted] must be sorted; variable
      ids must be non-negative (the planner indexes arrays by id). *)

  val plan : keep:int array -> Selest_prob.Factor.t list -> t
  (** [of_shapes ~keep ~restricted:[||]] on the factors' scopes. *)

  val pp : Format.formatter -> t -> unit
  (** Compact [var:entries > var:entries > …] rendering, shared by the
      CLI explain mode and the server's [EXPLAIN] verb. *)
end

val plan_order : keep:int array -> Selest_prob.Factor.t list -> int list
(** [(Schedule.plan ~keep factors).order].  Exposed for tests and
    benches. *)

val merged_masks :
  Selest_prob.Factor.t list -> evidence -> (int * bool array) list option
(** Merge the evidence into one allowed-value mask per variable (their
    conjunction), in first-mention order.  [None] if any variable ends
    with no allowed value (contradictory evidence).  Raises
    [Invalid_argument] on unknown variables or out-of-range values.
    Callers classifying evidence shapes (e.g. the plan compiler's
    value-slot vs mask-slot split) key off the allowed counts. *)

val restricted_of_masks : (int * bool array) list -> int list
(** The variables merged masks restrict to a single value (one allowed
    value out of two or more), sorted: the variables evidence slices out
    of every scope, and the [restricted] argument of
    {!Schedule.of_shapes}.  With the keep set they determine the
    restricted factor shapes, hence the schedule, so plan caches key
    their schedule memos on them. *)

(** The oracle engine: per-step greedy cost scans over the whole factor
    list, pairwise products, naive per-entry factor kernels
    ({!Selest_prob.Factor.Reference}).  The compiled executor must
    produce bit-identical results on the same factors and evidence; kept
    as the benchmark baseline and property-test oracle, never as a
    production fallback. *)
module Reference : sig
  val eliminate_all : Selest_prob.Factor.t list -> float
  (** Multiply all factors and sum out every variable: the total mass. *)

  val prob_of_evidence : Selest_prob.Factor.t list -> evidence -> float
  (** P(evidence) under the distribution the factors define: merge the
      evidence ({!merged_masks} semantics), slice or mask every factor
      by it, and eliminate everything.  When the factors are a BN's CPDs
      this is the P(E_q) of Sec. 2.3, range and set predicates included.
      [0.0] on contradictory evidence; raises [Invalid_argument] on
      unknown variables or out-of-range values.  Plans from scratch on
      every call. *)
end
