(** Variable elimination (the standard exact BN inference of [19]).

    Works on bags of factors, so the same engine serves single-table BNs
    and the query-evaluation networks PRMs build (Def. 3.5).  Elimination
    order is chosen greedily by minimum intermediate-factor size —
    computed incrementally on the interaction graph (eliminating a
    variable only invalidates its neighbors' costs) instead of rescanning
    every factor per candidate per step.  The order, together with each
    step's predicted intermediate size, is exposed as a first-class
    {!Schedule.t} value: callers that answer repeated query shapes (the
    plan IR in [lib/plan]) memoize schedules themselves instead of going
    through a hidden process-global cache.  Execution fuses each
    multiply-then-sum step into one {!Selest_prob.Factor.sum_out_product}
    kernel over a domain-local scratch pool, so a run performs O(1) large
    allocations once warm.  All of this is bit-compatible with the
    pre-optimization engine kept in {!Reference}.

    Every estimate the library answers, single-table BN estimates
    included, runs on the plan IR, which takes its evidence masks and
    schedules from here; {!prob_of_evidence} (behind [Bn.prob_of]) and
    {!Reference} are the one-shot engines tests check it against. *)

type evidence = (int * Selest_db.Query.pred) list
(** Variable id paired with the predicate it must satisfy.  [Eq] evidence
    slices factors; set/range evidence zeroes disallowed values and lets
    elimination sum the allowed ones — range queries cost nothing extra. *)

val apply_evidence : Selest_prob.Factor.t -> evidence -> Selest_prob.Factor.t

val normalize_evidence : Selest_prob.Factor.t list -> evidence -> evidence option
(** Conjoin multiple predicates on the same variable into one [Eq] /
    [In_set] entry; drop entries whose merged mask allows every value (a
    no-op predicate); [None] if some variable has no allowed value left
    (contradictory evidence).  Raises [Invalid_argument] if a variable is
    unknown or a value is out of range. *)

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

type prepared
(** Evidence applied, not yet eliminated: the restricted factor bag plus
    the set of variables the evidence sliced away.  Single-use — {!run}
    consumes it (intermediates are recycled through the scratch pool). *)

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
    value out of two or more), sorted: the set {!prepare} slices away
    and {!restricted_vars} reports, and the [restricted] argument of
    {!Schedule.of_shapes}. *)

val prepare : Selest_prob.Factor.t list -> evidence -> prepared option
(** Merge the evidence ({!normalize_evidence} semantics) and apply it to
    every factor.  [None] on contradictory evidence — the event is empty,
    its probability zero.  Raises [Invalid_argument] on unknown variables
    or out-of-range values. *)

val restricted_vars : prepared -> int list
(** The variables the evidence restricted to a single value, sorted.
    Together with the keep set this determines the restricted factor
    shapes, hence the schedule — it is the memo key plan caches use. *)

val prepared_factors : prepared -> Selest_prob.Factor.t list

val run : prepared -> order:int list -> float
(** Eliminate along [order] with the fused kernels and return the total
    remaining mass.  [order] must cover every variable of the prepared
    factors (plan on {!prepared_factors}). *)

val eliminate_all : Selest_prob.Factor.t list -> float
(** Multiply all factors and sum out every variable: the total mass. *)

val prob_of_evidence : Selest_prob.Factor.t list -> evidence -> float
(** P(evidence) under the normalized distribution the factors define.
    When the factors are a BN's CPDs the distribution is already
    normalized and this is simply the evidence mass.  Plans from scratch
    on every call; repeated query shapes should compile a plan
    ([lib/plan]) and reuse its memoized schedules instead. *)

(** The pre-optimization engine, verbatim: per-step greedy cost scans over
    the whole factor list, pairwise products, naive per-entry factor
    kernels ({!Selest_prob.Factor.Reference}).  The optimized path must
    produce bit-identical results; kept as the benchmark baseline and
    property-test oracle. *)
module Reference : sig
  val eliminate_all : Selest_prob.Factor.t list -> float
  val prob_of_evidence : Selest_prob.Factor.t list -> evidence -> float
end
