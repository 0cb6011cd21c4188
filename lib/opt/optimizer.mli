(** Cost-based join-order optimization — the paper's motivating
    application (Sec. 1: "cost-based query optimizers use intermediate
    result size estimates to choose the optimal query execution plan").

    The cost model is the classic C_out: a plan's cost is the sum of the
    estimated sizes of every intermediate result it materializes (every
    join node's sub-query, final result included).  Cardinalities come
    from any size oracle [Query.t -> float], so the same machinery ranks
    plans with the exact executor, a PRM, or the naive AVI estimator —
    making the impact of estimation quality on plan choice directly
    measurable.

    Enumeration is dynamic programming over {e connected} tuple-variable
    subsets (bitmask-indexed): left-deep by default, bushy on request.
    Because C_out charges each subset once, the DP memoizes one estimate
    per connected subset — the oracle is called [O(#connected subsets)]
    times, not once per enumerated plan. *)

type result = {
  tree : Jointree.t;
  cost : float;  (** C_out of [tree] under the given oracle *)
  n_subsets : int;  (** distinct connected sub-queries priced *)
  n_fallbacks : int;  (** of those, how many the fallback oracle priced *)
}

val best :
  ?bushy:bool ->
  ?fallback:(Selest_db.Query.t -> float) ->
  cost:(Selest_db.Query.t -> float) ->
  Selest_db.Query.t ->
  result
(** The C_out-minimal join tree ([bushy] defaults to [false]: left-deep
    only).  When [cost] raises {!Selest_est.Estimator.Unsupported} on a
    sub-query, [fallback] prices it instead (see {!independence}) so one
    unpriceable subset never aborts the whole enumeration; without a
    [fallback] the exception propagates.  Raises [Invalid_argument] if
    the query has fewer than two tuple variables or a disconnected join
    graph (same contract as {!Jointree.orders}). *)

val order_cost :
  cost:(Selest_db.Query.t -> float) -> Selest_db.Query.t -> string list -> float
(** C_out of one left-deep order: the estimated size of every prefix of
    length >= 2, plus the final result. *)

val sum_intermediates :
  cost:(Selest_db.Query.t -> float) -> Selest_db.Query.t -> Jointree.t -> float
(** C_out of an arbitrary tree under an oracle: the estimated size of
    every join node's sub-query. *)

val independence : Selest_db.Database.t -> Selest_db.Query.t -> float
(** The documented default fallback: AVI independence cost
    ({!Selest_est.Avi.build} over the full database, built lazily on
    first use), i.e. marginal-histogram selectivities under the
    attribute-value-independence and uniform-join assumptions.  Covers
    every table and attribute, so it never raises [Unsupported]. *)

val rank_correlation : float list -> float list -> float
(** Spearman rank correlation between two cost vectors over the same plan
    list (average ranks for ties) — how faithfully an estimator
    reproduces the true plan ranking. *)
