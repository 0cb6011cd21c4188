(** Selectivity estimation with a PRM (Sec. 3.3) — thin wrappers over the
    plan IR.

    Given a select–keyjoin query, the estimator (1) compiles a {!Plan.t}
    for the query's skeleton — upward closure (Def. 3.3), query-evaluation
    Bayesian network (Def. 3.5), binding slots, schedule memo; (2) binds
    the query's predicates; (3) executes the plan, computing the
    probability of the selects conjoined with {e every} closure join
    indicator being true; and (4) scales by the product of the closure
    tables' sizes:

    {[ size(q) ≈ Π |T_i| · P(selects, all J = true) ]}

    Every entry point here compiles (or reuses) a plan and executes it on
    the bytecode engine that serves requests — callers with a
    long-lived skeleton should hold the {!Plan.t} themselves (the serve
    layer's plan cache does). *)

val upward_closure : Selest_prm.Model.t -> Selest_db.Query.t -> Selest_db.Query.t
(** The closed query: same selects, possibly more tuple variables and
    joins.  Idempotent; a no-op when the query already mentions every
    needed tuple variable (fresh variables are named
    ["<tv>__<fk-name>"]). *)

val prob : Selest_prm.Model.t -> Selest_db.Query.t -> float
(** P(selects ∧ all closure joins) under the PRM — the query's selectivity
    relative to the Cartesian product of the closure tables.  Contradictory
    predicates on one attribute describe an empty event: the result is
    [0.0], never an error. *)

val estimate : Selest_prm.Model.t -> sizes:int array -> Selest_db.Query.t -> float
(** Estimated result size; [sizes] holds each table's row count in schema
    order (see {!sizes_of_db}).  Compiles a fresh plan per call — the
    one-shot path. *)

val sizes_of_db : Selest_db.Database.t -> int array

val cached_estimator :
  Selest_prm.Model.t -> sizes:int array -> (Selest_db.Query.t -> float)
(** An estimation function that memoizes a compiled {!Plan.t} per query
    {e skeleton} and answers every instantiation by executing it — the
    bytecode engine that serves requests.  Bit-identical to {!estimate},
    but amortized over a suite.
    Contradictory instantiations return [0.0]. *)

val prepared_estimator :
  Selest_prm.Model.t -> sizes:int array ->
  (Selest_db.Query.t -> unit) * (Selest_db.Query.t -> float)
(** [(prepare, estimate)] sharing one skeleton cache: [prepare q] compiles
    (and caches) the plan for [q]'s skeleton without estimating, so a
    workload runner can pay compilation before its timed region;
    [estimate] behaves exactly like {!cached_estimator}. *)

val estimate_nonkey :
  Selest_prm.Model.t -> sizes:int array ->
  Selest_db.Query.t * string * string -> Selest_db.Query.t * string * string -> float
(** [estimate_nonkey m ~sizes (q1, tv1, a1) (q2, tv2, a2)]: estimated size
    of joining [q1] and [q2] on the non-key equality [tv1.a1 = tv2.a2]
    (the Sec. 6 extension), by summing the product of the two sub-queries'
    estimates over the joined attribute's values.  The sub-queries must
    bind disjoint tuple variables. *)

val group_counts :
  Selest_prm.Model.t -> sizes:int array -> Selest_db.Query.t ->
  keys:(string * string) list -> (int array * float) list
(** Approximate [GROUP BY COUNT] (the Sec. 6 application): estimated result
    sizes of {e every} instantiation of the [keys] attributes under the
    query's joins and selects.  One plan is compiled for the query plus
    one equality per key, and executed once per cell, so each cell is
    bit-identical to {!estimate} of the query with those equalities
    added.  Cells are returned in row-major order of the key domains
    (last key fastest); the estimates of all cells sum to the estimate of
    the un-grouped query.  Raises [Invalid_argument] when a key repeats. *)
