(** Bayesian networks over the value attributes of one table (Sec. 2.2).

    A DAG plus one CPD per variable; the joint distribution is the chain-
    rule product of the CPDs.  A fitted network approximates the normalized
    joint frequency distribution P_R of Sec. 2, so any select query's
    probability — and hence its size, via Eq. (1) — can be read off it. *)

type t = private {
  names : string array;
  cards : int array;
  dag : Dag.t;
  cpds : Cpd.t array;
  mutable factor_memo : Selest_prob.Factor.t list option;
      (** internal: memoized {!factors} *)
}

val fit : Data.t -> dag:Dag.t -> kind:Cpd.kind -> t
(** Maximum-likelihood CPDs for the given structure. *)

val n_vars : t -> int

val joint_prob : t -> int array -> float
(** Chain-rule probability of one full assignment. *)

val loglik : t -> Data.t -> float
(** Total data log-likelihood in bits (Eq. 3). *)

val factors : t -> Selest_prob.Factor.t list
(** One factor per CPD over variable ids [0..n-1], for inference. *)

val prob_of : t -> (int * Selest_db.Query.pred) list -> float
(** [prob_of bn evidence]: the probability that each listed variable
    satisfies its predicate, computed by variable elimination — the P(E_q)
    of Sec. 2.3, including range and set predicates.  Plans generic VE on
    every call: estimators answer on a compiled plan instead (see
    [Est.Bn_est]), and this stays as their oracle. *)

val sample : Selest_util.Rng.t -> t -> int array
(** Draw one joint assignment (used by generator-validation tests). *)
