(** Selest: selectivity estimation with probabilistic models.

    An OCaml implementation of Getoor, Taskar & Koller, {e "Selectivity
    Estimation using Probabilistic Models"}, SIGMOD 2001: Bayesian networks
    for single-table select selectivity, probabilistic relational models
    (PRMs) for select–foreign-key-join selectivity, and the paper's
    baselines (AVI, MHIST, SAMPLE, BN+UJ) behind one estimator interface.

    {2 Quick start}

    {[
      let db = Selest.Synth.Census.generate ~rows:50_000 ~seed:1 () in
      let est = Selest.prm_estimator ~budget_bytes:4096 db in
      let q =
        Selest.Db.Query.create
          ~tvars:[ ("t", "person") ]
          ~selects:[ Selest.Db.Query.eq "t" "Income" 7 ]
          ()
      in
      Printf.printf "estimated size: %.1f\n" (est.Selest.Est.Estimator.estimate q)
    ]}

    The submodules below re-export the full library; see each module's own
    documentation. *)

(** {1 Library layers} *)

module Util = Selest_util
module Obs = Selest_obs
module Prob = Selest_prob
module Db = Selest_db
module Synth = Selest_synth
module Bn = Selest_bn

(** The PRM layer plus the estimation entry points, which live in
    [lib/plan] (they are wrappers over the compiled plan IR) but keep
    their historical [Prm.Estimate] address. *)
module Prm : sig
  include module type of struct
    include Selest_prm
  end

  module Estimate = Selest_plan.Estimate
end

module Plan = Selest_plan.Plan
module Est = Selest_est
module Opt = Selest_opt
module Workload = Selest_workload
module Serve = Selest_serve

(** {1 One-call pipelines} *)

val learn_bn :
  ?budget_bytes:int -> ?kind:Selest_bn.Cpd.kind -> ?rule:Selest_prm.Learn.rule ->
  ?seed:int -> Selest_db.Table.t -> Selest_prm.Model.t
(** Learn a Bayesian network over one table's attributes (offline phase,
    single-table case): the one-table PRM of those attributes, with no
    foreign key, learned with [Prm.Learn.bn_config] (8KB budget). *)

val learn_prm :
  ?budget_bytes:int -> ?seed:int -> Selest_db.Database.t -> Selest_prm.Model.t
(** Learn a full PRM over a database (offline phase, relational case). *)

val estimate :
  Selest_prm.Model.t -> Selest_db.Database.t -> Selest_db.Query.t -> float
(** Online phase: estimated result size of a select–keyjoin query. *)

val prm_estimator :
  budget_bytes:int -> ?seed:int -> Selest_db.Database.t -> Selest_est.Estimator.t
(** Learn a PRM and package it behind the common estimator interface. *)

val true_size : Selest_db.Database.t -> Selest_db.Query.t -> float
(** Exact result size (for validation; scans the database). *)
