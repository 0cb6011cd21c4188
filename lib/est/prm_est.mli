(** Full PRM estimator, plus the BN+UJ ablation (Sec. 5, select–join
    experiments).

    [build] learns an unrestricted PRM: per-table models, cross-foreign-key
    parents and join-indicator parents, all under one byte budget.
    [build_bn_uj] restricts the move set to intra-table edges and leaves
    every join indicator parentless — per-table Bayesian networks under
    the uniform-join assumption, the paper's BN+UJ baseline. *)

val build :
  budget_bytes:int -> ?kind:Selest_bn.Cpd.kind -> ?rule:Selest_prm.Learn.rule ->
  ?seed:int -> Selest_db.Database.t -> Estimator.t

val build_bn_uj :
  budget_bytes:int -> ?kind:Selest_bn.Cpd.kind -> ?rule:Selest_prm.Learn.rule ->
  ?seed:int -> Selest_db.Database.t -> Estimator.t

val of_model : name:string -> Selest_prm.Model.t -> sizes:int array -> Estimator.t
(** Wrap an already-learned PRM (used by the CLI after loading a model). *)
