(** Single-table Bayesian-network estimator (the paper's PRM restricted to
    one table — the "PRM" series of Fig. 4 and 5).

    Learns a BN over a table's attributes (optionally a subset, for the
    equal-storage comparisons of Fig. 4) under a byte budget.  A BN over
    one table is a one-table PRM whose parents are all own attributes
    (Sec. 2 → 3), so it is learned as one ({!learn}) and answers select
    queries on the compiled plan ([Plan.compile] once per skeleton, then
    [Plan.estimate]) — the engine that serves. *)

val build :
  table:string -> ?attrs:string list -> budget_bytes:int ->
  ?kind:Selest_bn.Cpd.kind -> ?rule:Selest_prm.Learn.rule -> ?seed:int ->
  Selest_db.Database.t -> Estimator.t
(** Learns with [Prm.Learn.bn_config] and the given [kind], [rule] and
    [seed].  Queries must have a single tuple variable over [table] and
    select only modelled attributes; otherwise {!Estimator.Unsupported}.
    [prepare] compiles a supported query's plan and ignores any other
    query. *)

val learn :
  table:string -> (Selest_db.Schema.attr * int array) list ->
  config:Selest_prm.Learn.config -> Selest_prm.Learn.result
(** [learn ~table columns ~config]: [Prm.Learn.learn] on the database of
    one table named [table] with one attribute per column, in order, and
    no foreign key.  The result's model is the BN, answering queries
    over [table]. *)

val name_for : Selest_bn.Cpd.kind -> string
(** "PRM(tree)" / "PRM(table)" — the labels used in reports. *)
