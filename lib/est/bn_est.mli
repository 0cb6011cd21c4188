(** Single-table Bayesian-network estimator (the paper's PRM restricted to
    one table — the "PRM" series of Fig. 4 and 5).

    Learns a BN over a table's attributes (optionally a subset, for the
    equal-storage comparisons of Fig. 4) under a byte budget.  A BN over
    one table is a one-table PRM whose parents are all own attributes
    (Sec. 2 → 3), so the estimator converts it ({!model_of_bn}) and
    answers select queries on the compiled plan ([Plan.compile] once per
    skeleton, then [Plan.estimate]) — the engine that serves. *)

val build :
  table:string -> ?attrs:string list -> budget_bytes:int ->
  ?kind:Selest_bn.Cpd.kind -> ?rule:Selest_bn.Learn.rule -> ?seed:int ->
  Selest_db.Database.t -> Estimator.t
(** Queries must have a single tuple variable over [table] and select only
    modelled attributes; otherwise {!Estimator.Unsupported}.  [prepare]
    compiles a supported query's plan and ignores any other query. *)

val model_of_bn :
  table:string -> Selest_db.Schema.attr list -> Selest_bn.Bn.t -> Selest_prm.Model.t
(** [model_of_bn ~table attrs bn]: the one-table PRM [bn] is.  Its schema
    is one table named [table] with just [attrs] — one per BN variable,
    in variable order, each with the domain its variable ranges over —
    and no foreign key; each CPD becomes the family of its variable,
    with an [Own] parent per CPD parent.  Raises [Invalid_argument] when
    the attributes disagree with the variables in number or
    cardinality. *)

val name_for : Selest_bn.Cpd.kind -> string
(** "PRM(tree)" / "PRM(table)" — the labels used in reports. *)
