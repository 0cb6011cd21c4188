(** Large-domain attributes via discretization (Sec. 2.3).

    The paper's models assume moderate domain sizes and handle larger ones
    by bucketizing: learn the BN over bucket-level domains, answer a
    base-level query by estimating the bucket-level query and assuming
    uniformity within each bucket.  This estimator packages that pipeline:
    selected attributes are equi-depth bucketized, a BN is learned over the
    transformed table, and base-level predicates are answered as

    {[ Σ_cells est(plain selects, bucket cell) · Π_attr coverage(cell) ]}

    where the cells range over the buckets of the bucketized attributes
    the query selects on, coverage is the fraction of a bucket's base
    values satisfying that attribute's predicates, and each cell's
    estimate comes from the compiled plan of the query's plain selects
    plus one equality per bucketized attribute — one plan per such
    skeleton, compiled once and reused (the model is learned by
    {!Bn_est.learn}).  Exact bucket-level queries lose nothing;
    base-level point queries pay only the within-bucket uniformity
    assumption. *)

val build :
  table:string -> bucketize:(string * int) list -> budget_bytes:int ->
  ?kind:Selest_bn.Cpd.kind -> ?seed:int -> Selest_db.Database.t -> Estimator.t
(** [bucketize] maps attribute names to bucket counts; unlisted attributes
    keep their domains.  Storage = the BN plus one boundary value per
    bucket.  Queries must be single-table selects on [table]; [prepare]
    compiles a supported query's plan and ignores any other query. *)
