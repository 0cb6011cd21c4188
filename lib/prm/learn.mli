(** PRM structure search (Sec. 4.3, relational version).

    The same greedy hill-climbing as {!Selest_bn.Learn}, with the move set
    extended to the relational setting:
    {ul
    {- add/remove an {e own} parent [R.B -> R.A];}
    {- add/remove a {e cross-table} parent [S.B -> R.A] through a foreign
       key [R.F -> S] (legal only while the structure stays attribute-
       acyclic and table-stratified, Def. 3.2);}
    {- add/remove a parent of a {e join indicator} [J_F], from either side
       of the join.}}

    Attribute families are scored on the table's extended (joined) view;
    join-indicator families are scored on the full pair space using the
    closed-form statistics of {!Suffstats.fit_join}.  One byte budget
    covers the whole model.

    Disabling cross-table and join parents yields the BN+UJ baseline of
    Sec. 5 (independent per-table BNs plus the uniform-join assumption). *)

type config = {
  kind : Selest_bn.Cpd.kind;
  budget_bytes : int;
  max_parents : int;
  rule : Selest_bn.Learn.rule;
  allow_cross_table : bool;
  allow_join_parents : bool;
  random_restarts : int;
  random_walk_length : int;
  seed : int;
}

val default_config : budget_bytes:int -> config
(** Trees, SSN, full relational move set, [max_parents = 3], 1 restart,
    [seed = 0]. *)

val bn_uj_config : budget_bytes:int -> config
(** {!default_config} with cross-table and join parents disabled: the
    BN+UJ baseline. *)

type result = {
  model : Model.t;
  loglik : float;  (** total structure score (bits); see note below *)
  bytes : int;
  iterations : int;
  trajectory : string list;
      (** Every accepted move (climb and random-walk alike), in order, as
          compact labels — the search's audit trail, compared verbatim
          between {!learn} and {!learn_reference}. *)
}

val learn : config:config -> Selest_db.Database.t -> result
(** The incremental climber: a delta move cache persists (move →
    evaluation) entries across climb iterations and invalidates only the
    accepted move's family; structure legality is answered by the
    {!Depgraph} oracle instead of per-candidate revalidation; join
    sufficient statistics flow through a shared count-once kernel
    ({!Selest_prob.Counts}).  Produces a bit-identical trajectory and
    model to {!learn_reference}.

    Note on [loglik]: attribute families contribute per-row bits,
    join-indicator families per-(tuple-pair) bits — the two live on
    different sample spaces, exactly as in the paper's unified model, so
    the total is meaningful for comparing structures but not per-row
    normalizable. *)

val learn_reference : config:config -> Selest_db.Database.t -> result
(** The naive climber retained as a trajectory oracle: re-enumerates,
    re-checks legality, and re-evaluates every candidate move on every
    iteration.  Same search contract as {!learn} — used by tests and the
    bench to certify the incremental path move-for-move. *)

val learn_prm : ?budget_bytes:int -> ?seed:int -> Selest_db.Database.t -> Model.t
(** Convenience wrapper (8KB budget, defaults otherwise). *)
