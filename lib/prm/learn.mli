(** PRM structure search (Sec. 4.3).

    Greedy hill-climbing over parent additions and removals under one
    byte budget, escaping local maxima with bounded random walks
    (deterministic in [seed]) and keeping the best structure seen.  The
    move set is the relational one:
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
    Sec. 5 (independent per-table BNs plus the uniform-join assumption).
    A database of one table without foreign keys is a BN (Sec. 3), so the
    same search learns every single-table model too ({!bn_config}). *)

(** Move-selection rules (Sec. 4.3.3). *)
type rule =
  | Naive  (** largest raw likelihood improvement *)
  | Ssn
      (** storage-size-normalized: largest improvement per byte of model
          growth (the knapsack heuristic) *)
  | Mdl  (** improvement net of a description-length charge per added parameter *)

type config = {
  kind : Selest_bn.Cpd.kind;
  budget_bytes : int;
  max_parents : int;
  rule : rule;
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

val bn_config : budget_bytes:int -> config
(** {!bn_uj_config} with [max_parents = 4] and 2 restarts (walks of
    length 3, trees, SSN, [seed = 0]): the single-table BN search of
    Fig. 4, 5 and 7, run on a database of one table without foreign
    keys. *)

type result = {
  model : Model.t;
  loglik : float;  (** total structure score (bits); see note below *)
  bytes : int;
  iterations : int;
  family_evaluations : int;
      (** Families actually fitted: score-cache misses over every table
          plus join sufficient-statistic fits.  Equal between {!learn}
          and {!learn_reference}. *)
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
