(** Column-oriented training data for Bayesian-network learning.

    A thin view of discrete columns, decoupled from {!Selest_db.Table} so
    that the same learner fits single-table models, joined (cross-table)
    families for PRMs, and synthetic matrices in tests. *)

type t = private {
  names : string array;
  cards : int array;
  ordinal : bool array;  (** whether threshold splits make sense per var *)
  cols : int array array;
  n : int;
}

val create :
  names:string array -> cards:int array -> ?ordinal:bool array ->
  int array array -> t
(** Validates shapes and value ranges.  [ordinal] defaults to all-false. *)

val of_table : Selest_db.Table.t -> t
(** View a database table's value attributes (shares the column arrays). *)

val n_vars : t -> int
val total_weight : t -> float
(** The row count, as a float. *)

val contingency : t -> int array -> Selest_prob.Contingency.t
(** Joint counts over the listed variables (strictly increasing ids). *)
