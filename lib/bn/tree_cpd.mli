(** Tree-structured conditional probability distributions (Sec. 2.2,
    Fig. 2(b)).

    Interior vertices split on the value of a parent variable — either one
    branch per value (multiway) or a threshold cut for ordinal parents, as
    in the paper's Age >= 55 example — and leaves hold distributions over
    the child.  Trees spend parameters only where the data warrants a
    distinction, which is why they dominate table CPDs at equal storage in
    the paper's Fig. 5. *)

type node =
  | Leaf of { dist : float array; weight : float }
  | Split of { pindex : int; arms : arms }
      (** [pindex] indexes into the CPD's parent array *)

and arms =
  | Multi of node array  (** child per parent value *)
  | Thresh of int * node * node  (** [Thresh (cut, lo, hi)]: value < cut goes lo *)

type t = private {
  child_card : int;
  parents : int array;  (** variable ids, strictly increasing *)
  parent_cards : int array;
  parent_ordinal : bool array;
  root : node;
  n_leaves : int;
  n_splits : int;
  fitted_weight : float;
}

val fit :
  Data.t -> child:int -> parents:int array -> ?param_budget:int ->
  ?gain_threshold:float -> unit -> t
(** Greedy best-first growth: repeatedly apply the leaf split with the best
    likelihood-gain-per-parameter ratio, while total parameters stay within
    [param_budget] (default unlimited) and each split gains at least
    [gain_threshold] bits per parameter it adds (default [log2 N / 2], a
    BIC-style floor that stops useless splits).  Leaves fit maximum-
    likelihood child frequencies. *)

val fit_counted :
  Selest_prob.Counts.t -> table:int -> Data.t -> child:int -> parents:int array ->
  ?param_budget:int -> ?gain_threshold:float -> unit -> t
(** [fit] served from a count-once group-by kernel instead of row scans:
    every split-gain and leaf statistic is an aggregation of a cached joint
    count over (path parents, candidate parent, child), registered in the
    kernel under table id [table].  The data is scanned once per distinct
    attribute set — across every fit sharing the kernel — rather than once
    per query.  The result is bitwise identical to [fit]'s (all counts
    are exact integer floats, so accumulation order cannot matter). *)

val leaf : float array -> node
(** Hand-construct a (normalized) leaf, for explicit models in tests. *)

val of_tree :
  child_card:int -> parents:int array -> parent_cards:int array ->
  ?parent_ordinal:bool array -> node -> t
(** Validate and wrap an explicit tree. *)

val dist : t -> int array -> float array
(** Child distribution for a parent assignment (in [parents] order). *)

val n_params : t -> int
(** [n_leaves * (child_card - 1) + 2 * n_splits]: leaf distributions plus
    the split variable and cut stored at each interior vertex. *)

val n_parents : t -> int

val used_parents : t -> int array
(** Parents actually split on somewhere in the tree (some proposed parents
    may turn out useless). *)

val refit : t -> Data.t -> child:int -> t
(** Keep the tree structure; refresh every leaf distribution from new data
    (the parameter-only update of incremental model maintenance). *)

val loglik : t -> Data.t -> child:int -> float
(** Data log-likelihood in bits. *)

val loglik_tabulated : t -> Data.t -> child:int -> float
(** [loglik] with each leaf's log2 values computed once instead of once per
    row — bitwise equal (same inputs, same row-order accumulation), several
    times cheaper on wide data. *)

val to_factor : var_of:(int -> int) -> child:int -> t -> Selest_prob.Factor.t
val depth : t -> int
val pp : names:(int -> string) -> Format.formatter -> t -> unit
