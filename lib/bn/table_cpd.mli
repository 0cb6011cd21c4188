(** Tabular conditional probability distributions.

    One distribution over the child per joint parent configuration, stored
    densely.  Simple and fast to fit, but its size is exponential in the
    number of parents — the paper's motivation for tree CPDs. *)

type t = private {
  child_card : int;
  parents : int array;  (** variable ids, strictly increasing *)
  parent_cards : int array;
  table : float array;  (** [config * child_card + child], rows normalized *)
  fitted_weight : float;  (** rows used in fitting *)
}

val fit : Data.t -> child:int -> parents:int array -> t
(** Maximum-likelihood fit (relative frequencies, Eq. 4).  Parent
    configurations never seen in the data get the uniform distribution. *)

val fit_counted :
  Selest_prob.Counts.t -> table:int -> Data.t -> child:int -> parents:int array -> t
(** [fit] served from a count-once group-by kernel: the contingency over
    [parents @ [child]] comes from (and stays cached in) the kernel under
    table id [table], so repeated fits over overlapping families share one
    data scan per distinct attribute set.  Bitwise identical to [fit]. *)

val of_table : child_card:int -> parents:int array -> parent_cards:int array -> float array -> t
(** Build from explicit (already per-row normalized or normalizable)
    entries — used by tests and by hand-constructed models. *)

val dist : t -> int array -> float array
(** Child distribution for one parent assignment (in [parents] order).
    The returned array is the live row — do not mutate. *)

val n_params : t -> int
(** Free parameters: [configs * (child_card - 1)]. *)

val n_parents : t -> int

val loglik : t -> Data.t -> child:int -> float
(** Data log-likelihood (bits) of the child column under this CPD. *)

val loglik_tabulated : t -> Data.t -> child:int -> float
(** [loglik] with the table's log2 values precomputed once — bitwise equal,
    cheaper when the same CPD scores many rows. *)

val to_factor : var_of:(int -> int) -> child:int -> t -> Selest_prob.Factor.t
(** Factor P(child | parents) over renamed variable ids; [var_of] maps the
    CPD's variable ids (child and parents) to the target graph's ids. *)
