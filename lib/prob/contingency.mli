(** Joint value counting (the "count and group-by query" of Sec. 4.2).

    A contingency table records, for a set of discrete columns, how many
    rows take each combination of values.  All sufficient statistics for
    parameter estimation and all exact ground-truth query sizes in the
    experiment harness are obtained through this module. *)

type t

val joint_size : int array -> int
(** Product of the cardinalities.  Raises [Invalid_argument] on a
    non-positive cardinality or when the product overflows — the single
    overflow guard every joint-index computation must go through. *)

val encoder : int array -> int array -> int
(** [encoder cards] validates the cardinalities (via {!joint_size}) once
    and returns the row-major joint-index encoder (last value fastest).
    The closure range-checks each value.  Partial-apply it outside loops:
    this is the checked way to build joint configuration indices outside
    this module (e.g. {!Selest_prm.Suffstats}). *)

val count : cards:int array -> int array array -> t
(** [count ~cards cols] scans parallel columns [cols] (all of equal length)
    whose [i]-th column ranges over [0..cards.(i)-1].  Chooses a dense or
    hashed representation based on the joint domain size. *)

val count_masked : cards:int array -> mask:bool array -> int array array -> t
(** Count only rows [r] with [mask.(r)]. *)

val cards : t -> int array
val total : t -> float

val get : t -> int array -> float
(** Count for one joint value combination. *)

val iter : t -> (int array -> float -> unit) -> unit
(** Iterate over non-zero cells.  The key array is reused — copy to keep. *)

val to_factor : vars:int array -> t -> Factor.t
(** View the counts as a (dense) factor over the given variable ids, which
    must be strictly increasing and in the same order as the counted
    columns. *)

val marginal : t -> int array -> t
(** [marginal t dims] keeps only the listed column positions (strictly
    increasing), summing over the rest. *)

val n_nonzero : t -> int
