(** Multi-dimensional potentials over discrete variables.

    A factor maps joint assignments of a set of variables (identified by
    integer ids, each with a fixed cardinality) to non-negative reals.
    Factors are the workhorse of Bayesian-network inference: CPDs are
    converted to factors, and variable elimination repeatedly multiplies
    factors and sums variables out.

    Estimates are computed by the compiled bytecode executor
    ({!Selest_plan.Exec}), which reads factor tables in place.  The
    elimination algebra here ({!product} and the {!Reference} kernels)
    is what its test oracle, [Selest_bn.Ve.Reference], runs on. *)

type t

val create : vars:int array -> cards:int array -> float array -> t
(** [create ~vars ~cards data]: [vars] must be strictly increasing;
    [cards.(i)] is the cardinality of [vars.(i)]; [data] is laid out
    row-major with the {e last} variable fastest and must have length
    [prod cards].  Raises [Invalid_argument] on any violation. *)

val of_fun : vars:int array -> cards:int array -> (int array -> float) -> t
(** Tabulate a function of the joint assignment (assignment array is in
    [vars] order and reused across calls — copy it if you keep it). *)

val vars : t -> int array
val cards : t -> int array
val size : t -> int
(** Number of entries. *)

val data : t -> float array
(** The underlying table (a copy). *)

val unsafe_data : t -> float array
(** The {e live} underlying table — no copy.  The array aliases the
    factor's storage: writing to it corrupts the factor.  Intended for
    compiled executors ({!Selest_plan.Exec}) that read factor tables in
    place to avoid per-request allocation. *)

val unsafe_vars : t -> int array
val unsafe_cards : t -> int array
(** The live scope arrays behind {!vars} and {!cards} — no copy, never
    to be written.  For code that reads many scopes per call (the
    elimination planner, plan and bytecode compilation). *)

val get : t -> int array -> float
(** [get f asg]: value at the assignment given in [vars f] order. *)

val mentions : t -> int -> bool
(** Scope membership (early-exit scan of the sorted scope). *)

val product : t -> t -> t
(** Pointwise product over the union of scopes, on an incremental
    stride ("odometer") walk: operand indices advance digit by digit
    instead of being decoded per entry.  Raises [Invalid_argument] when
    the operands disagree on a shared variable's cardinality. *)

val total : t -> float
(** Sum of all entries. *)

val mem_sorted : int array -> int -> bool
(** Membership in a sorted int array (the scope/keep-set representation
    used across the inference layer). *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Per-entry decode kernels: the factor algebra of the variable
    elimination oracle [Selest_bn.Ve.Reference].  None mutates its
    input. *)
module Reference : sig
  val sum_out : t -> int -> t
  (** [sum_out f v] marginalizes variable [v] away.  If [v] is not in the
      scope, [f] is returned unchanged. *)

  val restrict : t -> int -> int -> t
  (** [restrict f v x] slices the table at [v = x], removing [v] from the
      scope.  No-op if [v] is not in scope; raises [Invalid_argument] if
      [x] is out of range. *)

  val observe : t -> int -> (int -> bool) -> t
  (** [observe f v allowed] zeroes entries whose [v]-value fails
      [allowed], keeping [v] in scope: restricting to a set and later
      summing [v] out computes P(v ∈ S, ...).  No-op if [v] is not in
      scope. *)

  val product : t -> t -> t
  (** {!product}. *)
end
