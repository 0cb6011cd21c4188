(** Multi-dimensional potentials over discrete variables.

    A factor maps joint assignments of a set of variables (identified by
    integer ids, each with a fixed cardinality) to non-negative reals.
    Factors are the workhorse of Bayesian-network inference: CPDs are
    converted to factors, and variable elimination repeatedly multiplies
    factors and sums variables out.

    Every table-walking operation here runs on incremental stride
    ("odometer") kernels: operand and output indices are advanced digit by
    digit instead of decoded with div/mod per entry, and the fused kernels
    ({!sum_out_product}, {!marginalize_onto}) combine a whole
    multiply-then-marginalize step into one pass with a single output
    allocation.  {!Reference} keeps the naive per-entry implementations as
    a test oracle. *)

type t

type scratch
(** A checkout pool of exactly-sized tables.  A long variable-elimination
    run that routes its intermediate factors through one pool performs
    O(1) large allocations: each elimination takes its output buffer from
    the pool and releases the buffers of the factors it consumed.

    Contract: a factor built on a taken buffer aliases pool memory; it
    must be released (via {!release}) only once no live factor references
    the buffer, and never used after release. *)

val create : vars:int array -> cards:int array -> float array -> t
(** [create ~vars ~cards data]: [vars] must be strictly increasing;
    [cards.(i)] is the cardinality of [vars.(i)]; [data] is laid out
    row-major with the {e last} variable fastest and must have length
    [prod cards].  Raises [Invalid_argument] on any violation. *)

val of_fun : vars:int array -> cards:int array -> (int array -> float) -> t
(** Tabulate a function of the joint assignment (assignment array is in
    [vars] order and reused across calls — copy it if you keep it). *)

val constant : float -> t
(** Scalar factor over no variables. *)

val vars : t -> int array
val cards : t -> int array
val size : t -> int
(** Number of entries. *)

val data : t -> float array
(** The underlying table (a copy). *)

val unsafe_data : t -> float array
(** The {e live} underlying table — no copy.  The array aliases the
    factor's storage: writing to it corrupts the factor, and for factors
    built on {!scratch} buffers it aliases pool memory.  Intended for
    compiled executors ({!Selest_plan.Exec}) that read factor tables in
    place to avoid per-request allocation. *)

val unsafe_vars : t -> int array
val unsafe_cards : t -> int array
(** The live scope arrays behind {!vars} and {!cards} — no copy, never
    to be written.  For code that reads many scopes per call (the
    elimination planner, plan and bytecode compilation). *)

val strides_of : t -> int array
(** Row-major strides of the factor's table, last variable fastest:
    [strides_of f].(i) is the index step when [vars f].(i) advances by
    one.  A fresh array per call. *)

val get : t -> int array -> float
(** [get f asg]: value at the assignment given in [vars f] order. *)

val mentions : t -> int -> bool
(** Scope membership (early-exit scan of the sorted scope). *)

val product : t -> t -> t
(** Pointwise product over the union of scopes. *)

val product_all : t list -> t
(** Multiply a whole list over the union scope in one odometer pass.
    Entry values associate left over the list order, so the result is
    bitwise equal to [List.fold_left product] — without the intermediate
    tables.  [product_all \[\]] is [constant 1.0]. *)

val sum_out : t -> int -> t
(** [sum_out f v] marginalizes variable [v] away.  If [v] is not in the
    scope, [f] is returned unchanged. *)

val sum_out_product : ?scratch:scratch -> t list -> int -> t
(** [sum_out_product fs v]: [sum_out (product_all fs) v] fused into a
    single pass that never materializes the product table, with identical
    floating-point results (same multiplication association, same
    summation order).  This is the variable-elimination step.  With
    [?scratch], the output table is checked out of the pool instead of
    allocated — see {!scratch} for the ownership contract.  Raises
    [Invalid_argument] on an empty list. *)

val restrict : t -> int -> int -> t
(** [restrict f v x] slices the table at [v = x], removing [v] from the
    scope.  No-op if [v] is not in scope. *)

val observe : t -> int -> (int -> bool) -> t
(** [observe f v allowed] zeroes entries whose [v]-value fails [allowed],
    keeping [v] in scope.  Used for range/set predicates: restricting to a
    set and later summing [v] out computes P(v ∈ S, ...).  The predicate
    is evaluated once per {e value} of [v] (not once per table entry) and
    the zeroing runs on stride slabs.  No-op if [v] is not in scope. *)

val observe_mask : t -> int -> bool array -> t
(** [observe] with the allowed set already tabulated; [mask] must have
    length [card v].  When every value is allowed the factor is returned
    physically unchanged.  No-op if [v] is not in scope. *)

val total : t -> float
(** Sum of all entries. *)

val marginal : t -> int array -> t
(** [marginal f keep] sums out every variable not in [keep], in one fused
    pass over the table ({!marginalize_onto}). *)

val marginalize_onto : t -> int array -> t
(** [marginalize_onto f keep]: project [f] onto [keep ∩ vars f], summing
    all other variables out in a single table pass (rather than one
    [sum_out] pass per variable).  [keep] need not be sorted and may
    mention variables outside the scope. *)

val mem_sorted : int array -> int -> bool
(** Membership in a sorted int array (the scope/keep-set representation
    used across the inference layer). *)

val scratch : unit -> scratch

val release : scratch -> t -> unit
(** Return the factor's table to the pool.  Only release factors produced
    by [sum_out_product ~scratch] / [product_into] on the same pool —
    releasing a shared factor would let the pool overwrite it. *)

val product_into : scratch -> t -> t -> t
(** {!product} writing its output into a pool buffer. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** The pre-optimization per-entry kernels, kept as a property-test oracle
    for the stride kernels above. *)
module Reference : sig
  val sum_out : t -> int -> t
  val restrict : t -> int -> int -> t
  val observe : t -> int -> (int -> bool) -> t
  val product : t -> t -> t
  val marginal : t -> int array -> t
end
