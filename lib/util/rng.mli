(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the library (data generators, samplers,
    learners with random restarts) threads one of these states so that a
    single root seed reproduces an entire experiment.  The implementation is
    splitmix64, which has good statistical quality for this purpose and a
    trivially splittable state. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].  Used to
    hand child components their own streams without coupling their
    consumption patterns. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val categorical : t -> float array -> int
(** [categorical t weights] draws an index proportionally to the
    (non-negative, not necessarily normalized) [weights], with one
    {!float} draw.  Raises [Invalid_argument] on an empty array, a
    negative, NaN or infinite weight, or weights summing to zero or
    overflowing to infinity. *)

type cdf
(** A categorical distribution prepared for repeated draws. *)

val cdf : float array -> cdf
(** [cdf weights] builds the prefix sums of [weights] in O(n).  Raises
    [Invalid_argument] on the weights {!categorical} rejects. *)

val draw : t -> cdf -> int
(** [draw t (cdf weights)] returns the index [categorical t weights]
    returns, consuming the same single {!float} draw, in O(log n). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] returns [k] distinct indices drawn
    uniformly from [\[0, n)], in increasing order.  Raises
    [Invalid_argument] if [k > n] or [k < 0]. *)
