(** Discrete probability distributions over a finite domain [0..k-1]. *)

type t = private float array
(** Normalized, non-negative.  The representation is exposed read-only so
    hot paths can index without a function call. *)

val uniform : int -> t
(** [uniform k] over a domain of size [k].  Raises on [k <= 0]. *)

val of_weights : float array -> t
(** Normalize a non-negative weight vector.  An all-zero vector yields the
    uniform distribution (the convention for empty data partitions). *)

val of_counts : ?smoothing:float -> float array -> t
(** [of_counts ~smoothing c] is the maximum-likelihood distribution from
    counts [c], with optional additive (Laplace) smoothing.  Smoothing
    defaults to [0.]: the paper fits exact relative frequencies because the
    model summarizes, rather than generalizes from, the data (Sec. 4.1). *)

val point : int -> int -> t
(** [point k v] puts all mass on value [v] of a [k]-sized domain. *)

val arity : t -> int
val prob : t -> int -> float

val entropy : t -> float
(** Shannon entropy in bits. *)

val kl : t -> t -> float
(** [kl p q]: Kullback–Leibler divergence D(p || q) in bits; [infinity] when
    absolutely-continuity fails. *)

val total_variation : t -> t -> float

val sample : Selest_util.Rng.t -> t -> int

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
