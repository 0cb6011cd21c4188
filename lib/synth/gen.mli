(** Sampling combinators for the synthetic data generators.

    The paper's datasets (Census, PKDD'99 Financial, SF Tuberculosis) are
    not redistributable, so each is replaced by a generator that plants the
    statistical phenomena the experiments measure: strong attribute
    correlations, conditional independencies, cross-foreign-key
    correlations, and join skew.  See DESIGN.md, "Substitutions". *)

open Selest_util

val normal_bucket : Rng.t -> mean:float -> sd:float -> card:int -> int
(** Sample a discretized Gaussian, clamped to [0..card-1].  Produces the
    smooth ordinal correlations (income vs. education, amount vs. balance)
    real data exhibits. *)

val weights : (int * float) list -> card:int -> float array
(** Sparse weight-vector literal: unlisted codes get weight 0. *)

val zipf : int -> float -> float array
(** [zipf n s]: unnormalized Zipf weights [1/(k+1)^s], k in [0..n-1]. *)

val assign_children :
  Rng.t -> parent_count:int -> total:int -> weight:(int -> float) -> int array
(** Foreign-key assignment with skew: produce a [total]-length fk column
    where parent [p] attracts children proportionally to [weight p].  The
    realized counts are multinomial, so fanout varies realistically around
    the intended skew.  Each draw is a binary search of one prefix-sum
    table, so the column costs O(total * log parent_count). *)
