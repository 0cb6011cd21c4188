(** Decomposable structure scores and the family-score cache (Sec. 4.1,
    4.3.1).

    The log-likelihood of a structure decomposes into per-family terms
    (Eq. 5): for tables the term is [-N * H(child | parents)] (equivalently
    [N * MI(child; parents)] plus a structure-independent constant); for
    trees it is the fitted tree's data log-likelihood.  Because a
    hill-climbing move changes one family only, terms are cached and reused
    across search iterations — the incremental-evaluation trick the paper
    highlights at the end of Sec. 4.3.3. *)

type family = {
  loglik : float;  (** maximized family log-likelihood, bits *)
  params : int;  (** free parameters of the fitted CPD *)
  bytes : int;  (** storage cost under {!Selest_util.Bytesize} accounting *)
  cpd : Cpd.t;
}

type cache

val create_cache : kind:Cpd.kind -> ?counts:Selest_prob.Counts.t * int -> Data.t -> cache
(** [counts] plugs in a count-once group-by kernel (and the table id this
    data registers under): family fits are then served from cached joint
    counts ({!Table_cpd.fit_counted} / {!Tree_cpd.fit_counted}) with
    tabulated log-likelihoods — bitwise identical scores, one data scan per
    distinct attribute set instead of per fit. *)

val family : ?max_params:int -> cache -> child:int -> parents:int array -> family
(** Fit (or recall) the family's CPD and score.  [max_params] caps the
    fitted tree's size (so a tight budget can still consider a smaller
    tree); it never shrinks a table CPD, whose size is structural.  The
    unconstrained fit is cached first and reused whenever it already fits
    the cap. *)

val family_capped : cache -> child:int -> parents:int array -> cap:int -> family
(** The cap-constrained fit alone, for callers that already know the
    unconstrained tree exceeds [cap] — the incremental climbers hold base
    fits in their move caches and re-derive only the capped variant when
    the byte budget tightens, skipping {!family}'s base-entry probe.
    Identical to [family ~max_params:cap] under that precondition. *)

val mutual_information : Data.t -> int array -> int array -> float
(** Empirical MI between two variable groups, in bits — exposed for tests
    and for reporting learned-structure quality. *)

val n_evaluations : cache -> int
(** Families actually fitted (cache misses) — used to verify incremental
    evaluation. *)
