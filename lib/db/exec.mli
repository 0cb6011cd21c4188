(** Exact evaluation of select–keyjoin queries.

    The experiment harness needs the true result size of every query (the
    paper evaluates thousands per suite), so exactness and batch efficiency
    matter.  Join graphs must be acyclic (a forest over the tuple
    variables), which is the shape foreign-key join queries take in the
    paper; sizes are computed by a single weight-propagation pass over the
    forest — no join is ever materialized. *)

val validate : Database.t -> Query.t -> unit
(** Check the query against the database schema: tables, attributes and
    foreign keys exist, join targets match, predicate values are in domain,
    the join graph is a forest.  Raises [Invalid_argument] otherwise. *)

val select_mask : Database.t -> Query.t -> string -> bool array
(** [select_mask db q tv]: per-row truth of the conjunction of [q]'s
    selects on tuple variable [tv]. *)

val query_size : Database.t -> Query.t -> float
(** Exact result size.  Tuple variables not linked by any join contribute a
    Cartesian factor, as in relational semantics. *)

val single_base : Database.t -> Query.t -> string option
(** A tuple variable from which every other tuple variable is reachable by
    following foreign keys upward, if one exists.  Such a query's join
    result has exactly one row per selected base row (referential
    integrity), enabling column resolution. *)

val resolve_rows : Database.t -> Query.t -> base:string -> tv:string -> int array
(** [resolve_rows db q ~base ~tv]: for each row of [base]'s table, the row
    of [tv]'s table it joins with (following [q]'s join path).  Identity
    when [tv = base].  Raises if [tv] is not reachable from [base]. *)

val resolve_column : Database.t -> Query.t -> base:string -> tv:string -> attr:string -> int array
(** The [tv.attr] value each base row joins with — a materialized joined
    column, the workhorse for cross-table sufficient statistics. *)

val joint_counts :
  Database.t -> Query.t -> keys:(string * string) list -> Selest_prob.Contingency.t
(** [joint_counts db q ~keys]: the contingency table of the query's join
    result over the listed [(tuple variable, attribute)] pairs, with [q]'s
    selects applied as a filter.  Requires {!single_base} to succeed.  The
    ground truth for {e every} equality query over [keys] in one pass. *)

val nonkey_join_size :
  Database.t -> Query.t * string * string -> Query.t * string * string -> float
(** [nonkey_join_size db (q1, tv1, a1) (q2, tv2, a2)]: exact size of the
    query joining [q1] and [q2] on the non-key equality
    [tv1.a1 = tv2.a2] (Sec. 6's extension): the two sub-queries must bind
    disjoint tuple variables, and the attributes must share a domain
    cardinality.  Computed as Σ_v |q1 ∧ a1=v| · |q2 ∧ a2=v|. *)
