(** Join trees: the shape of a physical plan over a select–keyjoin query.

    A tree's leaves are the query's tuple variables; each internal node
    joins its two children on the (unique, by the forest invariant of
    {!Selest_db.Exec.validate}) query join edge connecting them — or by a
    Cartesian product when the query leaves them unconnected.  Left-deep
    trees correspond one-to-one with join {e orders}; {!Optimizer} can
    also produce bushy trees. *)

type t =
  | Leaf of string  (** a tuple variable *)
  | Join of t * t

val leaves : t -> string list
(** Tuple variables of the subtree, left to right. *)

val left_deep : string list -> t
(** The left-deep tree of a join order.  Raises [Invalid_argument] on an
    empty order. *)

val order_of : t -> string list option
(** The join order of a left-deep tree; [None] if the tree is bushy. *)

val subquery : Selest_db.Query.t -> string list -> Selest_db.Query.t
(** The sub-query over a subset of tuple variables: those variables, the
    joins among them, and the selects on them. *)

val orders : Selest_db.Query.t -> string list list
(** All connected left-deep join orders: every prefix is connected
    through the query's join clauses.  Raises [Invalid_argument] if the
    query has fewer than two tuple variables or a disconnected join
    graph. *)

val connecting_join : Selest_db.Query.t -> string list -> string list -> Selest_db.Query.join option
(** The query join edge linking two disjoint tuple-variable sets.  By the
    forest invariant there is at most one; [None] means a Cartesian
    product. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, e.g. [((c ⨝ p) ⨝ s)]. *)
