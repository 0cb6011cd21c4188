(** Directed acyclic graph structure over variables [0..n-1].

    The dependency structure S of a Bayesian network (Sec. 2.2): node [v]'s
    parents are the variables its CPD conditions on. *)

type t

val empty : int -> t
val n_nodes : t -> int
val parents : t -> int -> int array
(** Sorted ascending. *)

val children : t -> int -> int array
val has_edge : t -> src:int -> dst:int -> bool
val n_edges : t -> int

val add_edge : t -> src:int -> dst:int -> t
(** Raises [Invalid_argument] if the edge exists, is a self-loop, or would
    create a cycle. *)

val remove_edge : t -> src:int -> dst:int -> t
(** Raises [Invalid_argument] if absent. *)

val creates_cycle : t -> src:int -> dst:int -> bool
(** Would adding [src -> dst] close a directed cycle? *)

val topological_order : t -> int array
(** Parents before children. *)

