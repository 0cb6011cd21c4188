(** Reverse foreign-key index (CSR layout).

    For a foreign key [child.fk -> parent], the index answers "which child
    rows reference parent row [p]?" in O(1 + fanout).  Equivalent to the
    hash index Sec. 4.2 assumes when arguing the sufficient-statistics joins
    are linear-time. *)

type t

val build : fk_col:int array -> target_size:int -> t

val children : t -> int -> int array
(** Child rows referencing the given parent row (a fresh array). *)

val fanout : t -> int -> int
val max_fanout : t -> int
val mean_fanout : t -> float
