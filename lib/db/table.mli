(** Columnar table storage.

    Rows are identified by their index [0..size-1], which doubles as the
    primary key.  Value attributes and foreign keys are stored as separate
    [int array] columns for cache-friendly scans — parameter estimation and
    exact query evaluation are all column scans. *)

type t

val create : Schema.table_schema -> cols:int array array -> fk_cols:int array array -> t
(** [create schema ~cols ~fk_cols]: one column per schema attribute and per
    foreign key, all of equal length.  Values are validated against domain
    cardinalities; foreign-key ranges are validated by
    {!Integrity.check}. *)

val schema : t -> Schema.table_schema
val size : t -> int
val name : t -> string

val col : t -> int -> int array
(** Column of the [i]-th value attribute (the live array — do not
    mutate). *)

val col_by_name : t -> string -> int array
val fk_col : t -> int -> int array
val fk_col_by_name : t -> string -> int array

val get : t -> row:int -> attr:int -> int
val attr_card : t -> int -> int
val cards : t -> int array
(** Cardinalities of all value attributes, in schema order. *)

val project : t -> int array -> int array array
(** Columns of the given attribute indices. *)

