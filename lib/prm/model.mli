(** Probabilistic relational models (Def. 3.1).

    A PRM specifies, for every value attribute [R.A] of every table and for
    every foreign key [F] of every table, a local probabilistic model:
    {ul
    {- the parents of [R.A] may be attributes of [R] itself ([Own]) or
       attributes of the table a foreign key of [R] points to ([Foreign]);}
    {- each foreign key has a binary {e join indicator} variable [J_F]
       modelling the event [t.F = s.key] for independently drawn tuples;
       its parents may come from either side of the join.}}

    Cross-table attribute CPDs are the [J = true] fork of the paper's gated
    CPDs: they are fitted from, and only ever evaluated on, joined pairs
    (selectivity estimation always conditions every closure join indicator
    on [true], so the [false] fork never contributes — see {!Estimate}).

    {2 Local variable ids}

    CPDs inside a table's scope use a flat id space so that the generic
    {!Selest_bn.Cpd} machinery applies unchanged:
    {ul
    {- own attribute [a] has id [a];}
    {- foreign attribute [b] reached through foreign key [f] has id
       [n_attrs + fk_offset f + b];}
    {- the join indicator of foreign key [f] has id [n_ext + f] (these are
       the largest ids, so a join indicator is never a parent).}} *)

type parent =
  | Own of int  (** attribute index within the same table *)
  | Foreign of int * int  (** (foreign-key index, attribute index in its target) *)

type family = {
  parents : parent array;  (** in local-id order *)
  cpd : Selest_bn.Cpd.t;  (** over local ids *)
}

type table_model = {
  attr_families : family array;  (** one per value attribute *)
  join_families : family array;  (** one per foreign key; child card 2 *)
}

type derived
(** What a model derives once from its families — each table's {!Scope},
    the {!fingerprint} and the tabulated CPDs ({!attr_table},
    {!join_table}) — so that compiling a query plan does only the work
    that depends on the query's skeleton. *)

type t = private {
  schema : Selest_db.Schema.t;
  tables : table_model array;  (** in schema order *)
  derived : derived;
}
(** Build one with {!create}. *)

(** Local-id arithmetic for one table's scope. *)
module Scope : sig
  type s

  val of_table : Selest_db.Schema.t -> int -> s
  val n_attrs : s -> int
  val n_ext : s -> int
  (** Own attributes plus all foreign attributes. *)

  val n_all : s -> int
  (** [n_ext] plus one join-indicator id per foreign key. *)

  val local_id : s -> parent -> int
  val join_id : s -> int -> int
  (** Local id of foreign key [f]'s join indicator. *)

  val parent_of_local : s -> int -> parent
  (** Inverse of [local_id]; raises on a join-indicator id. *)

  val card : s -> int -> int
  (** Cardinality of any local id (2 for join indicators). *)

  val name : s -> int -> string
  (** Human-readable name, e.g. "Age", "district.Region", "J_account". *)
end

val create : Selest_db.Schema.t -> table_model array -> t
(** Validates family shapes against the schema (arity, parent ranges)
    and computes the {!fingerprint}. *)

val scope : t -> int -> Scope.s
(** Table [ti]'s scope, built once by {!create}. *)

val fingerprint : t -> string
(** Hex digest of the model's {e dependency structure}: the schema plus
    every family's parents and arities (CPD parameters excluded),
    computed once by {!create}.  Two models with equal fingerprints
    build identically-shaped query-evaluation networks for any query.
    Compiled plans carry it ([Plan.fingerprint]) and the plan explain
    output ([Plan.pp], [selest estimate --explain]) prints it as
    ["model fingerprint"].  It is not the schema fingerprint
    ([Serialize.schema_fingerprint]) a registry entry records and checks
    on [LOAD]. *)

val attr_table : t -> int -> int -> Selest_prob.Factor.t
(** [attr_table t ti a]: the CPD of table [ti]'s attribute family [a]
    tabulated over the table's local ids — [Cpd.to_factor ~var_of:Fun.id
    ~child:a].  Built on first use and kept for the model's lifetime (no
    process-wide memo: a replaced model's tables go with it).  Safe to
    call from several domains at once; a race builds two identical
    tables.  The result is shared: never write to it. *)

val join_table : t -> int -> int -> Selest_prob.Factor.t
(** [join_table t ti f]: {!attr_table} for the join family of table
    [ti]'s foreign key [f] (child id [Scope.join_id]). *)

val size_bytes : t -> int
(** Total model storage under the library-wide accounting. *)

val n_cross_edges : t -> int
(** Cross-table attribute dependencies (diagnostic). *)

val n_join_parents : t -> int
(** Total parents over all join indicators (0 = uniform-join model). *)

val pp : Format.formatter -> t -> unit
