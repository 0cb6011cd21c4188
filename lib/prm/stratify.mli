(** Structural legality of PRM dependency structures (Def. 3.2, Sec. 4.3.2).

    A structure is legal when:
    {ul
    {- the dependency graph over value attributes {e and} join indicators
       is acyclic, where a join indicator [J_F] has an implicit gating edge
       to every attribute with a cross-table parent through [F] (its CPD is
       the [J = true] fork, per Sec. 3.2) and explicit edges from its own
       parents — this forbids an attribute from both feeding [J_F] and
       transitively depending on it;}
    {- the table-level graph, with an edge S → R whenever some attribute of
       R has a parent in S, admits a partial order (is acyclic) — the
       paper's table stratification (Def. 3.2).}} *)

type structure = {
  attr_parents : Model.parent array array array;
      (** [attr_parents.(table).(attr)] *)
  join_parents : Model.parent array array array;
      (** [join_parents.(table).(fk)] *)
}

val empty_structure : Selest_db.Schema.t -> structure
val of_model : Model.t -> structure

val is_legal : Selest_db.Schema.t -> structure -> bool
val check : Selest_db.Schema.t -> structure -> (unit, string) result
(** [Error reason] when illegal. *)

val table_order : Selest_db.Schema.t -> structure -> int array
(** A table ordering consistent with the stratification (raises
    [Invalid_argument] if the structure is not stratified). *)

