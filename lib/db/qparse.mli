(** Textual query syntax for the CLI and quick experimentation.

    {ul
    {- tuple variables: ["c=contact"] (or just ["contact"], binding the
       variable ["contact"]);}
    {- joins: ["c.patient=p"] — the foreign key [patient] of [c]'s table
       equals [p]'s primary key;}
    {- selects: ["p.USBorn=yes"] (label or integer code),
       ["p.Age=1..3"] (inclusive range), ["c.Contype={household,roommate}"]
       (set).}} *)

val parse :
  Database.t -> tvars:string list -> ?joins:string list -> ?selects:string list ->
  unit -> Query.t
(** Raises [Failure] with a descriptive message on syntax or schema
    errors. *)

