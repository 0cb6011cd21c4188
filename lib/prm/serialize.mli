(** Saving and loading learned PRMs.

    The offline/online split of Sec. 1 implies models outlive the process
    that fitted them: a DBMS learns the PRM during maintenance windows and
    the optimizer loads it at query time.  Models are stored as
    S-expressions ({!Selest_util.Sexp}) together with a schema fingerprint;
    loading validates the fingerprint against the caller's schema so a
    model is never silently applied to a different database layout.

    Bayesian networks over a single table are PRMs over a one-table schema,
    so this covers them too. *)

exception Error of string
(** Raised on any failure to decode a saved model: unreadable file,
    malformed S-expression, wrong file type, unsupported version, or a
    schema-fingerprint mismatch.  A long-lived process (the estimation
    service's [LOAD] command in particular) can catch this one exception
    and turn a bad model file into a protocol error instead of dying. *)

val schema_fingerprint : Selest_db.Schema.t -> string
(** Hex digest of the schema's canonical serialization: table names,
    attribute names/cardinalities/ordinality and foreign keys.  Two schemas
    get the same fingerprint iff a model learned on one is applicable to
    the other.  Exposed so the serving layer can tag loaded models. *)

val to_sexp : Model.t -> Selest_util.Sexp.t

val of_sexp : schema:Selest_db.Schema.t -> Selest_util.Sexp.t -> Model.t
(** Raises {!Error} on malformed input or a schema mismatch. *)

val save : string -> Model.t -> unit

val load : string -> schema:Selest_db.Schema.t -> Model.t
(** Raises {!Error} on an unreadable or malformed file, and on a path
    that is not a regular file of at most 64 MiB, far above any learned
    model (checked before the file is opened, so a FIFO never blocks).
    No error message quotes the file's contents. *)
