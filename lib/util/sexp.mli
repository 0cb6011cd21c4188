(** Minimal S-expressions: the on-disk syntax for saved models.

    Atoms are bare tokens or double-quoted strings (with ["\\"] escapes for
    quote and backslash); lists are parenthesized.  The printer and parser
    round-trip exactly. *)

type t = Atom of string | List of t list

val to_string : t -> string
(** Compact one-line rendering. *)

val to_string_hum : t -> string
(** Indented rendering for readability of saved files. *)

val of_string : string -> t
(** Parse one expression (surrounding whitespace allowed).  Raises
    [Failure] with a position message on malformed input, including
    trailing garbage. *)

val save : string -> t -> unit
val load : string -> t

(** Construction and destruction helpers used by serializers. *)

val atom : string -> t
val int : int -> t
val float : float -> t
val list : t list -> t

val as_atom : t -> string
(** Raises [Failure] on a list. *)

val as_int : t -> int
val as_float : t -> float
val as_list : t -> t list
(** Raise [Failure] on the wrong shape.  Their messages name the rule
    broken and never quote the atom, so decoding an untrusted file
    echoes none of its text. *)

val field : t -> string -> t
(** [field (List [...; List [Atom name; v; ...]; ...]) name]: the tagged
    sub-list whose head atom is [name] (the whole sub-list, so multi-value
    fields work).  Raises [Failure] when absent. *)

val field_values : t -> string -> t list
(** The tagged sub-list's values (everything after the tag). *)
