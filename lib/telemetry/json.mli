(** A minimal JSON value type with a printer and a parser.

    The repository deliberately avoids external JSON dependencies; this
    module is the single implementation shared by the trace writer, the
    machine-readable report emitters and the test-suite readers that
    validate their output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact, valid JSON.  Non-finite floats render as [null]. *)
val to_string : t -> string

(** Parse a complete JSON document (trailing whitespace allowed,
    trailing garbage rejected). *)
val of_string : string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_number : t -> float option
val to_string_opt : t -> string option
