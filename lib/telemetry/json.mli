(** A minimal JSON value, printer and parser.

    The container ships no JSON library, and the telemetry subsystem only
    needs the subset its own sinks emit: objects, arrays, strings with
    escapes, integers, floats, booleans and null. Printing is canonical
    (no whitespace, object keys in caller order) so that equal values
    print equally and the JSONL round-trip used by [legofuzz report] is
    exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical single-line rendering. Floats that carry no fractional part
    print with a trailing [.0] so they parse back as floats. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] elsewhere. *)

val to_int : t -> int option
(** [Int] directly, or a [Float] with an integral value. *)

val to_float : t -> float option

val to_str : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option

val to_str_list : t -> string list option
(** An [Arr] of [Str]s; [None] if any element is not a string. *)

val field :
  ?default:'a -> string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv obj] decodes member [name] with [conv]. A missing
    member is [default] when given, else [Error "missing field \"name\""];
    a member [conv] rejects is [Error "bad field \"name\""]. *)
