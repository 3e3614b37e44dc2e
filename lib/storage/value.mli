(** Runtime SQL values and their coercion / comparison semantics. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

val equal : t -> t -> bool
(** Structural equality (NULL = NULL holds here; SQL three-valued equality
    is {!compare_sql}). *)

val compare_sql : t -> t -> int option
(** SQL comparison: [None] when either side is NULL (unknown), otherwise
    [Some c] with numeric cross-type comparison (INT vs FLOAT compares
    numerically, BOOL compares as 0/1, TEXT compares lexicographically;
    comparing TEXT with a number compares the number's text form). *)

val compare_total : t -> t -> int
(** Total order used by ORDER BY, DISTINCT, GROUP BY and indexes:
    NULL < BOOL < numbers < TEXT. Numbers compare by their float
    value. *)

val compare_rows : t array -> t array -> int
(** Rows by length, then cell by cell under {!compare_total}. *)

val is_truthy : t -> bool
(** WHERE-clause truth: NULL and FALSE and 0 and "" are false. *)

val type_name : t -> string

val coerce : t -> Sqlcore.Ast.data_type -> (t, string) result
(** Column-type coercion applied on insert/update. VARCHAR truncates to
    its declared width; YEAR accepts 1901..2155 (or 0), like MySQL. *)

val of_literal : Sqlcore.Ast.literal -> t

val to_display : t -> string
(** Rendering used by COPY TO STDOUT and result dumps. *)

val hash_value : t -> int
(** Consistent with {!compare_total}: values it ties hash equally
    ([Int 1] and [Float 1.0], [0.0] and [-0.0], any two NaNs). *)
