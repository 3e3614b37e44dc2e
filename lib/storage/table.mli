(** In-memory heap table: schema plus rows with stable row ids.

    Constraint checking (NOT NULL, PRIMARY KEY, UNIQUE) is performed by the
    engine's executor so that it can fire coverage probes and honour
    [INSERT IGNORE]; this module is plain storage with schema-change
    primitives and the key lookups ({!find_key}) those checks use. *)

type col = {
  c_name : string;
  c_type : Sqlcore.Ast.data_type;
  c_not_null : bool;
  c_primary : bool;
  c_unique : bool;
  c_default : Value.t option;
  c_zerofill : bool;
}

type t

val create : name:string -> temp:bool -> col list -> t

val col_of_def : Sqlcore.Ast.col_def -> col

val name : t -> string

val set_name : t -> string -> unit

val is_temp : t -> bool

val cols : t -> col array

val col_index : t -> string -> int option
(** Position of a column by name. *)

val arity : t -> int

val row_count : t -> int

val insert : t -> Value.t array -> int
(** Append a row (already coerced); returns its fresh rowid. *)

val last_rowid : t -> int
(** Rowid handed out by the most recent {!insert}, [-1] before any.
    Monotonic — deletes never reuse ids — which is what the wire
    protocol's last-insert-id field reports. *)

val find_row : t -> int -> Value.t array option

val update_row : t -> int -> Value.t array -> unit

val delete_rows : t -> (int -> bool) -> int
(** Delete rows whose rowid satisfies the predicate; returns the count. *)

val delete_row : t -> int -> unit
(** Delete one row by rowid, if present. O(log n). *)

val truncate : t -> int
(** Remove all rows; returns how many were removed. *)

val ragged : t -> bool
(** Whether a row whose length differs from the arity was stored since
    the table was created or last truncated (a trigger altered the
    table mid-statement). Such rows can fail positional reads. *)

val find_key : t -> int list -> Value.t list -> int list option
(** [find_key t positions key]: rowids, ascending, of the rows whose
    values at [positions] equal [key] under {!Value.compare_total}.
    O(log n) after the first call for a position list, which builds the
    table's key map for it; every mutator keeps the built maps current
    and {!copy} shares them. [None] on a {!ragged} table: the caller
    must scan. *)

val iter : (int -> Value.t array -> unit) -> t -> unit
(** Iterate (rowid, row) in insertion order. *)

val to_rows : t -> (int * Value.t array) list

val rows : t -> Value.t array list
(** The rows of {!to_rows} without their rowids, in insertion order. *)

val add_column : t -> col -> unit
(** Existing rows get the column's default (or NULL). *)

val drop_column : t -> int -> unit
(** Drop by position, rewriting all rows. *)

val rename_column : t -> int -> string -> unit

val change_column_type : t -> int -> Sqlcore.Ast.data_type -> unit
(** Re-coerces the column in every row; values that fail coercion become
    NULL. *)

val copy : t -> t
(** Independent copy used for transaction and engine snapshots. O(1):
    rows and key maps live in persistent maps, so both sides share them
    and later mutations of either side only rebind their own roots. *)

val deep_copy : t -> t
(** Physical copy sharing no row array with the source — the
    pre-refactor [copy] semantics (the immutable key maps are shared).
    O(rows); only the --cow off ablation and the equivalence
    tests should need it. *)

val rows_root_eq : t -> t -> bool
(** Whether two tables share the same row-storage root (physical
    equality of the persistent map). [true] guarantees the row sets are
    identical. Only the copy-on-write tests use it. *)
