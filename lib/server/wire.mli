(** Typed wire protocol between clients and the MiniDB server layer, in
    the spirit of the [Sql.roc] interface in SNIPPETS.md: queries answer
    with {!Data}, DML/DDL with {!Execute_result} (rows affected and
    last-insert rowid), rejected statements with {!Error}, and a fired
    fault-registry bug with {!Crashed} — the connection-fatal case.

    {!render} is the protocol's canonical text form and also the
    equality in which the schedule-replay determinism contract is
    stated (text form is total on floats, unlike structural [=]). *)

type data =
  | Null
  | Boolean of bool
  | Int of int
  | Real of float
  | Text of string

type execute_result = {
  rows_affected : int;
  last_insert_rowid : int;
      (** of the table the statement wrote; [-1] when no row was ever
          inserted there (rowids are monotonic, never reused) *)
}

type response =
  | Data of { columns : string list; rows : data array list }
  | Execute_result of execute_result
  | Error of { code : string; msg : string }
  | Crashed of { bug_id : string; kind : string }

val of_value : Storage.Value.t -> data

val render_data : data -> string
(** One value in the text form. A [Real] prints as the shortest decimal
    that reads back to the same float, always with a '.' or an exponent
    so it never reads as an [Int] (["1.5"], ["1.0"], ["-0.0"],
    ["1e+300"]), or as ["nan"], ["inf"] or ["-inf"]: exact, injective
    on non-NaN floats, and NaN-safe. *)

val of_error : Minidb.Errors.t -> response

val of_crash : Minidb.Fault.crash -> response

val render : response -> string
(** Stable single-line rendering. *)
