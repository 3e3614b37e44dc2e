(* Typed wire protocol in the spirit of the Sql.roc interface from
   SNIPPETS.md: a client sends SQL, the server answers with one of a
   small closed set of typed values. Responses render to a stable text
   form — the rendering doubles as the equality the schedule-replay
   determinism contract is stated in, so it must stay float-careful
   (NaN prints as "nan" and compares equal to itself as text, where
   structural [=] on the tree would diverge) and exact: a real prints as
   the shortest decimal that reads back to the same float. *)

type data =
  | Null
  | Boolean of bool
  | Int of int
  | Real of float
  | Text of string

type execute_result = {
  rows_affected : int;
  last_insert_rowid : int;  (* -1 when nothing was ever inserted *)
}

type response =
  | Data of { columns : string list; rows : data array list }
  | Execute_result of execute_result
  | Error of { code : string; msg : string }
  | Crashed of { bug_id : string; kind : string }

let of_value = function
  | Storage.Value.Null -> Null
  | Storage.Value.Bool b -> Boolean b
  | Storage.Value.Int i -> Int i
  | Storage.Value.Float f -> Real f
  | Storage.Value.Text s -> Text s

let error_code = function
  | Minidb.Errors.No_such_table _ -> "NO_SUCH_TABLE"
  | Minidb.Errors.No_such_column _ -> "NO_SUCH_COLUMN"
  | Minidb.Errors.No_such_object _ -> "NO_SUCH_OBJECT"
  | Minidb.Errors.Duplicate_object _ -> "DUPLICATE_OBJECT"
  | Minidb.Errors.Constraint_violation _ -> "CONSTRAINT"
  | Minidb.Errors.Type_error _ -> "TYPE"
  | Minidb.Errors.Not_supported _ -> "NOT_SUPPORTED"
  | Minidb.Errors.Permission_denied _ -> "PERMISSION"
  | Minidb.Errors.Semantic _ -> "SEMANTIC"
  | Minidb.Errors.Limit_exceeded _ -> "LIMIT"

let of_error e =
  Error { code = error_code e; msg = Minidb.Errors.message e }

let of_crash (c : Minidb.Fault.crash) =
  Crashed
    { bug_id = c.c_bug.bug_id;
      kind = Minidb.Fault.kind_name c.c_bug.kind }

(* The shortest [%g] form that reads back to [f] bit for bit, kept
   apart from an integer by a '.' or an exponent ("1.0", "-0.0");
   "nan", "inf" and "-inf" spelled out. *)
let render_real f =
  match Float.classify_float f with
  | FP_nan -> "nan"
  | FP_infinite -> if f > 0.0 then "inf" else "-inf"
  | FP_normal | FP_subnormal | FP_zero ->
    let bits = Int64.bits_of_float f in
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Int64.equal (Int64.bits_of_float (float_of_string s)) bits
      then s
      else shortest (p + 1)
    in
    let s = shortest 1 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let render_data = function
  | Null -> "NULL"
  | Boolean true -> "TRUE"
  | Boolean false -> "FALSE"
  | Int i -> string_of_int i
  | Real f -> render_real f
  | Text s -> "'" ^ s ^ "'"

let render = function
  | Data { columns; rows } ->
    let header = String.concat "," columns in
    let body =
      List.map
        (fun row ->
           String.concat "|" (List.map render_data (Array.to_list row)))
        rows
    in
    Printf.sprintf "data %d [%s] %s" (List.length rows) header
      (String.concat " ; " body)
  | Execute_result { rows_affected; last_insert_rowid } ->
    Printf.sprintf "ok affected=%d last_rowid=%d" rows_affected
      last_insert_rowid
  | Error { code; msg } -> Printf.sprintf "error %s: %s" code msg
  | Crashed { bug_id; kind } -> Printf.sprintf "crash %s (%s)" bug_id kind
