open Ast

let data_type = function
  | T_int -> "INT"
  | T_float -> "FLOAT"
  | T_text -> "TEXT"
  | T_bool -> "BOOL"
  | T_varchar n -> Printf.sprintf "VARCHAR(%d)" n
  | T_year -> "YEAR"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats must keep a '.' or exponent so that the lexer reads them back as
   floats, not integers. *)
let float_repr f =
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let literal = function
  | L_null -> "NULL"
  | L_int n -> string_of_int n
  | L_float f -> float_repr f
  | L_string s -> "'" ^ escape_string s ^ "'"
  | L_bool true -> "TRUE"
  | L_bool false -> "FALSE"

let unop_str = function Neg -> "-" | Not -> "NOT" | Bit_not -> "~"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "AND" | Or -> "OR" | Concat -> "||"

let agg_str = function
  | Count -> "COUNT" | Sum -> "SUM" | Avg -> "AVG" | Min -> "MIN"
  | Max -> "MAX" | Group_concat -> "GROUP_CONCAT"

let win_str = function
  | Row_number -> "ROW_NUMBER" | Rank -> "RANK" | Dense_rank -> "DENSE_RANK"
  | Lead -> "LEAD" | Lag -> "LAG" | Ntile -> "NTILE"

let dir_str = function Asc -> "ASC" | Desc -> "DESC"

let frame_bound_str = function
  | Unbounded_preceding -> "UNBOUNDED PRECEDING"
  | Preceding n -> Printf.sprintf "%d PRECEDING" n
  | Current_row -> "CURRENT ROW"
  | Following n -> Printf.sprintf "%d FOLLOWING" n
  | Unbounded_following -> "UNBOUNDED FOLLOWING"

let comma = String.concat ", "

let rec expr = function
  | Lit l -> literal l
  | Col (None, c) -> c
  | Col (Some t, c) -> t ^ "." ^ c
  | Unop (Neg, (Lit (L_int n) as e)) when n >= 0 ->
    (* keep "- <literal>" distinct from a negative literal so parsing is
       the inverse of printing *)
    Printf.sprintf "(- (%s))" (expr e)
  | Unop (Neg, (Lit (L_float f) as e)) when f >= 0.0 ->
    Printf.sprintf "(- (%s))" (expr e)
  | Unop (op, e) -> Printf.sprintf "(%s %s)" (unop_str op) (expr e)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr a) (binop_str op) (expr b)
  | Fn (name, args) ->
    Printf.sprintf "%s(%s)" name (comma (List.map expr args))
  | Agg (fn, _, None) -> Printf.sprintf "%s(*)" (agg_str fn)
  | Agg (fn, distinct, Some e) ->
    Printf.sprintf "%s(%s%s)" (agg_str fn)
      (if distinct then "DISTINCT " else "")
      (expr e)
  | Case (whens, else_) ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "CASE";
    List.iter
      (fun (c, v) ->
         Buffer.add_string buf
           (Printf.sprintf " WHEN %s THEN %s" (expr c) (expr v)))
      whens;
    (match else_ with
     | None -> ()
     | Some e -> Buffer.add_string buf (" ELSE " ^ expr e));
    Buffer.add_string buf " END";
    Buffer.contents buf
  | Cast (e, dt) -> Printf.sprintf "CAST(%s AS %s)" (expr e) (data_type dt)
  | In_list { e; items; negated } ->
    Printf.sprintf "(%s %sIN (%s))" (expr e)
      (if negated then "NOT " else "")
      (comma (List.map expr items))
  | Between { e; lo; hi; negated } ->
    Printf.sprintf "(%s %sBETWEEN %s AND %s)" (expr e)
      (if negated then "NOT " else "")
      (expr lo) (expr hi)
  | Is_null (e, negated) ->
    Printf.sprintf "(%s IS %sNULL)" (expr e) (if negated then "NOT " else "")
  | Like { e; pat; negated } ->
    Printf.sprintf "(%s %sLIKE %s)" (expr e)
      (if negated then "NOT " else "")
      (expr pat)
  | Exists (q, negated) ->
    Printf.sprintf "(%sEXISTS (%s))" (if negated then "NOT " else "") (query q)
  | Subquery q -> Printf.sprintf "(%s)" (query q)
  | Win { fn; args; over } ->
    Printf.sprintf "%s(%s) OVER (%s)" (win_str fn)
      (comma (List.map expr args))
      (over_clause over)

and over_clause { partition_by; w_order_by; frame } =
  let parts = ref [] in
  (match frame with
   | None -> ()
   | Some { f_kind; f_lo; f_hi } ->
     let kind = match f_kind with F_rows -> "ROWS" | F_range -> "RANGE" in
     parts :=
       [ Printf.sprintf "%s BETWEEN %s AND %s" kind (frame_bound_str f_lo)
           (frame_bound_str f_hi) ]);
  if w_order_by <> [] then
    parts := ("ORDER BY " ^ order_by_list w_order_by) :: !parts;
  if partition_by <> [] then
    parts :=
      ("PARTITION BY " ^ comma (List.map expr partition_by)) :: !parts;
  String.concat " " !parts

and order_by_list obs =
  comma (List.map (fun (e, d) -> expr e ^ " " ^ dir_str d) obs)

and proj = function
  | Star -> "*"
  | Star_of t -> t ^ ".*"
  | Proj (e, None) -> expr e
  | Proj (e, Some a) -> expr e ^ " AS " ^ a

and from_item = function
  | From_table { name; alias = None } -> name
  | From_table { name; alias = Some a } -> name ^ " AS " ^ a
  | From_join { left; kind; right; on } ->
    let kw = match kind with
      | Inner -> "JOIN"
      | Left -> "LEFT JOIN"
      | Right -> "RIGHT JOIN"
      | Cross -> "CROSS JOIN"
    in
    let rhs = match right with
      | From_join _ -> "(" ^ from_item right ^ ")"
      | From_table _ | From_subquery _ -> from_item right
    in
    let base = Printf.sprintf "%s %s %s" (from_item left) kw rhs in
    (match on with
     | None -> base
     | Some e -> base ^ " ON " ^ expr e)
  | From_subquery { q; alias } ->
    Printf.sprintf "(%s) AS %s" (query q) alias

and select s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if s.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (comma (List.map proj s.projs));
  (match s.from with
   | None -> ()
   | Some f -> Buffer.add_string buf (" FROM " ^ from_item f));
  (match s.where with
   | None -> ()
   | Some e -> Buffer.add_string buf (" WHERE " ^ expr e));
  if s.group_by <> [] then
    Buffer.add_string buf (" GROUP BY " ^ comma (List.map expr s.group_by));
  (match s.having with
   | None -> ()
   | Some e -> Buffer.add_string buf (" HAVING " ^ expr e));
  if s.order_by <> [] then
    Buffer.add_string buf (" ORDER BY " ^ order_by_list s.order_by);
  (match s.limit with
   | None -> ()
   | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n));
  (match s.offset with
   | None -> ()
   | Some n -> Buffer.add_string buf (Printf.sprintf " OFFSET %d" n));
  Buffer.contents buf

and query = function
  | Q_select s -> select s
  | Q_values rows ->
    "VALUES "
    ^ comma (List.map (fun row -> "(" ^ comma (List.map expr row) ^ ")") rows)
  | Q_compound (a, op, b) ->
    let ops = match op with
      | Union -> "UNION"
      | Union_all -> "UNION ALL"
      | Intersect -> "INTERSECT"
      | Except -> "EXCEPT"
    in
    Printf.sprintf "%s %s %s" (query a) ops (query b)

let col_def c =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (c.col_name ^ " " ^ data_type c.col_type);
  if c.zerofill then Buffer.add_string buf " ZEROFILL";
  if c.not_null then Buffer.add_string buf " NOT NULL";
  if c.primary_key then Buffer.add_string buf " PRIMARY KEY";
  if c.unique then Buffer.add_string buf " UNIQUE";
  (match c.default with
   | None -> ()
   | Some l -> Buffer.add_string buf (" DEFAULT " ^ literal l));
  Buffer.contents buf

let trig_event_str = function
  | Ev_insert -> "INSERT"
  | Ev_update -> "UPDATE"
  | Ev_delete -> "DELETE"

let priv_str = function
  | P_select -> "SELECT" | P_insert -> "INSERT" | P_update -> "UPDATE"
  | P_delete -> "DELETE" | P_all -> "ALL"

let literal_rows rows =
  comma
    (List.map (fun row -> "(" ^ comma (List.map literal row) ^ ")") rows)

let rec insert_body kw (i : insert) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf kw;
  if i.i_ignore then Buffer.add_string buf " IGNORE";
  Buffer.add_string buf (" INTO " ^ i.i_table);
  if i.i_cols <> [] then
    Buffer.add_string buf (" (" ^ comma i.i_cols ^ ")");
  (match i.i_source with
   | Src_values rows ->
     Buffer.add_string buf
       (" VALUES "
        ^ comma
            (List.map
               (fun row -> "(" ^ comma (List.map expr row) ^ ")")
               rows))
   | Src_query q -> Buffer.add_string buf (" " ^ query q));
  Buffer.contents buf

and update_body (u : update) =
  let sets = comma (List.map (fun (c, e) -> c ^ " = " ^ expr e) u.u_sets) in
  let buf = Buffer.create 64 in
  Buffer.add_string buf ("UPDATE " ^ u.u_table ^ " SET " ^ sets);
  (match u.u_where with
   | None -> ()
   | Some e -> Buffer.add_string buf (" WHERE " ^ expr e));
  (match u.u_limit with
   | None -> ()
   | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n));
  Buffer.contents buf

and delete_body (d : delete) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf ("DELETE FROM " ^ d.d_table);
  (match d.d_where with
   | None -> ()
   | Some e -> Buffer.add_string buf (" WHERE " ^ expr e));
  (match d.d_limit with
   | None -> ()
   | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n));
  Buffer.contents buf

and with_body = function
  | W_query q -> query q
  | W_insert i -> insert_body "INSERT" i
  | W_update u -> update_body u
  | W_delete d -> delete_body d

and stmt = function
  | S_create_table { temp; if_not_exists; name; cols } ->
    Printf.sprintf "CREATE %sTABLE %s%s (%s)"
      (if temp then "TEMPORARY " else "")
      (if if_not_exists then "IF NOT EXISTS " else "")
      name
      (comma (List.map col_def cols))
  | S_create_index { unique; name; table; cols } ->
    Printf.sprintf "CREATE %sINDEX %s ON %s (%s)"
      (if unique then "UNIQUE " else "")
      name table (comma cols)
  | S_create_view { materialized; name; query = q } ->
    Printf.sprintf "CREATE %sVIEW %s AS %s"
      (if materialized then "MATERIALIZED " else "")
      name (query q)
  | S_create_trigger { name; timing; event; table; body } ->
    let timing_s = match timing with Before -> "BEFORE" | After -> "AFTER" in
    let body_s = match body with
      | [ s ] -> stmt s
      | stmts ->
        "BEGIN " ^ String.concat "; " (List.map stmt stmts) ^ "; END"
    in
    Printf.sprintf "CREATE TRIGGER %s %s %s ON %s FOR EACH ROW %s" name
      timing_s (trig_event_str event) table body_s
  | S_create_rule { name; table; event; instead; action } ->
    let action_s = match action with
      | Ra_nothing -> "NOTHING"
      | Ra_notify chan -> "NOTIFY " ^ chan
      | Ra_stmt s -> stmt s
    in
    Printf.sprintf "CREATE RULE %s AS ON %s TO %s DO %s%s" name
      (trig_event_str event) table
      (if instead then "INSTEAD " else "")
      action_s
  | S_create_sequence { name; start; step } ->
    Printf.sprintf "CREATE SEQUENCE %s START WITH %d INCREMENT BY %d" name
      start step
  | S_create_schema n -> "CREATE SCHEMA " ^ n
  | S_create_database n -> "CREATE DATABASE " ^ n
  | S_create_user { user; password } ->
    Printf.sprintf "CREATE USER %s IDENTIFIED BY '%s'" user
      (escape_string password)
  | S_drop { target; if_exists } ->
    let ie = if if_exists then "IF EXISTS " else "" in
    (match target with
     | D_table n -> Printf.sprintf "DROP TABLE %s%s" ie n
     | D_index n -> Printf.sprintf "DROP INDEX %s%s" ie n
     | D_view n -> Printf.sprintf "DROP VIEW %s%s" ie n
     | D_trigger n -> Printf.sprintf "DROP TRIGGER %s%s" ie n
     | D_rule (n, t) -> Printf.sprintf "DROP RULE %s%s ON %s" ie n t
     | D_sequence n -> Printf.sprintf "DROP SEQUENCE %s%s" ie n
     | D_schema n -> Printf.sprintf "DROP SCHEMA %s%s" ie n
     | D_database n -> Printf.sprintf "DROP DATABASE %s%s" ie n
     | D_user n -> Printf.sprintf "DROP USER %s%s" ie n)
  | S_alter_table (t, action) ->
    let action_s = match action with
      | Add_column c -> "ADD COLUMN " ^ col_def c
      | Drop_column c -> "DROP COLUMN " ^ c
      | Rename_to n -> "RENAME TO " ^ n
      | Rename_column (a, b) -> Printf.sprintf "RENAME COLUMN %s TO %s" a b
      | Alter_column_type (c, dt) ->
        Printf.sprintf "ALTER COLUMN %s TYPE %s" c (data_type dt)
    in
    Printf.sprintf "ALTER TABLE %s %s" t action_s
  | S_alter_sequence { name; step } ->
    Printf.sprintf "ALTER SEQUENCE %s INCREMENT BY %d" name step
  | S_alter_user { user; password } ->
    Printf.sprintf "ALTER USER %s IDENTIFIED BY '%s'" user
      (escape_string password)
  | S_rename_table pairs ->
    "RENAME TABLE "
    ^ comma (List.map (fun (a, b) -> Printf.sprintf "%s TO %s" a b) pairs)
  | S_truncate t -> "TRUNCATE TABLE " ^ t
  | S_comment_on { table; comment } ->
    Printf.sprintf "COMMENT ON TABLE %s IS '%s'" table
      (escape_string comment)
  | S_insert i -> insert_body "INSERT" i
  | S_replace i -> insert_body "REPLACE" i
  | S_update u -> update_body u
  | S_delete d -> delete_body d
  | S_copy_to { src; header } ->
    let src_s = match src with
      | Cs_table t -> t
      | Cs_query q -> "(" ^ query q ^ ")"
    in
    Printf.sprintf "COPY %s TO STDOUT%s" src_s
      (if header then " CSV HEADER" else "")
  | S_copy_from { table; rows } ->
    if rows = [] then Printf.sprintf "COPY %s FROM STDIN" table
    else Printf.sprintf "COPY %s FROM STDIN %s" table (literal_rows rows)
  | S_load_data { table; rows } ->
    if rows = [] then Printf.sprintf "LOAD DATA INTO %s" table
    else Printf.sprintf "LOAD DATA INTO %s VALUES %s" table (literal_rows rows)
  | S_select q -> query q
  | S_with { ctes; body } ->
    let cte_s =
      comma
        (List.map
           (fun { cte_name; cte_body } ->
              Printf.sprintf "%s AS (%s)" cte_name (with_body cte_body))
           ctes)
    in
    Printf.sprintf "WITH %s %s" cte_s (with_body body)
  | S_table t -> "TABLE " ^ t
  | S_explain s -> "EXPLAIN " ^ stmt s
  | S_describe t -> "DESCRIBE " ^ t
  | S_show Sh_tables -> "SHOW TABLES"
  | S_show (Sh_columns t) -> "SHOW COLUMNS FROM " ^ t
  | S_show Sh_variables -> "SHOW VARIABLES"
  | S_show Sh_status -> "SHOW STATUS"
  | S_grant { privs; table; user } ->
    Printf.sprintf "GRANT %s ON %s TO %s"
      (comma (List.map priv_str privs))
      table user
  | S_revoke { privs; table; user } ->
    Printf.sprintf "REVOKE %s ON %s FROM %s"
      (comma (List.map priv_str privs))
      table user
  | S_set_role r -> "SET ROLE " ^ r
  | S_begin -> "BEGIN"
  | S_commit -> "COMMIT"
  | S_rollback -> "ROLLBACK"
  | S_savepoint s -> "SAVEPOINT " ^ s
  | S_release_savepoint s -> "RELEASE SAVEPOINT " ^ s
  | S_rollback_to s -> "ROLLBACK TO SAVEPOINT " ^ s
  | S_set_transaction iso ->
    let iso_s = match iso with
      | Read_committed -> "READ COMMITTED"
      | Repeatable_read -> "REPEATABLE READ"
      | Serializable -> "SERIALIZABLE"
    in
    "SET TRANSACTION ISOLATION LEVEL " ^ iso_s
  | S_lock_tables locks ->
    "LOCK TABLES "
    ^ comma
        (List.map
           (fun (t, m) ->
              t ^ (match m with Lk_read -> " READ" | Lk_write -> " WRITE"))
           locks)
  | S_unlock_tables -> "UNLOCK TABLES"
  | S_set_var { global; name; value } ->
    Printf.sprintf "SET %s%s = %s"
      (if global then "GLOBAL " else "")
      name (literal value)
  | S_reset_var n -> "RESET " ^ n
  | S_set_names n -> "SET NAMES " ^ n
  | S_pragma { name; value = None } -> "PRAGMA " ^ name
  | S_pragma { name; value = Some l } ->
    Printf.sprintf "PRAGMA %s = %s" name (literal l)
  | S_vacuum None -> "VACUUM"
  | S_vacuum (Some t) -> "VACUUM " ^ t
  | S_analyze None -> "ANALYZE"
  | S_analyze (Some t) -> "ANALYZE " ^ t
  | S_reindex None -> "REINDEX"
  | S_reindex (Some t) -> "REINDEX " ^ t
  | S_checkpoint -> "CHECKPOINT"
  | S_flush Fl_tables -> "FLUSH TABLES"
  | S_flush Fl_status -> "FLUSH STATUS"
  | S_flush Fl_privileges -> "FLUSH PRIVILEGES"
  | S_optimize t -> "OPTIMIZE TABLE " ^ t
  | S_check_table t -> "CHECK TABLE " ^ t
  | S_repair t -> "REPAIR TABLE " ^ t
  | S_notify { channel; payload = None } -> "NOTIFY " ^ channel
  | S_notify { channel; payload = Some p } ->
    Printf.sprintf "NOTIFY %s, '%s'" channel (escape_string p)
  | S_listen c -> "LISTEN " ^ c
  | S_unlisten c -> "UNLISTEN " ^ c
  | S_discard Disc_all -> "DISCARD ALL"
  | S_discard Disc_temp -> "DISCARD TEMP"
  | S_discard Disc_plans -> "DISCARD PLANS"
  | S_prepare { name; stmt = s } ->
    Printf.sprintf "PREPARE %s AS %s" name (stmt s)
  | S_execute n -> "EXECUTE " ^ n
  | S_deallocate n -> "DEALLOCATE " ^ n
  | S_use db -> "USE " ^ db
  | S_do e -> "DO " ^ expr e
  | S_handler_open t -> Printf.sprintf "HANDLER %s OPEN" t
  | S_handler_read { table; dir = H_first } ->
    Printf.sprintf "HANDLER %s READ FIRST" table
  | S_handler_read { table; dir = H_next } ->
    Printf.sprintf "HANDLER %s READ NEXT" table
  | S_handler_close t -> Printf.sprintf "HANDLER %s CLOSE" t
  | S_alter_system p -> "ALTER SYSTEM " ^ p
  | S_refresh_matview v -> "REFRESH MATERIALIZED VIEW " ^ v
  | S_kill n -> Printf.sprintf "KILL %d" n
  | S_cluster None -> "CLUSTER"
  | S_cluster (Some t) -> "CLUSTER " ^ t

let testcase tc =
  String.concat ";\n" (List.map stmt tc) ^ if tc = [] then "" else ";"
