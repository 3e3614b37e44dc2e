type t =
  | Create_table
  | Create_temp_table
  | Create_index
  | Create_unique_index
  | Create_view
  | Create_materialized_view
  | Create_trigger
  | Create_rule
  | Create_sequence
  | Create_schema
  | Create_database
  | Create_user
  | Drop_table
  | Drop_index
  | Drop_view
  | Drop_trigger
  | Drop_rule
  | Drop_sequence
  | Drop_schema
  | Drop_database
  | Drop_user
  | Alter_table_add_column
  | Alter_table_drop_column
  | Alter_table_rename
  | Alter_table_rename_column
  | Alter_table_alter_type
  | Alter_sequence
  | Alter_user
  | Rename_table
  | Truncate
  | Comment_on
  | Insert
  | Insert_select
  | Replace_into
  | Update
  | Delete
  | Copy_to
  | Copy_from
  | Load_data
  | Select
  | Select_union
  | Select_intersect
  | Select_except
  | With_select
  | With_dml
  | Values_stmt
  | Table_stmt
  | Explain
  | Describe
  | Show_tables
  | Show_columns
  | Show_variables
  | Show_status
  | Grant
  | Revoke
  | Set_role
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Savepoint
  | Release_savepoint
  | Rollback_to_savepoint
  | Set_transaction
  | Lock_tables
  | Unlock_tables
  | Set_var
  | Set_global_var
  | Reset_var
  | Set_names
  | Pragma
  | Vacuum
  | Analyze
  | Reindex
  | Checkpoint
  | Flush
  | Optimize_table
  | Check_table
  | Repair_table
  | Notify
  | Listen
  | Unlisten
  | Discard
  | Prepare_stmt
  | Execute_stmt
  | Deallocate
  | Use_db
  | Do_expr
  | Handler_open
  | Handler_read
  | Handler_close
  | Alter_system
  | Refresh_matview
  | Kill_query
  | Cluster

type category = Ddl | Dml | Dql | Dcl | Tcl | Util

let all =
  [ Create_table; Create_temp_table; Create_index; Create_unique_index;
    Create_view; Create_materialized_view; Create_trigger; Create_rule;
    Create_sequence; Create_schema; Create_database; Create_user;
    Drop_table; Drop_index; Drop_view; Drop_trigger; Drop_rule;
    Drop_sequence; Drop_schema; Drop_database; Drop_user;
    Alter_table_add_column; Alter_table_drop_column; Alter_table_rename;
    Alter_table_rename_column; Alter_table_alter_type; Alter_sequence;
    Alter_user; Rename_table; Truncate; Comment_on;
    Insert; Insert_select; Replace_into; Update; Delete; Copy_to; Copy_from;
    Load_data;
    Select; Select_union; Select_intersect; Select_except; With_select;
    With_dml; Values_stmt; Table_stmt; Explain; Describe; Show_tables;
    Show_columns; Show_variables; Show_status;
    Grant; Revoke; Set_role;
    Begin_txn; Commit_txn; Rollback_txn; Savepoint; Release_savepoint;
    Rollback_to_savepoint; Set_transaction; Lock_tables; Unlock_tables;
    Set_var; Set_global_var; Reset_var; Set_names; Pragma; Vacuum; Analyze;
    Reindex; Checkpoint; Flush; Optimize_table; Check_table; Repair_table;
    Notify; Listen; Unlisten; Discard; Prepare_stmt; Execute_stmt;
    Deallocate; Use_db; Do_expr; Handler_open; Handler_read; Handler_close;
    Alter_system; Refresh_matview; Kill_query; Cluster ]

let count = List.length all

let category = function
  | Create_table | Create_temp_table | Create_index | Create_unique_index
  | Create_view | Create_materialized_view | Create_trigger | Create_rule
  | Create_sequence | Create_schema | Create_database | Create_user
  | Drop_table | Drop_index | Drop_view | Drop_trigger | Drop_rule
  | Drop_sequence | Drop_schema | Drop_database | Drop_user
  | Alter_table_add_column | Alter_table_drop_column | Alter_table_rename
  | Alter_table_rename_column | Alter_table_alter_type | Alter_sequence
  | Alter_user | Rename_table | Truncate | Comment_on -> Ddl
  | Insert | Insert_select | Replace_into | Update | Delete | Copy_to
  | Copy_from | Load_data -> Dml
  | Select | Select_union | Select_intersect | Select_except | With_select
  | With_dml | Values_stmt | Table_stmt | Explain | Describe | Show_tables
  | Show_columns | Show_variables | Show_status -> Dql
  | Grant | Revoke | Set_role -> Dcl
  | Begin_txn | Commit_txn | Rollback_txn | Savepoint | Release_savepoint
  | Rollback_to_savepoint | Set_transaction | Lock_tables | Unlock_tables ->
    Tcl
  | Set_var | Set_global_var | Reset_var | Set_names | Pragma | Vacuum
  | Analyze | Reindex | Checkpoint | Flush | Optimize_table | Check_table
  | Repair_table | Notify | Listen | Unlisten | Discard | Prepare_stmt
  | Execute_stmt | Deallocate | Use_db | Do_expr | Handler_open
  | Handler_read | Handler_close | Alter_system | Refresh_matview
  | Kill_query | Cluster -> Util

let name = function
  | Create_table -> "CREATE TABLE"
  | Create_temp_table -> "CREATE TEMPORARY TABLE"
  | Create_index -> "CREATE INDEX"
  | Create_unique_index -> "CREATE UNIQUE INDEX"
  | Create_view -> "CREATE VIEW"
  | Create_materialized_view -> "CREATE MATERIALIZED VIEW"
  | Create_trigger -> "CREATE TRIGGER"
  | Create_rule -> "CREATE RULE"
  | Create_sequence -> "CREATE SEQUENCE"
  | Create_schema -> "CREATE SCHEMA"
  | Create_database -> "CREATE DATABASE"
  | Create_user -> "CREATE USER"
  | Drop_table -> "DROP TABLE"
  | Drop_index -> "DROP INDEX"
  | Drop_view -> "DROP VIEW"
  | Drop_trigger -> "DROP TRIGGER"
  | Drop_rule -> "DROP RULE"
  | Drop_sequence -> "DROP SEQUENCE"
  | Drop_schema -> "DROP SCHEMA"
  | Drop_database -> "DROP DATABASE"
  | Drop_user -> "DROP USER"
  | Alter_table_add_column -> "ALTER TABLE ADD COLUMN"
  | Alter_table_drop_column -> "ALTER TABLE DROP COLUMN"
  | Alter_table_rename -> "ALTER TABLE RENAME"
  | Alter_table_rename_column -> "ALTER TABLE RENAME COLUMN"
  | Alter_table_alter_type -> "ALTER TABLE ALTER TYPE"
  | Alter_sequence -> "ALTER SEQUENCE"
  | Alter_user -> "ALTER USER"
  | Rename_table -> "RENAME TABLE"
  | Truncate -> "TRUNCATE"
  | Comment_on -> "COMMENT ON"
  | Insert -> "INSERT"
  | Insert_select -> "INSERT SELECT"
  | Replace_into -> "REPLACE"
  | Update -> "UPDATE"
  | Delete -> "DELETE"
  | Copy_to -> "COPY TO"
  | Copy_from -> "COPY FROM"
  | Load_data -> "LOAD DATA"
  | Select -> "SELECT"
  | Select_union -> "SELECT UNION"
  | Select_intersect -> "SELECT INTERSECT"
  | Select_except -> "SELECT EXCEPT"
  | With_select -> "WITH SELECT"
  | With_dml -> "WITH DML"
  | Values_stmt -> "VALUES"
  | Table_stmt -> "TABLE"
  | Explain -> "EXPLAIN"
  | Describe -> "DESCRIBE"
  | Show_tables -> "SHOW TABLES"
  | Show_columns -> "SHOW COLUMNS"
  | Show_variables -> "SHOW VARIABLES"
  | Show_status -> "SHOW STATUS"
  | Grant -> "GRANT"
  | Revoke -> "REVOKE"
  | Set_role -> "SET ROLE"
  | Begin_txn -> "BEGIN"
  | Commit_txn -> "COMMIT"
  | Rollback_txn -> "ROLLBACK"
  | Savepoint -> "SAVEPOINT"
  | Release_savepoint -> "RELEASE SAVEPOINT"
  | Rollback_to_savepoint -> "ROLLBACK TO SAVEPOINT"
  | Set_transaction -> "SET TRANSACTION"
  | Lock_tables -> "LOCK TABLES"
  | Unlock_tables -> "UNLOCK TABLES"
  | Set_var -> "SET"
  | Set_global_var -> "SET GLOBAL"
  | Reset_var -> "RESET"
  | Set_names -> "SET NAMES"
  | Pragma -> "PRAGMA"
  | Vacuum -> "VACUUM"
  | Analyze -> "ANALYZE"
  | Reindex -> "REINDEX"
  | Checkpoint -> "CHECKPOINT"
  | Flush -> "FLUSH"
  | Optimize_table -> "OPTIMIZE TABLE"
  | Check_table -> "CHECK TABLE"
  | Repair_table -> "REPAIR TABLE"
  | Notify -> "NOTIFY"
  | Listen -> "LISTEN"
  | Unlisten -> "UNLISTEN"
  | Discard -> "DISCARD"
  | Prepare_stmt -> "PREPARE"
  | Execute_stmt -> "EXECUTE"
  | Deallocate -> "DEALLOCATE"
  | Use_db -> "USE"
  | Do_expr -> "DO"
  | Handler_open -> "HANDLER OPEN"
  | Handler_read -> "HANDLER READ"
  | Handler_close -> "HANDLER CLOSE"
  | Alter_system -> "ALTER SYSTEM"
  | Refresh_matview -> "REFRESH MATERIALIZED VIEW"
  | Kill_query -> "KILL"
  | Cluster -> "CLUSTER"

(* A constant constructor is represented by its rank in the declaration,
   so the dense index is the value itself. [of_index] reads [all] by that
   index, so the check below pins [all] to declaration order when the
   module loads. *)
let to_index (ty : t) : int = Obj.magic ty

let arr = Array.of_list all

let () =
  Array.iteri
    (fun i ty ->
       if to_index ty <> i then
         failwith "Stmt_type.all is not in declaration order")
    arr

let of_index i =
  if i < 0 || i >= Array.length arr then invalid_arg "Stmt_type.of_index";
  arr.(i)

let name_tbl : (string, t) Hashtbl.t = Hashtbl.create 128
let () = List.iter (fun ty -> Hashtbl.replace name_tbl (name ty) ty) all

let of_name s = Hashtbl.find_opt name_tbl s

let equal (a : t) (b : t) = a = b
let compare a b = Int.compare (to_index a) (to_index b)
let hash = to_index

let category_name = function
  | Ddl -> "DDL"
  | Dml -> "DML"
  | Dql -> "DQL"
  | Dcl -> "DCL"
  | Tcl -> "TCL"
  | Util -> "UTIL"
