(** The universe of SQL statement types.

    A {e statement type} is the category of a SQL statement divided by
    functionality (paper §II): [CREATE TABLE] and [CREATE VIEW] are two
    distinct types. The {e SQL Type Sequence} of a test case is the sequence
    of types of its statements; type-affinities (ordered pairs of adjacent
    types) are the paper's core abstraction.

    Dialects (PostgreSQL-sim, MySQL-sim, ...) expose subsets of this
    universe; see {!Dialects.Dialect}. *)

type t =
  (* Data definition *)
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
  (* Data manipulation *)
  | Insert
  | Insert_select
  | Replace_into
  | Update
  | Delete
  | Copy_to
  | Copy_from
  | Load_data
  (* Data query *)
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
  (* Data control *)
  | Grant
  | Revoke
  | Set_role
  (* Transaction control *)
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Savepoint
  | Release_savepoint
  | Rollback_to_savepoint
  | Set_transaction
  | Lock_tables
  | Unlock_tables
  (* Session / utility *)
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

val all : t list
(** Every statement type, in declaration order. *)

val count : int
(** [List.length all]. *)

val category : t -> category

val name : t -> string
(** Canonical upper-case display name, e.g. ["CREATE TABLE"]. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val to_index : t -> int
(** Dense index in [\[0, count)], stable across runs: the declaration
    rank, read in O(1) from the constructor itself. The module checks
    when it loads that {!all} lists the types in that order. *)

val of_index : int -> t
(** Inverse of {!to_index}. Raises [Invalid_argument] when out of range. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val category_name : category -> string
