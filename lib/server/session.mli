(** One client connection of the multi-session server.

    The authoritative connection state (transaction status, session
    variables, prepared statements, ...) lives in the shared catalog
    while the session is attached, or in its parked
    {!Minidb.Catalog.session_view} while it is not. This record carries
    the session's identity, its sliding statement-type window (swapped
    into the engine on attach, so bug-registry windows track the
    session, never the shared store), and mirror flags for the fault
    hook's cross-session predicates — readable while a different
    session is attached. The pool updates the mirrors after each of the
    session's statements. *)

open Sqlcore

type t = {
  s_id : int;
  mutable s_window : Stmt_type.t list;
  mutable s_in_txn : bool;
  mutable s_txn_writes : int;
  mutable s_last_window : bool;
}

val create : int -> t

val note : t -> Ast.stmt -> in_txn:bool -> unit
(** Record that one of this session's statements completed. [in_txn] is
    the catalog's post-statement transaction flag; leaving a
    transaction resets the dirty-write count. *)

val dirty : t -> bool
(** In an open transaction that has written — the state the
    [other_txn_dirty] fault predicate asks about. *)
