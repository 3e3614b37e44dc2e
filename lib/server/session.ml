open Sqlcore

(* One client connection's identity plus the mirror flags the fault
   hook's cross-session predicates read. The authoritative connection
   state lives in the catalog (attached) or its parked session_view;
   the mirrors exist because predicates about session S are evaluated
   while a DIFFERENT session is attached — the pool updates them after
   each of S's statements completes. *)
type t = {
  s_id : int;
  mutable s_window : Stmt_type.t list;
      (* sliding type window, swapped into the engine on attach *)
  mutable s_in_txn : bool;
  mutable s_txn_writes : int;   (* write statements since BEGIN *)
  mutable s_last_window : bool; (* last stmt contained a window fn *)
}

let create id =
  { s_id = id; s_window = []; s_in_txn = false; s_txn_writes = 0;
    s_last_window = false }

(* Mirror update after one of this session's statements ran. [in_txn]
   is the catalog's post-statement transaction flag. *)
let note t stmt ~in_txn =
  t.s_last_window <- Ast_util.has_window_fn stmt;
  if in_txn then begin
    if Ast_util.tables_written stmt <> [] then
      t.s_txn_writes <- t.s_txn_writes + 1
  end
  else t.s_txn_writes <- 0;
  t.s_in_txn <- in_txn

let dirty t = t.s_in_txn && t.s_txn_writes > 0
