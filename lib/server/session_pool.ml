open Sqlcore

(* N sessions multiplexed over ONE engine. Exactly one session is
   attached to the shared catalog at a time; a context switch parks the
   attached session's connection state (Catalog.park_session) and
   swaps statement-type windows, so bug-registry windows and
   transaction state always track the session, never the store.

   One executor: [step] runs one statement as one session. The serve
   REPL calls it per line ([exec]) and a schedule calls it per step in
   the schedule's total order ([run_serial]), on the calling domain. A
   schedule is a pure function of its steps, so replaying it on a
   fresh pool reproduces its outcome (the determinism contract the
   schedule-replay tests pin). *)

type t = {
  p_engine : Minidb.Engine.t;
  p_sessions : Session.t array;
  mutable p_current : int;
  p_metrics : Telemetry.Registry.t option;
}

let count t name by =
  match t.p_metrics with
  | None -> ()
  | Some m ->
    if by > 0 then
      Telemetry.Registry.incr ~by (Telemetry.Registry.counter m name)

(* Cross-session fault predicates, answered from the other sessions'
   mirror flags. Unknown names fall through (None) to the executor's
   own state predicates, so the single-session vocabulary is
   untouched. *)
let fault_hook t name =
  let others f =
    Array.exists
      (fun s -> s.Session.s_id <> t.p_current && f s)
      t.p_sessions
  in
  match name with
  | "other_txn_dirty" -> Some (others Session.dirty)
  | "other_session_in_txn" ->
    Some (others (fun s -> s.Session.s_in_txn))
  | "other_session_window" ->
    Some (others (fun s -> s.Session.s_last_window))
  | _ -> None

let create ?limits ?metrics ~sessions ~profile () =
  if sessions < 1 then invalid_arg "Session_pool.create: sessions < 1";
  let engine = Minidb.Engine.create ?limits ~profile () in
  let t =
    { p_engine = engine;
      p_sessions = Array.init sessions Session.create;
      p_current = 0;
      p_metrics = metrics }
  in
  Minidb.Engine.set_fault_ext engine (Some (fault_hook t));
  t

let engine t = t.p_engine

let switch t sid =
  if sid <> t.p_current then begin
    let cur = t.p_sessions.(t.p_current) in
    cur.Session.s_window <- Minidb.Engine.window t.p_engine;
    let cat = Minidb.Engine.catalog t.p_engine in
    Minidb.Catalog.park_session cat t.p_current;
    Minidb.Catalog.unpark_session cat sid;
    Minidb.Engine.set_window t.p_engine t.p_sessions.(sid).Session.s_window;
    t.p_current <- sid;
    count t "session.switches" 1
  end

let last_insert_rowid t stmt =
  let cat = Minidb.Engine.catalog t.p_engine in
  match Ast_util.tables_written stmt with
  | tbl :: _ ->
    (match Hashtbl.find_opt cat.Minidb.Catalog.tables tbl with
     | Some table -> Storage.Table.last_rowid table
     | None -> -1)
  | [] -> -1

let response_of_result t stmt = function
  | Minidb.Executor.Rows (cols, rows) ->
    Wire.Data
      { columns = cols;
        rows = List.map (Array.map Wire.of_value) rows }
  | Minidb.Executor.Affected n ->
    Wire.Execute_result
      { rows_affected = n; last_insert_rowid = last_insert_rowid t stmt }
  | Minidb.Executor.Done _ ->
    Wire.Execute_result
      { rows_affected = 0; last_insert_rowid = last_insert_rowid t stmt }

(* Execute one statement as [sid]. Returns the response and, when a
   fault-registry bug fired, the crash. *)
let step t sid stmt =
  if sid < 0 || sid >= Array.length t.p_sessions then
    invalid_arg "Session_pool.exec: no such session";
  switch t sid;
  let cat = Minidb.Engine.catalog t.p_engine in
  let resp, crash =
    match Minidb.Engine.exec_stmt t.p_engine stmt with
    | Minidb.Engine.Ok_result r -> (response_of_result t stmt r, None)
    | Minidb.Engine.Sql_failed e -> (Wire.of_error e, None)
    | exception Minidb.Fault.Crashed c ->
      count t "session.crashes" 1;
      (Wire.of_crash c, Some c)
  in
  Session.note t.p_sessions.(sid) stmt ~in_txn:cat.Minidb.Catalog.in_txn;
  count t "session.statements" 1;
  (resp, crash)

let exec t ~session stmt = fst (step t session stmt)

(* --- schedule execution --------------------------------------------- *)

type outcome = {
  o_replies : string array;  (* rendered responses, schedule order *)
  o_crash : (int * Minidb.Fault.crash) option;
  o_executed : int;
  o_fingerprint : string;
}

let run_serial t steps =
  let n = Array.length steps in
  let replies = Array.make n "" in
  let crash = ref None in
  let i = ref 0 in
  while !crash = None && !i < n do
    let sid, stmt = steps.(!i) in
    let resp, cr = step t sid stmt in
    replies.(!i) <- Wire.render resp;
    (match cr with Some c -> crash := Some (!i, c) | None -> ());
    incr i
  done;
  { o_replies = Array.sub replies 0 !i;
    o_crash = !crash;
    o_executed = !i;
    o_fingerprint =
      Oracle.Suite.fingerprint (Minidb.Engine.catalog t.p_engine) }
