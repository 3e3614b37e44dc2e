open Sqlcore

type t = {
  ctx : Executor.ctx;
  profile : Profile.t;
  limits : Limits.t;
  cov : Coverage.Bitmap.t;
  metrics : Telemetry.Registry.t option;
  mutable window : Fault.window;
  mutable stmt_count : int;
  mutable fault_ext : (string -> bool option) option;
      (* cross-session fault predicates (server layer); [None] answers
         fall through to [Executor.state_pred] *)
  fault_state : string -> bool;  (* [state_pred] of this engine *)
}

type stmt_status =
  | Ok_result of Executor.result
  | Sql_failed of Errors.t

type run_stats = {
  rs_executed : int;
  rs_errors : int;
  rs_crash : Fault.crash option;
  rs_cost : int;
  rs_rows_scanned : int;
}

let s_gate = Coverage.Sites.register "engine.gate"
let s_seqpair = Coverage.Sites.register "engine.type_transition"
let s_sqlerr = Coverage.Sites.register "engine.sql_error"

let state_pred t name =
  match t.fault_ext with
  | None -> Executor.state_pred t.ctx name
  | Some ext -> (
      match ext name with
      | Some b -> b
      | None -> Executor.state_pred t.ctx name)

(* The one constructor: the fault check's state closure is built here,
   once per engine. *)
let make ctx ~profile ~limits ~cov ~metrics ~window ~stmt_count =
  let rec t =
    { ctx; profile; limits; cov; metrics; window; stmt_count;
      fault_ext = None; fault_state = (fun name -> state_pred t name) }
  in
  t

(* What an engine built without a map probes: one map per domain that
   nothing reads or resets, so its cells and dirty list just saturate.
   Per domain because [Bitmap.hit] is unsynchronised: two domains
   marking one map could both write past its dirty list. *)
let sink = Domain.DLS.new_key Coverage.Bitmap.create

let create ?(limits = Limits.default) ?metrics ~profile ?cov () =
  let cov =
    match cov with Some c -> c | None -> Domain.DLS.get sink
  in
  let cat = Catalog.create () in
  make (Executor.create_ctx ~cat ~profile ~limits ~cov) ~profile ~limits
    ~cov ~metrics ~window:Fault.empty_window ~stmt_count:0

let profile t = t.profile

let catalog t = Executor.catalog t.ctx

let window t = Fault.window_to_list t.window

let set_window t w = t.window <- Fault.window_of_list w

let set_fault_ext t f = t.fault_ext <- f

let exec_stmt t stmt =
  let ty = Ast.type_of_stmt stmt in
  if not (Profile.supports t.profile ty) then begin
    Coverage.Bitmap.probe t.cov ~site:s_gate ~key:(Stmt_type.to_index ty);
    Sql_failed (Errors.Not_supported (Stmt_type.name ty))
  end
  else begin
    (* Order-sensitive transition coverage: real DBMS code executed for a
       statement depends on what ran before it (caches, catalog state,
       open transactions); this probe is the aggregate of that effect. *)
    let prev = Fault.last_index t.window in
    if prev >= 0 then begin
      (* Hash the pair into a compressed key space: real DBMSs do not
         have a branch per ordered statement-type pair; order
         sensitivity shows up through shared state, so distinct pairs
         partially alias, like AFL edge collisions. *)
      let pair = (prev * Stmt_type.count) + Stmt_type.to_index ty in
      let mixed = (pair * 0x9E3779B1) lxor (pair lsr 7) in
      Coverage.Bitmap.probe t.cov ~site:s_seqpair ~key:(mixed land 0x1ff)
    end;
    Executor.reset_transient t.ctx;
    t.window <- Fault.push_window t.window ty;
    let status =
      match Executor.exec t.ctx stmt with
      | result -> Ok_result result
      | exception Errors.Sql_error e ->
        Coverage.Bitmap.probe t.cov ~site:s_sqlerr
          ~key:(Hashtbl.hash (Errors.message e) land 0x3f);
        Sql_failed e
    in
    (* Injected-bug check runs over the updated window plus whatever state
       the statement left behind — crashes surface as exceptions even when
       the statement itself reported a SQL error first, like a heap
       corruption detected at the next safepoint. *)
    Fault.check (Profile.checker t.profile)
      { Fault.window = t.window; stmt; state = t.fault_state };
    status
  end

let empty_stats =
  { rs_executed = 0; rs_errors = 0; rs_crash = None; rs_cost = 0;
    rs_rows_scanned = 0 }

(* [carry] holds the stats of a prefix already replayed into this engine
   (by the harness's snapshot cache): the returned stats and the metric
   counters report prefix + suffix combined, exactly what one cold run
   of the full test case would have reported. [on_boundary n stats]
   fires after each completed, non-crashing statement ([n] = statements
   consumed from [tc] so far) — the snapshot cache captures entries
   there, so crashing statements are never cached as boundaries. *)
let run_testcase_from ?(carry = empty_stats) ?on_boundary t tc =
  let executed = ref carry.rs_executed in
  let errors = ref carry.rs_errors in
  let cost = ref carry.rs_cost in
  let crash = ref None in
  let consumed = ref 0 in
  let rows0 = Executor.rows_scanned t.ctx - carry.rs_rows_scanned in
  let stats () =
    { rs_executed = !executed; rs_errors = !errors; rs_crash = !crash;
      rs_cost = !cost; rs_rows_scanned = Executor.rows_scanned t.ctx - rows0 }
  in
  (try
     List.iter
       (fun stmt ->
          if t.stmt_count >= t.limits.Limits.max_statements then raise Exit;
          t.stmt_count <- t.stmt_count + 1;
          incr executed;
          cost := !cost + Ast_util.stmt_size stmt;
          (match exec_stmt t stmt with
           | Ok_result _ -> ()
           | Sql_failed _ -> incr errors);
          incr consumed;
          match on_boundary with
          | None -> ()
          | Some f -> f !consumed (stats ()))
       tc
   with
   | Exit -> ()
   | Fault.Crashed c -> crash := Some c);
  let res = stats () in
  (match t.metrics with
   | None -> ()
   | Some m ->
     let count name by =
       if by > 0 then
         Telemetry.Registry.incr ~by (Telemetry.Registry.counter m name)
     in
     count "engine.statements_executed" res.rs_executed;
     count "engine.sql_errors" res.rs_errors;
     count "engine.rows_scanned" res.rs_rows_scanned;
     count "engine.crashes" (if res.rs_crash = None then 0 else 1));
  res

let run_testcase t tc = run_testcase_from t tc

type snapshot = {
  sn_state : Executor.state;
  sn_window : Fault.window;
  sn_stmt_count : int;
  sn_profile : Profile.t;
  sn_limits : Limits.t;
}

let snapshot t =
  { sn_state = Executor.capture t.ctx;
    sn_window = t.window;
    sn_stmt_count = t.stmt_count;
    sn_profile = t.profile;
    sn_limits = t.limits }

let restore ?metrics snap ~cov () =
  make (Executor.restore snap.sn_state ~cov) ~profile:snap.sn_profile
    ~limits:snap.sn_limits ~cov ~metrics ~window:snap.sn_window
    ~stmt_count:snap.sn_stmt_count

let snapshot_bytes snap =
  Executor.state_bytes snap.sn_state
  + (16 * Fault.window_length snap.sn_window)
  + 256

let set_plan_mode t mode = Executor.set_plan_mode t.ctx mode

let query_rows t q =
  match Executor.run_query t.ctx q with
  | rows -> Ok rows
  | exception Errors.Sql_error e -> Error e
