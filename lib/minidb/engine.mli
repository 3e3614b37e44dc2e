(** The DBMS session façade the fuzzing harness drives.

    An engine is one fresh "server + connection": it owns a catalog,
    enforces the dialect profile (unsupported statement types are rejected
    at the gate, like a parser error), maintains the sliding window of
    executed statement types, and checks the profile's injected bugs after
    every statement — raising {!Fault.Crashed} like an ASan abort. *)

open Sqlcore

type t

type stmt_status =
  | Ok_result of Executor.result
  | Sql_failed of Errors.t
      (** statement rejected; execution continues *)

type run_stats = {
  rs_executed : int;        (** statements attempted *)
  rs_errors : int;          (** statements that failed with a SQL error *)
  rs_crash : Fault.crash option;  (** a bug fired; execution stopped *)
  rs_cost : int;            (** total AST size executed — a time proxy *)
  rs_rows_scanned : int;    (** rows fetched from relations *)
}

val create :
  ?limits:Limits.t ->
  ?metrics:Telemetry.Registry.t ->
  profile:Profile.t ->
  ?cov:Coverage.Bitmap.t ->
  unit ->
  t
(** The engine's coverage probes fire into [cov]. Without it they fire
    into a write-only map of the calling domain's that nothing reads or
    resets, so replays that never look at coverage allocate no map.
    [metrics], when given, receives the engine's telemetry counters
    ([engine.statements_executed], [engine.sql_errors],
    [engine.rows_scanned], [engine.crashes]) after each
    {!run_testcase}. *)

val profile : t -> Profile.t

val catalog : t -> Catalog.t

val window : t -> Stmt_type.t list
(** Recently executed statement types, oldest first (at most
    {!Fault.window_cap}). *)

val set_window : t -> Stmt_type.t list -> unit
(** Replace the sliding window wholesale (its last {!Fault.window_cap}
    types). The server layer's session
    pool swaps windows on session context switches so the window tracks
    the {e session}, not the shared store — bug-registry triggers must
    never see another session's statement types. *)

val set_fault_ext : t -> (string -> bool option) option -> unit
(** Install (or clear) an external answerer for bug-registry state
    predicates. A [Some b] answer overrides {!Executor.state_pred};
    [None] falls through to it. The session pool uses this for
    cross-session predicates ([other_txn_dirty],
    [other_session_in_txn], [other_session_window]) that a
    single-session engine cannot express — with no hook installed those
    names keep answering [false], so single-session campaigns are
    byte-identical to before the server layer existed. *)

val exec_stmt : t -> Ast.stmt -> stmt_status
(** Execute one statement; afterwards evaluate the bug registry.
    @raise Fault.Crashed when an injected bug's trigger matches. *)

val run_testcase : t -> Ast.testcase -> run_stats
(** Execute a whole test case, statement by statement, stopping at the
    first crash. Never raises. *)

val run_testcase_from :
  ?carry:run_stats ->
  ?on_boundary:(int -> run_stats -> unit) ->
  t ->
  Ast.testcase ->
  run_stats
(** Like {!run_testcase}, but [carry] (stats of a prefix already
    replayed into this engine by the snapshot cache) is folded into the
    returned stats and the metric counters, so a restored-prefix +
    suffix run reports exactly what one cold run of the whole test case
    would. [on_boundary n stats] fires after each completed,
    non-crashing statement with [n] = statements consumed so far and the
    cumulative stats — the safe points at which the engine may be
    {!snapshot}ted. *)

type snapshot
(** Frozen engine at a statement boundary: executor state (catalog deep
    copy), type window and statement budget. Shares nothing mutable with
    the live engine. *)

val snapshot : t -> snapshot
(** Capture the engine. Only valid at statement boundaries (between
    {!run_testcase} calls or inside [on_boundary]). *)

val restore :
  ?metrics:Telemetry.Registry.t ->
  snapshot ->
  cov:Coverage.Bitmap.t ->
  unit ->
  t
(** Build a fresh engine from a snapshot. The restored engine gets its
    own catalog records sharing persistent row storage with the
    snapshot (copy-on-write), so one snapshot can be restored any
    number of times and mutating a restored engine never leaks back
    into the snapshot. A restored
    engine continues bit-identically to the engine that was captured:
    catalog iteration orders, the statement-type window and the
    statement budget all match. *)

val snapshot_bytes : snapshot -> int
(** Incremental heap cost of a snapshot, O(#schema objects). Row data
    is shared with the live engine (see {!Catalog.approx_bytes}), so
    this is orders of magnitude below the pre-refactor deep-copy cost.
    Backs the prefix cache's memory accounting. *)

val query_rows :
  t -> Ast.query -> (Storage.Value.t array list, Errors.t) result
(** Convenience for examples and tests. *)

val set_plan_mode : t -> Executor.plan_mode -> unit
(** Pin or release access-path selection (see {!Executor.set_plan_mode});
    used by the differential-plan oracle's paired executions. *)
