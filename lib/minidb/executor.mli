(** Statement execution — the interpreter for every statement type MiniDB
    understands.

    The executor is instrumented with {!Coverage.Bitmap.probe} calls at
    every semantic branch point (access-path choice, constraint outcomes,
    trigger/rule firing, value-type combinations, empty-vs-nonempty scans,
    ...). Probe keys mix in engine state, so identical statements executed
    after different SQL Type Sequences cover different cells — the
    behaviour the paper's fuzzing exploits.

    Recoverable problems raise {!Errors.Sql_error}; the engine catches
    them per-statement. Injected bugs are checked by {!Engine}, not
    here. *)

open Sqlcore

type result =
  | Rows of string list * Storage.Value.t array list
      (** header names and data rows *)
  | Affected of int
  | Done of string

type plan_mode =
  | Plan_auto       (** the planner's own choice ({!Planner.choose_access}) *)
  | Plan_force_seq  (** every base-table scan pinned to [Seq_scan] *)

type ctx

val set_plan_mode : ctx -> plan_mode -> unit
(** Override access-path selection for subsequent statements. The
    differential-plan oracle executes each SELECT once under
    [Plan_force_seq] (the semantic reference: a full scan filtered by
    WHERE) and once under [Plan_auto], and compares row multisets.
    Defaults to [Plan_auto]; fuzzing-loop executions never change it. *)

val create_ctx :
  cat:Catalog.t ->
  profile:Profile.t ->
  limits:Limits.t ->
  cov:Coverage.Bitmap.t ->
  ctx

val catalog : ctx -> Catalog.t

type state
(** Frozen copy of a context at a statement boundary: catalog deep copy,
    rows-scanned counter and plan mode. Per-statement transients (flags,
    CTE scope, recursion depths) are empty at boundaries and excluded. *)

val capture : ctx -> state
(** Snapshot the context. The result shares nothing mutable with the
    live context. Only valid at statement boundaries. *)

val restore : state -> cov:Coverage.Bitmap.t -> ctx
(** Build a fresh context from a snapshot, writing coverage into [cov].
    The snapshot's catalog is copied again (copy-on-write, O(#objects)),
    so one [state] can be restored any number of times; mutating a
    restored context never leaks back. *)

val state_bytes : state -> int
(** Incremental heap cost of the snapshot (see
    {!Catalog.approx_bytes}). O(#schema objects), row-independent. *)

val exec : ctx -> Ast.stmt -> result
(** Execute one statement. @raise Errors.Sql_error on recoverable
    errors. *)

val run_query : ctx -> Ast.query -> Storage.Value.t array list
(** Evaluate a query to its rows (exposed for the evaluator and tests). *)

val reset_transient : ctx -> unit
(** Clear per-statement flags; the engine calls this before each
    statement. *)

val rows_scanned : ctx -> int
(** Cumulative rows fetched from relations (base-table scans and
    subquery materialisations) over the context's lifetime — the
    engine's rows-scanned telemetry. *)

val state_pred : ctx -> string -> bool
(** Evaluate a named state predicate over catalog state and per-statement
    flags; this is what {!Fault.ctx.state} is wired to. Unknown names are
    [false]. *)
