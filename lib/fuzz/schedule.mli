(** Interleaving-schedule fuzzing over the multi-session server layer.

    Takes K typed sequences (corpus seeds / Algorithm 3 output),
    assigns them to K sessions and synthesizes a total execution order.
    Each schedule runs once, serially on a fresh
    {!Server.Session_pool}; crashes are triaged from that outcome and
    crash-free schedules are checked against the commit-order
    serializability oracle ({!Oracle.Isolation}). Crashes dedup by
    synthetic stack, violations by {!Oracle.Violation.key}; new
    signatures are 1-minimized at the schedule-step level via
    {!Reducer.reduce_poly} with a predicate that replays the candidate
    schedule on a fresh pool. *)

open Sqlcore

type t = {
  sc_kind : string;  (** ["round_robin"], ["txn_biased"] or ["spliced"] *)
  sc_steps : (int * Ast.stmt) array;
      (** (session, statement) in execution order *)
}

val round_robin : Ast.testcase list -> t
(** One statement per session in turn — the unbiased baseline. *)

val txn_biased : Reprutil.Rng.t -> Ast.testcase list -> t
(** Wraps sequences without transaction statements in BEGIN..COMMIT and
    biases switch points into open-transaction windows, scheduling
    other sessions while a transaction holds dirty writes — the
    generator that reaches the seeded concurrency races from a plain
    corpus. *)

val spliced :
  Reprutil.Rng.t ->
  affine:(Stmt_type.t -> Stmt_type.t -> bool) ->
  Ast.testcase list ->
  t
(** Affinity-guided cross-session splice points: prefer switching to a
    session whose next statement type is affine with the type just
    executed. *)

val adjacency_affinity :
  Ast.testcase list -> Stmt_type.t -> Stmt_type.t -> bool
(** Affinity mined from corpus adjacency: [(a, b)] is affine when some
    sequence executes [b] directly after [a]. The default [affine] for
    {!spliced} inside {!campaign}. *)

type result = {
  sr_triage : Triage.t;
      (** crashes deduped by stack, violations by key *)
  sr_schedules : int;
  sr_steps : int;
  sr_replay_mismatch : int;
      (** new findings whose full schedule, replayed on a fresh pool,
          does not reproduce the same bug id or violation key — must be
          0; counted in [schedule.replay_mismatch]. The replay is the
          reducer's first predicate call, so the check costs no extra
          execution. *)
  sr_crash_repros : (string * (int * Ast.stmt) array) list;
      (** bug id → 1-minimal schedule, first-found order (the full
          schedule for a replay mismatch) *)
  sr_violation_repros : (string * (int * Ast.stmt) array) list;
      (** violation key → shrunk schedule preserving the key (the full
          schedule for a replay mismatch) *)
}

val campaign :
  ?metrics:Telemetry.Registry.t ->
  profile:Minidb.Profile.t ->
  sessions:int ->
  schedules:int ->
  seed:int ->
  corpus:Ast.testcase list ->
  unit ->
  result
(** Generate and execute [schedules] schedules of [sessions] sequences
    drawn from [corpus] (generator kinds cycled pseudo-randomly from
    [seed]; fully deterministic). [metrics] receives the [schedule.*]
    counter family ([generated], [steps], [crashes], [violations],
    [replay_mismatch], [found.<bug_id>], [kind.<kind>]) plus
    [oracle.isolation.checks]/[.violations] and the schedule pools'
    [session.*] counters (reducer replays are not counted). Each
    minimization is bounded by a fixed replay budget. *)

val render_steps : (int * Ast.stmt) array -> string
(** Printable schedule: one ["s<id>> SQL"] line per step. *)
