(** Commit-order linearization oracle for interleaved schedules.

    Serializability's canonical witness candidate: order every
    transaction (and every autocommit statement, as a one-statement
    transaction) by its commit point in the schedule, replay the units
    serially on a fresh fault-free engine, and compare the data-state
    {!Suite.fingerprint} with the one the interleaved execution
    produced. Divergence is an isolation violation — under MiniDB's
    deliberately naive transaction machinery (writes immediately
    visible to all sessions, ROLLBACK restores a whole-table BEGIN
    snapshot) these are real lost-update / dirty-read /
    clobbered-commit findings.

    Reads the outcome of a schedule's single serial run, which is a
    pure function of its steps, so a violation's key is reproducible by
    replaying the recorded schedule. *)

open Sqlcore

type unit_ = {
  u_session : int;
  u_stmts : Ast.stmt list;
      (** in session order; open transactions get an implicit COMMIT *)
  u_commit : int;  (** schedule index of the unit's last statement *)
}
(** One serializability unit: a transaction or autocommit statement. *)

val check :
  profile:Minidb.Profile.t ->
  steps:(int * Ast.stmt) array ->
  observed:string ->
  unit ->
  Violation.t option
(** [check ~profile ~steps ~observed ()] — [steps] is the executed
    schedule in order ([(session, stmt)] pairs), [observed] the
    {!Suite.fingerprint} of the catalog after the interleaved run.
    Returns [Some v] (with [v.vi_oracle = "isolation"] and a dedup tag
    naming the diverging tables/sequences) when commit-order serial
    replay cannot reproduce the observed state. A trailing open
    transaction is implicitly committed on both sides of the
    comparison. Single-session schedules never report: their commit
    order {e is} the original order. *)

val commit_order_units : (int * Ast.stmt) array -> unit_ list
(** The serialization candidate, exposed for tests: per-session
    statement traces split into transaction units and sorted by commit
    point. *)
