(** N client sessions multiplexed over one shared {!Minidb.Engine}.

    One session is attached to the shared catalog at a time; context
    switches park/unpark connection state through
    {!Minidb.Catalog.park_session} and swap statement-type windows, so
    transaction state and bug-registry windows track the {e session}.
    Cross-session fault predicates ([other_txn_dirty],
    [other_session_in_txn], [other_session_window]) are answered from
    the other sessions' mirror flags via {!Minidb.Engine.set_fault_ext}.

    One executor serves both clients: the [serve] REPL runs one
    statement at a time through {!exec}, and a schedule runs its steps
    in their total order through {!run_serial}, on the calling domain.
    An outcome is a pure function of the steps, so replaying a schedule
    on a fresh pool reproduces it. *)

open Sqlcore

type t

val create :
  ?metrics:Telemetry.Registry.t ->
  sessions:int ->
  profile:Minidb.Profile.t ->
  unit ->
  t
(** A fresh pool: one engine, [sessions] sessions, session 0 attached.
    Its engine probes the calling domain's write-only coverage sink
    ({!Minidb.Engine.create} without [?cov]): nothing reads a pool's
    coverage.
    [metrics] receives [session.statements] / [session.switches] /
    [session.crashes] counters. *)

val engine : t -> Minidb.Engine.t
(** The shared engine; exposed for oracles and tests. *)

val exec : t -> session:int -> Ast.stmt -> Wire.response
(** Serve path: execute one statement as [session], context-switching
    if needed. A fired bug answers {!Wire.Crashed} rather than
    raising. *)

type outcome = {
  o_replies : string array;
      (** rendered {!Wire.response}s, one per executed step in schedule
          order *)
  o_crash : (int * Minidb.Fault.crash) option;
      (** step index at which a bug fired; execution stopped there *)
  o_executed : int;
  o_fingerprint : string;
      (** {!Oracle.Suite.fingerprint} of the final catalog *)
}

val run_serial : t -> (int * Ast.stmt) array -> outcome
(** Execute a schedule ([(session, stmt)] steps) through {!exec}'s
    per-statement step, stopping at the first crash. Consumes the pool:
    run each schedule on a fresh one. *)
