(** Crash test-case reduction.

    The paper reports bugs as short, readable test cases (Figs. 3 and 7);
    fuzzers rarely produce those directly. This module shrinks a crashing
    test case while preserving the {e same} injected bug (same bug id, the
    analogue of "same ASan stack"): statement-level delta reduction to a
    1-minimal sequence, then literal simplification inside the surviving
    statements. *)

type outcome = {
  r_testcase : Sqlcore.Ast.testcase;  (** the reduced test case *)
  r_tries : int;                      (** oracle executions spent *)
  r_removed : int;                    (** statements removed *)
}

val crashes_with :
  profile:Minidb.Profile.t ->
  bug_id:string ->
  Sqlcore.Ast.testcase ->
  bool
(** Oracle: does this test case, on a fresh engine, crash with exactly
    this bug? *)

val reduce_poly :
  pred:('a list -> bool) ->
  ?max_tries:int ->
  'a list ->
  'a list option
(** The statement-level delta-reduction core, element-type agnostic:
    shrink any list to 1-minimality under [pred] (greedy repeated
    single-deletion, back-to-front, up to [max_tries] predicate
    executions, default 2048). Schedule shrinking runs it over
    [(session * stmt)] steps, which {!reduce_with} cannot carry. The
    first predicate call replays the input itself: [None] when the
    input does not satisfy [pred], so a caller learns whether its
    finding reproduces at no extra cost. *)

val reduce_with :
  pred:(Sqlcore.Ast.testcase -> bool) ->
  ?max_tries:int ->
  Sqlcore.Ast.testcase ->
  outcome
(** Shrink while the pluggable interestingness predicate stays true —
    [pred] may replay a crash ({!crashes_with}) or re-run a logic-bug
    oracle ({!Oracle.Suite.check}). The result is 1-minimal at the
    statement level: removing any single remaining statement loses the
    property (up to [max_tries] predicate executions, default 2048). If
    the input does not satisfy [pred], it is returned unchanged. *)

val reduce :
  profile:Minidb.Profile.t ->
  ?max_tries:int ->
  bug_id:string ->
  Sqlcore.Ast.testcase ->
  outcome
(** {!reduce_with} with [pred] bound once to
    [crashes_with ~profile ~bug_id]. *)
