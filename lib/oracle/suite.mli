(** The logic-bug oracle suite.

    Crashes are self-announcing; logic bugs are not — the engine returns
    plausible-but-wrong answers. Following SQLancer's approach, each
    oracle derives a second execution that {e must} agree with the first
    and reports any divergence:

    - {b diff_plan} — run every eligible SELECT twice on identical state,
      once with access-path selection pinned to sequential scan and once
      with the planner's own choice; the row multisets must match.
    - {b tlp} — ternary logic partitioning: [WHERE p] rewritten as the
      UNION ALL of the [p] / [NOT p] / [p IS NULL] partitions must have
      the cardinality of the unfiltered query.
    - {b rewrite} — a DML intercepted by a [DO INSTEAD <stmt>] rule must
      leave the same data state as executing the substituted statement
      directly (guarded to substitutes whose tables carry no further
      rules or triggers).

    A suite replays test cases on a {e fault-free} copy of the profile
    ({!Minidb.Profile.without_bugs}) on an engine that probes its
    domain's write-only coverage sink ({!Minidb.Engine.create}), so
    oracle replays can neither crash nor pollute the fuzzer's virgin
    map. *)

type t

type outcome = {
  oc_checks : (string * int) list;
      (** per-oracle number of checks performed, in {!oracle_names}
          order *)
  oc_violations : Violation.t list;  (** in statement order *)
}

val oracle_names : string list
(** [["diff_plan"; "tlp"; "rewrite"; "isolation"]] — the telemetry
    counter namespace ([oracle.<name>.checks] /
    [oracle.<name>.violations]). The isolation oracle runs on the
    schedule path ({!Isolation}), not in {!check}. *)

val create : Minidb.Profile.t -> t

val check : t -> Sqlcore.Ast.testcase -> outcome
(** Replay [tc] on a fresh engine, running every applicable oracle on
    each statement. Deterministic: same test case, same outcome. *)

val plan_tag : Minidb.Catalog.t -> Sqlcore.Ast.query -> string
(** Access-path shape of a query under the current catalog state — the
    dedup-key component of diff_plan/tlp violations. Exposed for tests. *)

val fingerprint : Minidb.Catalog.t -> string
(** Deterministic digest of the data state: every table's rows (sorted)
    and every sequence's value. The agreement protocol shared by the
    rewrite oracle, the isolation oracle and the server layer's
    schedule-replay determinism check. *)
