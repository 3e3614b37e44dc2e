(** The per-shard execution harness: one test case against one fresh
    engine, with persistent virgin-coverage accumulation and crash triage.

    This plays the role of AFL++'s forkserver in the paper's setup: every
    execution starts from a pristine DBMS state, coverage is collected in
    a per-execution map and folded into the shard's virgin map, and
    crashes are deduplicated by stack.

    A harness is strictly single-shard state — exec map, virgin map,
    triage, exec counter and metric registry are all private to the
    owning shard and none of them is locked. Cross-shard coverage union,
    global crash dedup and metric merging live one layer up in {!Sync};
    campaign orchestration one layer above that in {!Campaign}. With the
    exchange on, each sync round's pull ({!Sync.pull}) also folds the
    released global virgin map back into this harness's [virgin] map, so
    branches any shard has covered stop counting as new here; with it
    off the round never pulls (DESIGN.md §10).

    Telemetry: every execution updates the harness registry
    ([harness.execs], [harness.new_branches], [harness.crashes],
    [harness.unique_crashes], the [harness.exec_cost] histogram, and the
    [execute]/[triage] stage spans) and counts the engine's run under
    [engine.*] ({!Minidb.Engine.count_run}), also for a run answered
    from the repeat memo. Updates are pure in-memory increments, so
    runs with no sink attached behave byte-identically to runs recorded
    to a sink. *)

type feedback = Edges | Grammar | Both
(** What counts as coverage news when deciding whether an execution is
    interesting: the edge bitmap only (the paper's signal, and the
    default), the grammar-rule bitmap only, or either (DESIGN.md §15). *)

val feedback_of_string : string -> feedback option
(** ["edges"], ["grammar"] or ["both"]. *)

val feedback_to_string : feedback -> string

type outcome = {
  o_new_branches : int;  (** virgin-map cells this execution lit up *)
  o_cov_hash : int64;    (** digest of the execution's coverage *)
  o_crash : Minidb.Fault.crash option;
  o_crash_is_new : bool;
  o_errors : int;        (** statements that failed with SQL errors *)
  o_executed : int;
  o_cost : int;          (** execution cost proxy *)
  o_violations : int;    (** logic-bug oracle violations (0 when oracles
                             are off) *)
  o_new_rules : int;     (** grammar virgin cells (rules + rule pairs)
                             this execution lit up; 0 in [Edges] mode *)
  o_interesting : bool;  (** coverage news under the harness's feedback
                             mode — the keep/analyze signal fuzzers use;
                             equals [o_new_branches > 0] in [Edges]
                             mode *)
}

type t

val create :
  ?limits:Minidb.Limits.t ->
  ?metrics:Telemetry.Registry.t ->
  ?oracles:Oracle.Suite.t ->
  ?exec_cache:int ->
  ?feedback:feedback ->
  profile:Minidb.Profile.t ->
  unit ->
  t
(** [metrics] defaults to a fresh private registry; pass one to share a
    registry between a harness and its fuzzer's own stage spans.

    [exec_cache] > 0 enables the prefix-snapshot execution cache with
    that many LRU entries (DESIGN.md §12): hinted executions restore the
    longest cached statement prefix instead of replaying it, and capture
    the hinted boundary on a miss so siblings sharing the prefix hit. It
    also enables the repeat memo: a hinted execution that prints byte
    for byte like one run before ({!repeat_generation}) is answered from
    memory without running. Outcomes — coverage, crashes, oracle
    verdicts, stats — are provably identical to cold replays. Adds
    [cache.hits]/[cache.misses]/[cache.bypass]/[cache.evictions]/
    [cache.repeats] counters, a [cache.bytes] peak gauge and
    [cache_restore]/[cache_lookup]/[cache_capture] stage spans. Default
    0: off, byte-identical to earlier builds.

    [oracles], when given, replays every coverage-increasing non-crashing
    execution through the logic-bug oracle suite: violations are
    deduplicated into this harness's triage ({!Triage.record_logic}) and
    counted under [oracle.<name>.checks] / [oracle.<name>.violations]
    (all counters are pre-created so the namespace exports even when
    everything passes), with replay time under the [oracle] stage span.
    Omitted (the default), behaviour — including every metric — is
    byte-identical to earlier builds.

    [feedback] (default {!Edges}) selects the coverage signal. In
    {!Grammar}/{!Both} modes every executed testcase gets the grammar
    map a re-parse of its printed form would record, built from a
    {!Grammar_memo} of per-statement traces; grammar news is folded
    into a harness-local grammar virgin map, and the registry gains
    [grammar.rules]/[grammar.pairs] gauges, [grammar.parse_errors],
    [grammar.memo.hits] and [grammar.memo.misses] counters and a
    [grammar] stage span. {!Edges} registers none of
    these and is byte-identical to earlier builds. *)

val repeat_generation : int
(** Entries per generation of the repeat memo, which keeps two: a
    testcase not repeated within the last two generations of hinted
    executions runs again. *)

val profile : t -> Minidb.Profile.t

val execute : ?hint:int -> t -> Sqlcore.Ast.testcase -> outcome
(** Never raises. [hint], when the fuzzer knows it, is the number of
    leading statements the candidate shares with its parent seed (e.g.
    the mutation position); a repeat of a hinted testcase is answered
    from the repeat memo, and otherwise the cache probes prefix lengths
    from there downwards, and on a miss captures the hinted boundary
    during the run so the next candidate sharing the prefix restores
    instead of replaying. Unhinted executions bypass the cache — a
    freshly generated case has no prefix worth probing for or
    capturing. Ignored when the cache is off. *)

val feedback : t -> feedback

val grammar_feedback : t -> bool
(** [true] when the feedback mode records grammar coverage
    ({!Grammar} or {!Both}). *)

val grammar_virgin : t -> Coverage.Bitmap.t option
(** The harness-local grammar virgin map, when grammar feedback is on.
    {!Sync} unions it across shards exactly like the edge virgin map. *)

val grammar_novelty : t -> Sqlcore.Ast.testcase -> int
(** Rank a candidate without executing it: fill a grammar map for its
    printed form (from the same memo) and count the cells the grammar
    virgin map lacks. 0 when grammar feedback is off or the candidate
    fails to parse. Read-only — probing a candidate never claims its
    coverage. The map of each of the last two ranked candidates is
    kept: {!execute} on one of them (the same value, [==]) takes its
    map instead of filling it again (DESIGN.md §15). *)

val execs : t -> int
(** Total executions so far. *)

val branches : t -> int
(** Branches (nonzero virgin cells) covered so far — the Figure 9
    metric. *)

val triage : t -> Triage.t

val virgin : t -> Coverage.Bitmap.t

val metrics : t -> Telemetry.Registry.t
(** The shard's metric registry (owner-domain only; see {!Sync} for the
    cross-shard merge). *)
