(** Cross-shard coverage, crash and corpus synchronisation.

    In a sharded campaign every shard owns a private {!Harness.t} (its own
    exec map, virgin map, and triage) and meets the other shards at one
    shared [Sync.t] every [sync_every] executions. A meeting is a
    barriered round ({!exchange_round}): each shard publishes, the
    shard's virgin map is unioned into the global virgin map
    ({!Coverage.Bitmap.merge}), and the last arrival releases the round,
    deduplicating unique crashes by stack signature in shard-id order and
    freezing the campaign's running totals. This is the analogue of
    AFL++'s [-M]/[-S] sync directory.

    The {!exchange} configuration only decides what crosses shards
    (DESIGN.md §10). With it active each shard also publishes its
    coverage-increasing seeds and its discovered type-affinities and AST
    skeletons, then (a) pulls the global virgin map back into its own so
    branches the campaign already knows stop counting as new, and (b)
    imports the foreign entries it has not seen. Entries are globally
    deduplicated (seed cov-hash, affinity pair, printed skeleton SQL) and
    resolved in (round, shard id) order at the barrier, so the canonical
    store — and every shard's import sequence — is a pure function of the
    campaign seed, independent of domain scheduling. With {!exchange_off}
    shards publish and never pull: they stay independent.

    All operations take an internal mutex and are safe from any domain. *)

type exchange = { ex_seeds : bool; ex_affinities : bool }
(** What crosses shards at each round: coverage-increasing seeds
    ([ex_seeds]) and/or type-affinities + AST skeletons
    ([ex_affinities]). The virgin-map pull-back is active whenever either
    is. *)

val exchange_off : exchange
(** Nothing crosses: shards still meet at every round barrier and
    publish coverage, crashes and metrics, but never pull or import, so
    each shard fuzzes as if alone. *)

val exchange_all : exchange

val exchange_active : exchange -> bool

type xseed = {
  xs_tc : Sqlcore.Ast.testcase;
  xs_cov_hash : int64;      (** coverage digest when first executed *)
  xs_new_branches : int;    (** new branches when first executed *)
  xs_cost : int;
}
(** A seed as exchanged between shards: the finder's pool entry minus its
    private selection count. *)

type entry =
  | Seed of xseed
  | Affinity of Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t
  | Skeleton of Sqlcore.Ast.stmt
      (** One exchangeable discovery. Fuzzers without an affinity map
          simply ignore non-[Seed] imports. *)

type export = {
  xp_seeds : xseed list;
  xp_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) list;
  xp_skeletons : Sqlcore.Ast.stmt list;
}
(** A shard's discoveries since its last export, in discovery order. *)

val empty_export : export

type port = {
  p_export : unit -> export;
      (** Drain the fuzzer's discoveries since the last call. *)
  p_import : entry -> unit;
      (** Fold one foreign entry into the fuzzer's own stores (seed pool /
          affinity map / skeleton library). Must not touch the fuzzer's
          RNG: import is applied in the deterministic store order and all
          randomness stays on the shard's own stream. *)
}
(** A fuzzer's exchange capability (carried as
    {!Driver.fuzzer.f_exchange}). The four baselines export and import
    seeds only; LEGO exchanges all three kinds. *)

exception Aborted
(** Raised by {!exchange_round} on every other shard after {!abort} —
    e.g. when one shard died and would otherwise leave the rest waiting
    at the barrier forever. *)

type t

val default_interval : int
(** Executions between syncs when unspecified (4096). *)

val create : ?interval:int -> ?exchange:exchange -> parties:int -> unit -> t
(** [parties] is the number of shards meeting at each round barrier
    (clamped to ≥ 1); [exchange] defaults to {!exchange_off}. *)

val interval : t -> int
(** The configured sync interval in executions (clamped to ≥ 1). *)

val exchange_round :
  ?metrics:Telemetry.Registry.t ->
  ?gram:Coverage.Bitmap.t ->
  ?crashes_delta:int ->
  t ->
  shard:int ->
  virgin:Coverage.Bitmap.t ->
  triage:Triage.t ->
  execs_delta:int ->
  export:export ->
  entry list
(** One barriered round. Unions the shard's [virgin] map into the global
    map, adds [execs_delta] and [crashes_delta] — the executions and {e
    total} (not unique) crashes since the shard's last round — to the
    running totals, stages the shard's unique crashes and logic findings
    and [export], then blocks until all [parties] shards of this round
    have arrived. The last arrival releases the round: staged findings
    are folded into the cross-shard dedup tables in shard-id order (so
    first-finder attribution is deterministic), staged exports are
    deduplicated into the canonical store, and the global virgin map and
    running totals are frozen for this round ({!branches},
    {!execs_seen}, {!total_crashes}, {!rounds}). Re-publishing the same
    state is idempotent: no new branches, no duplicate crashes.

    With an active {!exchange}, on wake-up the shard's [virgin] map
    absorbs the frozen global map (the pull-back) and the call returns
    the store entries this shard has not imported yet, excluding its own,
    in canonical order — apply them through the fuzzer's {!port}. With
    {!exchange_off} it returns [[]] and leaves [virgin] alone; kinds
    disabled in the configuration are dropped at staging time.

    [metrics], when given, must be the {e delta} registry since the
    shard's last round ({!Telemetry.Registry.diff}); it is merged into
    the global registry under the lock. Deltas — not absolute registries
    — keep the non-idempotent counter/histogram merge correct across
    rounds.

    [gram], when the shard runs grammar feedback, is its grammar virgin
    map: unioned into a global grammar map with the same idempotent
    merge (see {!grammar_counts}) and, with an active exchange, absorbed
    back from the round-frozen global grammar map at the pull-back.

    Every shard must call this the same number of times (the campaign
    derives a fixed round count from the budget); a shard whose budget is
    exhausted keeps joining with empty deltas.
    @raise Aborted after {!abort}. *)

val abort : t -> unit
(** Wake every shard blocked at the round barrier with {!Aborted};
    idempotent. Called when a shard dies so the campaign can fail instead
    of hanging. *)

val preload :
  ?virgin:Coverage.Bitmap.compact ->
  ?gram:Coverage.Bitmap.compact ->
  ?crash_keys:string list ->
  ?logic_keys:string list ->
  ?seed_hashes:int64 list ->
  ?affinity_keys:(int * int) list ->
  ?skeleton_keys:string list ->
  t ->
  unit
(** Prime a fresh sync with persisted campaign state (farm resume,
    DESIGN.md §16) before any shard publishes. [virgin]/[gram] are
    merged into the global virgin maps so resurrected coverage stops
    counting as news; [crash_keys]/[logic_keys] mark persisted findings
    as already reported, so a resumed campaign's cross-shard dedup never
    re-ships a pre-interruption crash or violation (they are excluded
    from {!unique_crashes}/{!unique_logic} and the counts); the
    remaining keys prime the exchange-store dedup tables so a
    re-discovered stored entry is not re-exchanged. Idempotent. *)

val seed_port : Seed_pool.t -> port
(** Seed-only exchange over a plain seed pool: export drains seeds
    admitted since the previous export, import folds foreign seeds into
    the pool (affinity/skeleton entries are ignored). The capability the
    four baselines carry. *)

val metrics : t -> Telemetry.Registry.t
(** Snapshot of the global metric registry — the union of all published
    shard deltas (stage-time histograms, engine counters). *)

val branches : t -> int
(** Branches of the merged global virgin map as of the last released
    round — the aggregate Figure 9 metric across shards. *)

val grammar_counts : t -> int * int
(** [(rules, pairs)] of the merged global grammar virgin map; [(0, 0)]
    when no shard published grammar coverage. *)

val execs_seen : t -> int
(** Total executions published across all shards up to the last
    released round. *)

val total_crashes : t -> int
(** Total (non-unique) crashes published across all shards up to the
    last released round. *)

val rounds : t -> int
(** Shard publishes up to the last released round (one per shard per
    round). *)

val exchanged : t -> int
(** Entries in the canonical exchange store (post-dedup). *)

val unique_crashes :
  t -> (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list
(** Cross-shard unique crashes in first-published order, each with the
    reproducer test case of the shard that found it first. *)

val unique_count : t -> int
(** O(1): maintained on insert, never recomputed from the list. *)

val unique_logic :
  t -> (Oracle.Violation.t * Sqlcore.Ast.testcase option) list
(** Cross-shard unique logic-bug findings in first-published order,
    deduplicated by {!Oracle.Violation.key} exactly like crashes are by
    stack, each with the test case of the shard that exposed it first.
    Staged from the shard triage and folded in shard-id order at round
    barriers. *)

val bug_ids : t -> string list
(** Distinct injected-bug ids among the cross-shard unique crashes.
    Memoized; recomputed only after a new unique crash was inserted. *)
