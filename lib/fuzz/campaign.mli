(** The campaign engine: N coordinated fuzzing campaigns on OCaml 5
    domains, exchanging coverage through {!Sync}.

    Layering (see DESIGN.md §8):

    {v
      Campaign   one domain per shard, sync rounds, aggregate snapshot
        │
      Sync       global virgin ⊔, cross-shard crash dedup  (mutex)
        │
      Harness    per-shard executor: own exec map, virgin map, triage
        │
      Coverage   bitmap merge / snapshot / diff
    v}

    Each shard builds its own fuzzer from the factory (so every piece of
    mutable fuzzing state — RNG, seed pool, affinity map, harness — is
    domain-private) and runs in barriered rounds of [sync_every]
    executions, publishing at each. The only cross-domain state is the
    mutex-guarded {!Sync.t}.

    With an active [exchange] configuration each shard additionally
    pulls the global virgin map back into its own harness at every round
    and imports foreign coverage-increasing seeds / type-affinities / AST
    skeletons through its fuzzer's {!Driver.fuzzer.f_exchange} port
    (DESIGN.md §10). *)

type shard = {
  sh_id : int;
  sh_seed_offset : int;  (** [shard_id * stride], what {!shard_seed} adds *)
  sh_snapshot : Driver.snapshot;  (** this shard's private final snapshot *)
  sh_fuzzer : Driver.fuzzer;
      (** the shard's fuzzer; safe to use after {!run} returns (its domain
          has been joined) — e.g. for corpus censuses or budget extension *)
}

type result = {
  cg_snapshot : Driver.snapshot;
      (** aggregate: summed execs/iterations/crash totals, branches of the
          merged virgin map, cross-shard-deduped unique crashes and bugs *)
  cg_shards : shard list;  (** in shard-id order *)
  cg_crashes : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
      (** cross-shard unique crashes with first-finder reproducers *)
  cg_logic : (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
      (** cross-shard unique logic-bug findings (empty when the harness
          runs without an oracle suite), deduplicated by
          {!Oracle.Violation.key} with first-finder reproducers *)
  cg_sync_rounds : int;
      (** shard rounds in which the shard fuzzed (0 with [jobs = 1]) *)
  cg_metrics : Telemetry.Registry.t;
      (** the campaign's merged metric registry — always a completion-time
          {e snapshot}: with [jobs = 1] a snapshot of the single harness's
          registry, otherwise the union of every shard's published deltas
          (see {!Sync.metrics}) *)
}

val shard_seed : seed:int -> shard_id:int -> int
(** [seed + shard_id * 1_000_003]: deterministic, well-separated per-shard
    RNG seeds derived from one campaign seed. Shard 0 keeps the campaign
    seed itself, so [jobs = 1] reproduces unsharded runs exactly. *)

val run :
  ?checkpoint_every:int ->
  ?on_checkpoint:(Driver.checkpoint -> unit) ->
  ?sync_every:int ->
  ?exchange:Sync.exchange ->
  ?sink:Telemetry.Sink.t ->
  ?series_prefix:string ->
  ?prime_sync:(Sync.t -> unit) ->
  jobs:int ->
  execs:int ->
  (int -> Driver.fuzzer) ->
  result
(** [run ~jobs ~execs make] fuzzes with [jobs] shards sharing a total
    budget of [execs] executions ([execs / jobs] each, remainder to the
    first shards). [make shard_id] is called once per shard, {e inside}
    the shard's domain — derive per-shard RNG seeds with {!shard_seed}.

    With [jobs = 1] this is exactly {!Driver.run_until_execs} on
    [make 0] — byte-identical snapshots, no domains, no sync, regardless
    of [exchange] (one shard has nobody to exchange with) — so
    single-job campaigns preserve the repository's determinism guarantee.

    With [jobs > 1], every shard runs the same fixed number of barriered
    rounds ([ceil (largest shard budget / sync_every)], [sync_every]
    defaulting to {!Sync.default_interval}), fuzzing up to
    [min budget (r * sync_every)] executions before round [r]; a shard
    whose budget is spent keeps joining with empty deltas. At each
    barrier the shards publish coverage, crashes and metric deltas to a
    {!Sync}. The result, the checkpoint series and the event stream are
    a pure function of (seed, jobs, execs, sync_every, exchange): nothing
    depends on domain scheduling. If a shard dies (e.g.
    {!Driver.Stalled}), the campaign aborts the remaining shards and
    re-raises that shard's exception.

    [exchange] (default {!Sync.exchange_off}) decides what crosses at
    the barriers: with it active, shards pull the merged virgin map and
    import each other's deduplicated discoveries in (round, shard id)
    order; with it off, each shard fuzzes as if alone. Discoveries the
    rounds exported are handed back by each shard fuzzer's first
    [p_export] after the run, so a store capture sees them all.

    [on_checkpoint] receives aggregate snapshots at round barriers, at
    most one per round and once per [checkpoint_every] published
    executions, read from the totals the round's release froze
    (including the published crash total).

    [prime_sync] (default: nothing) is applied to the freshly created
    {!Sync.t} before any shard domain is spawned — the farm-resume hook
    that preloads persisted virgin maps and dedup keys
    ({!Sync.preload}) so a resumed sharded campaign never re-reports
    pre-interruption findings. Ignored at [jobs = 1] (the sequential
    path has no sync; resume preloads the harness directly).

    Telemetry: every aggregate checkpoint, and one per-shard checkpoint
    per round, is emitted into [sink] (default {!Telemetry.Sink.null})
    as a {!Telemetry.Event.Checkpoint} whose series is
    [<series_prefix>aggregate] / [<series_prefix>shard-<i>]. With
    [jobs > 1] the events are kept during the run and written to [sink]
    after the shards join, shard by shard in emission order with
    aggregate checkpoints last ([on_checkpoint] still fires live).
    Shards publish metric {e deltas} at each round, so
    {!result.cg_metrics} is the campaign-wide registry union, mirroring
    the virgin-map union. *)
