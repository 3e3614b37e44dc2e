(** The campaign engine: N coordinated fuzzing campaigns on OCaml 5
    domains, exchanging coverage through {!Sync}.

    Layering (see DESIGN.md §8):

    {v
      Campaign   rounds as fork-joins over shards, aggregate snapshot
        │
      Sync       global virgin ⊔, cross-shard crash dedup  (plain value)
        │
      Harness    per-shard executor: own exec map, virgin map, triage
        │
      Coverage   bitmap merge / snapshot / diff
    v}

    Each shard builds its own fuzzer from the factory inside its first
    job (so every piece of mutable fuzzing state — RNG, seed pool,
    affinity map, harness — is touched by that shard's jobs only) and
    runs in rounds of [sync_every] executions. A round is one
    {!Reprutil.Pool.run} with a job per shard; between rounds the calling
    domain alone releases the round into the {!Sync.t}.

    With [exchange] on, each shard additionally pulls the global virgin
    map back into its own harness at every round and imports foreign
    coverage-increasing seeds / type-affinities / AST skeletons through
    its fuzzer's {!Driver.fuzzer.f_exchange} port (DESIGN.md §10). *)

type shard = {
  sh_id : int;
  sh_seed_offset : int;  (** [shard_id * stride], what {!shard_seed} adds *)
  sh_snapshot : Driver.snapshot;  (** this shard's private final snapshot *)
  sh_fuzzer : Driver.fuzzer;
      (** the shard's fuzzer; safe to use after {!run} returns (no job
          touches it any more) — e.g. for corpus censuses or budget
          extension *)
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
          registry, otherwise every shard's registry as of its last
          publish, merged once at campaign end in shard order (counters
          that never moved are left out) *)
}

val shard_seed : seed:int -> shard_id:int -> int
(** [seed + shard_id * 1_000_003]: deterministic, well-separated per-shard
    RNG seeds derived from one campaign seed. Shard 0 keeps the campaign
    seed itself, so [jobs = 1] reproduces unsharded runs exactly. *)

val point_of : series:string -> Driver.snapshot -> Telemetry.Event.point
(** A snapshot as a telemetry series point: the point of every
    checkpoint the campaign emits, and of the CLI's summary events. *)

val run :
  ?checkpoint_every:int ->
  ?on_checkpoint:(Driver.checkpoint -> unit) ->
  ?sync_every:int ->
  ?exchange:bool ->
  ?sink:Telemetry.Sink.t ->
  ?series_prefix:string ->
  jobs:int ->
  execs:int ->
  (int -> Driver.fuzzer) ->
  result
(** [run ~jobs ~execs make] fuzzes with [jobs] shards sharing a total
    budget of [execs] executions ([execs / jobs] each, remainder to the
    first shards). [make shard_id] is called once per shard, {e inside}
    the shard's first job — derive per-shard RNG seeds with
    {!shard_seed}.

    With [jobs = 1] this is exactly {!Driver.run_until_execs} on
    [make 0] — byte-identical snapshots, no domains, no sync, regardless
    of [exchange] (one shard has nobody to exchange with) — so
    single-job campaigns preserve the repository's determinism guarantee.

    With [jobs > 1], every shard takes part in the same fixed number of
    rounds ([ceil (largest shard budget / sync_every)], [sync_every]
    defaulting to {!Sync.default_interval}), fuzzing up to
    [min budget (r * sync_every)] executions in round [r]; a shard whose
    budget is spent publishes empty deltas. Each round is a fork-join
    with one job per shard, on at most [jobs] domains and never more
    than the machine's recommended domain count; after it the shards'
    coverage, crashes and metric deltas are released into a {!Sync} in
    shard-id order. The result, the checkpoint series and the event
    stream are a pure function of (seed, jobs, execs, sync_every,
    exchange): nothing depends on domain scheduling or on the domain
    count. If shards fail in a round (e.g. {!Driver.Stalled}), the round
    ends when its running jobs have, and the lowest failing shard's
    exception is re-raised.

    [exchange] (default [false]) decides whether discoveries cross
    between rounds: with it on, shards pull the merged virgin map and
    import each other's deduplicated discoveries in (round, shard id)
    order; with it off, each shard fuzzes as if alone. Discoveries the
    rounds exported are handed back by each shard fuzzer's first
    [p_export] after the run, so a store capture sees them all.

    [on_checkpoint] receives aggregate snapshots after round releases,
    at most one per round and once per [checkpoint_every] published
    executions, read from the released totals (including the published
    crash total).

    Telemetry: every aggregate checkpoint, and one per-shard checkpoint
    per round, is emitted into [sink] (default {!Telemetry.Sink.null})
    as a {!Telemetry.Event.Checkpoint} whose series is
    [<series_prefix>aggregate] / [<series_prefix>shard-<i>]. With
    [jobs > 1] the events are kept during the run and written to [sink]
    after the last round, shard by shard in emission order with
    aggregate checkpoints last ([on_checkpoint] still fires live).
    Shards publish metric {e deltas} at each round, so
    {!result.cg_metrics} is the campaign-wide registry union, mirroring
    the virgin-map union. *)
