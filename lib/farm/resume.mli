(** Resuming a persisted campaign from its on-disk store.

    [legofuzz resume <id>] (and the farm scheduler, when a store already
    exists for a campaign) reconstructs the fuzzer from the stored
    configuration, preloads everything the interrupted epochs learned —
    virgin maps merged into the fresh harness, crash/violation dedup
    keys into triage ({!Fuzz.Triage.preload}) and, for sharded resumes,
    into the sync ({!Fuzz.Sync.preload}), corpus / affinities /
    skeletons imported through the fuzzer's exchange port — and then
    continues the campaign on an epoch-derived RNG stream
    ({!Spec.epoch_seed}). Preloaded findings are never re-reported: the
    resumed run's unique counts cover new discoveries only. A new store
    generation is written when the run segment ends. *)

type outcome = {
  rs_result : Fuzz.Campaign.result;  (** the resumed segment's result *)
  rs_campaign : Store.campaign;
  rs_from_generation : int;   (** generation the resume started from *)
  rs_generation : int;        (** generation written at segment end *)
  rs_epoch : int;             (** epoch of the resumed segment *)
  rs_preloaded_crashes : int; (** dedup keys carried in (crash) *)
  rs_preloaded_logic : int;
  rs_executed : int;          (** executions this segment performed *)
  rs_execs_done : int;        (** cumulative, across all epochs *)
  rs_budget : int;            (** effective total budget (extended by
                                  [execs] when given) *)
  rs_warnings : string list;  (** corrupt generations skipped on load *)
}

val preload_fuzzer : Store.snapshot -> Fuzz.Driver.fuzzer -> unit
(** Fold a stored snapshot into a freshly built fuzzer: merge the
    virgin (and, if grammar feedback is on, grammar) compact into the
    harness maps, preload triage dedup keys, and import skeletons,
    seeds and affinities — in that order, so affinity-driven synthesis
    sees the skeleton library — through [f_exchange]. Fuzzers without
    an exchange port still get coverage and dedup preloads. *)

val prime_sync : Store.snapshot -> Fuzz.Sync.t -> unit
(** The {!Fuzz.Campaign.run} [prime_sync] hook for sharded resumes:
    {!Fuzz.Sync.preload} with the snapshot's maps and keys. *)

val capture :
  prior:Store.snapshot ->
  campaign:Store.campaign ->
  progress:Store.progress ->
  Fuzz.Campaign.result ->
  Store.snapshot
(** Fold a finished campaign segment into a persistable snapshot: the
    prior store entries plus every shard's drained exchange exports,
    the union of prior and shard virgin maps, and the dedup keys
    extended by the segment's new findings (a first-epoch capture
    passes {!Store.empty_snapshot} as [prior] — how [legofuzz fuzz
    --store] seeds a store). *)

val run :
  ?jobs:int ->
  ?execs:int ->
  ?sync_every:int ->
  ?checkpoint_every:int ->
  ?sink:Telemetry.Sink.t ->
  ?keep:int ->
  dir:string ->
  unit ->
  (outcome, string) result
(** Resume the campaign stored under [dir]. Without [execs] the segment
    runs the stored budget's unspent remainder ([sc_budget -
    execs_done]; an error if nothing remains); with [execs] it runs
    that many {e additional} executions and extends the stored budget
    accordingly. [jobs] (default 1) shards the segment via
    {!Fuzz.Campaign.run} with the exchange on ({!Fuzz.Sync.exchange_all},
    the CLI default), so a campaign stored by [fuzz --jobs N --store]
    resumes in the mode it ran in. Telemetry goes to [sink] (default null) —
    pass an append-mode JSONL sink to continue the original run's
    stream; a [Meta] event with [resumed_from] (the source generation)
    marks the boundary. *)
