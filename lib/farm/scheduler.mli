(** The farm scheduler: many campaigns, one exec budget, UCB1 arms.

    [legofuzz farm <spec.json>] runs the spec's campaigns through one
    round loop. Each round the scheduler reallocates [fs_round_execs]
    executions across the still-active campaigns — UCB1 ({!Bandit}) over
    per-round new-coverage-key deltas, or plain round-robin for the
    ablation baseline — and hands the round's [(campaign, execs)] jobs to
    a backend. The backend runs each job as one {!Worker.run_slice}: run
    the execs, save the campaign as a new store generation, return a
    {!Transport.round_report} whose generation is already final. The
    loop then folds the reports in job order; that fold alone updates
    the per-campaign records, rewards the bandit, bumps the [farm.*]
    counters and emits the checkpoints, so both backends report alike.

    Backends: {!run} runs each round's jobs as one fork-join
    ({!Reprutil.Pool.run}) over live campaign states, on at most
    [fs_workers] domains and never more than the machine's recommended
    domain count (each campaign entirely on one domain per round, so
    campaigns stay single-shard deterministic); {!run_processes} deals
    jobs to [legofuzz worker] processes and promotes their generations. A
    farm killed between rounds therefore loses at most one round of work,
    and [legofuzz resume] (or simply re-running the farm) picks each
    campaign up from its last good generation.

    Coverage keys: edge branches plus nonzero grammar-virgin cells —
    the same news signal the harness feedback modes use.

    Determinism: campaigns never share state, rewards are pure exec /
    key counts, and {!Bandit} is RNG-free — an in-process farm run is a
    function of (spec, stores on disk), independent of domain scheduling
    and of the domain count (tested). *)

type campaign_result = {
  fc_campaign : Store.campaign;
  fc_rounds : int;        (** rounds this campaign was allocated work in *)
  fc_allocated : int;     (** execs allocated to it by the farm *)
  fc_executed : int;      (** execs it actually performed this farm run *)
  fc_execs_done : int;    (** cumulative, including pre-farm store state *)
  fc_branches : int;      (** edge branches at end *)
  fc_coverage_keys : int; (** branches + grammar cells at end *)
  fc_new_keys : int;      (** coverage keys gained during this farm run *)
  fc_crashes_unique : int;  (** unique crashes, preloaded keys excluded *)
  fc_logic_unique : int;
  fc_bugs : string list;
  fc_generation : int;    (** newest store generation written (0 = none) *)
  fc_resumed_from : int option;  (** generation preloaded at farm start *)
  fc_finished : bool;     (** budget exhausted *)
  fc_error : string option;  (** stalled / died; arm retired *)
}

type result = {
  fr_campaigns : campaign_result list;  (** spec order *)
  fr_rounds : int;
  fr_allocated : int;  (** total execs dealt across all rounds *)
  fr_metrics : Telemetry.Registry.t;
      (** [farm.*] scheduling counters plus the union of every
          campaign's harness registry *)
  fr_warnings : string list;  (** corrupt store generations skipped *)
}

val coverage_keys : Fuzz.Driver.fuzzer -> int
(** The reward signal: edge branches + nonzero grammar-virgin cells of
    the fuzzer's harness. *)

val run :
  ?sink:Telemetry.Sink.t ->
  ?runs_dir:string ->
  Spec.t ->
  (result, string) Stdlib.result
(** Run a farm to completion: until the spec's [fs_total_execs] are
    dealt or every campaign is finished or dead. Campaign stores live
    under [<runs_dir>/<id>/store] (default runs dir
    {!Telemetry.Sink.runs_dir}); existing stores are resumed — config
    from the spec, learned state from the store. Telemetry: a [Meta]
    header, one [farm/<id>] checkpoint per campaign per ran round, and
    a final [Registry_dump] of the farm registry go to [sink] (default
    null). [Error] only on setup failures (unknown fuzzer/dialect,
    unloadable pre-existing store with no valid generation is treated
    as a fresh campaign, not an error). *)

val run_processes :
  ?sink:Telemetry.Sink.t ->
  ?runs_dir:string ->
  ?worker_cmd:(int -> string array) ->
  ?heartbeat_timeout:float ->
  ?max_restarts:int ->
  ?on_heartbeat:(worker:int -> pid:int -> unit) ->
  workers:int ->
  Spec.t ->
  (result, string) Stdlib.result
(** The multi-process backend (DESIGN.md §17): the same round loop,
    but each job runs in a spawned worker process
    ([legofuzz worker], or whatever argv [worker_cmd slot_id] returns)
    speaking the {!Transport} line protocol over its stdin/stdout.
    Workers persist rounds into their store generation namespaces
    ([gen-NNNNNN.wK]); the coordinator {!Store.promote}s each reported
    generation under the store lock, so a finding is merged exactly
    once and duplicate reporting is structurally impossible.

    Failure containment: a worker that exits, misses heartbeats for
    [heartbeat_timeout] seconds (default 30) mid-round, or emits a
    malformed control line is killed and its in-flight round re-queued
    to another slot — a lost worker costs at most one round. The slot
    respawns up to [max_restarts] times (default 3), then retires.
    [Error] only when setup fails or every slot dies before any round
    completes.

    [on_heartbeat] is a test hook invoked on every worker heartbeat
    with the slot id and live pid.

    Checkpoints have the in-process shape; finding counts add up the
    segments between worker reloads.

    Extra metrics over the in-process backend:
    [farm.worker.<K>.{rounds,execs,restarts}] and
    [farm.store.{reloads,reload_skipped}]. Campaign harness internals
    ([exec.*, stage.*]) stay in the worker processes and are not
    merged. *)
