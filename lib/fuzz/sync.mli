(** Cross-shard coverage, crash and corpus synchronisation.

    In a sharded campaign every shard owns a private {!Harness.t} (its own
    exec map, virgin map, and triage), and the shards meet at one
    [Sync.t] every [sync_every] executions. A meeting ends a fork-join
    round: each shard's job {!stage}s what it publishes, and once every
    job has returned the campaign {!release}s the round on one domain,
    in shard-id order — unioning each shard's virgin map into the global
    one ({!Coverage.Bitmap.merge}), recording the shards' unique findings
    in one campaign-level {!Triage.t} and adding up the campaign's
    running totals. This is the analogue of AFL++'s [-M]/[-S] sync
    directory. Metrics do not pass through here: the campaign merges
    each shard's registry once, at campaign end.

    The exchange flag only decides whether discoveries cross shards
    (DESIGN.md §10). With it on each shard also stages its
    coverage-increasing seeds and its discovered type-affinities and AST
    skeletons, and at the start of its next job {!pull}s: (a) the global
    virgin map back into its own, so branches the campaign already knows
    stop counting as new, and (b) the foreign entries it has not seen.
    Entries are globally deduplicated by {!key} (as is the farm store)
    and resolved in (round, shard id) order at the release, so the
    canonical store — and every shard's import sequence — is a pure
    function of the campaign seed, independent of domain scheduling.
    With it off shards publish and never pull: they stay independent.

    A plain value with no lock: {!release} and the aggregate reads run
    between rounds; only {!stage} and {!pull} run inside the
    shards' parallel jobs, and neither writes anything another shard's
    job reads. *)

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

type key = private
  | K_seed of int64          (** the seed's coverage hash *)
  | K_affinity of int * int  (** the pair's {!Sqlcore.Stmt_type.to_index}es *)
  | K_skeleton of string     (** the skeleton's printed SQL *)

val key : entry -> key
(** The dedup key of a discovery: entries with equal keys are one. *)

val xseeds_since : Seed_pool.t -> int -> xseed list
(** {!Seed_pool.since} in exchange form. *)

val add_xseed : Seed_pool.t -> xseed -> unit
(** {!Seed_pool.add} of an exchanged seed. *)

type t

val default_interval : int
(** Executions between syncs when unspecified (4096). *)

val create : ?interval:int -> ?exchange:bool -> unit -> t
(** [exchange] (default [false]) decides whether seeds, affinities and
    skeletons cross shards; with it off, shards still publish coverage
    and crashes at every round, but never pull or import, so
    each shard fuzzes as if alone. *)

val interval : t -> int
(** The configured sync interval in executions (clamped to ≥ 1). *)

type staged
(** One shard's contribution to a round, ready for {!release}. *)

val stage :
  ?gram:Coverage.Bitmap.t ->
  ?crashes_delta:int ->
  t ->
  shard:int ->
  virgin:Coverage.Bitmap.t ->
  triage:Triage.t ->
  execs_delta:int ->
  export:export ->
  staged
(** Prepare shard [shard]'s publish without touching [t]: reads the
    shard's unique crashes and logic findings from [triage] and derives
    the {!key}s of [export] (dropped when the exchange is off).
    [execs_delta] and [crashes_delta] are the executions and {e total}
    (not unique) crashes since the shard's last round. [virgin] and [gram] (the shard's grammar virgin map, under
    grammar feedback) are kept by reference and read at {!release}, so
    the shard must not change them before the release. *)

val release : t -> staged array -> unit
(** Fold a round's staged publishes into [t] in array order, which the
    campaign makes shard-id order (so first-finder attribution is
    deterministic): add the running totals ({!execs_seen},
    {!total_crashes}, {!rounds}), union the
    virgin and grammar maps into the global ones, record the findings in
    the campaign's {!Triage.t} and deduplicate the exports into the
    canonical store by {!key}. Re-publishing the same state is
    idempotent: no new branches, no duplicate crashes. *)

val pull :
  ?gram:Coverage.Bitmap.t ->
  t ->
  shard:int ->
  virgin:Coverage.Bitmap.t ->
  entry list
(** With the exchange on: absorb the global virgin map (and, given
    [gram], the global grammar map) into the shard's own, and return the
    store entries this shard has not imported yet, excluding its own, in
    canonical order — apply them through the fuzzer's {!port}. With it
    off: [[]], and [virgin] is left alone. Nothing changes the global
    state between releases, so pulls of distinct shards may run at once;
    [shard] must have taken part in a release. *)

val seed_port : Seed_pool.t -> port
(** Seed-only exchange over a plain seed pool: export drains seeds
    admitted since the previous export, import folds foreign seeds into
    the pool (affinity/skeleton entries are ignored). The capability the
    four baselines carry. *)

val branches : t -> int
(** Branches of the merged global virgin map — the aggregate Figure 9
    metric across shards. *)

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

(** {2 Cross-shard findings}

    Reads of the campaign's {!Triage.t}: first-published order, each
    finding with the test case of the shard that found it first. *)

val unique_crashes :
  t -> (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list

val unique_count : t -> int

val unique_logic :
  t -> (Oracle.Violation.t * Sqlcore.Ast.testcase option) list

val bug_ids : t -> string list
