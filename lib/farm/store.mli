(** The versioned on-disk campaign store (DESIGN.md §16).

    A store lives under [runs/<campaign-id>/store/] and holds everything
    needed to resume a campaign: its configuration, progress counters,
    the corpus in {!Fuzz.Sync.xseed} exchange form, the affinity table
    and skeleton library, the edge and grammar virgin maps
    ({!Coverage.Bitmap.compact_cells} form), and the crash /
    logic-violation dedup keys.

    Writes are {e generational}: each {!save} creates a fresh
    [gen-NNNNNN/] directory, writing every section to a temp file first
    and renaming it into place, with a [MANIFEST.json] (schema tag +
    FNV-64 content digests of every section) written {e last}. A torn
    write — killed writer, truncated or bit-flipped file, missing
    manifest — therefore leaves either a detectably-invalid generation
    or a stray [.tmp] file, never a silently corrupt store. {!load}
    scans generations newest-first, validates manifest, digests and
    section syntax, and falls back to the most recent {e good}
    generation, reporting what it skipped. Old generations are pruned on
    save (default: keep 3). *)

type campaign = {
  sc_id : string;        (** filesystem-safe campaign identifier *)
  sc_fuzzer : string;    (** lego, lego-, squirrel, sqlancer, sqlsmith *)
  sc_dialect : string;   (** {!Dialects.Registry.by_name} key *)
  sc_quirks : string list;  (** extra {!Minidb.Profile.with_quirks} quirks *)
  sc_feedback : Fuzz.Harness.feedback;
  sc_oracles : bool;
  sc_exec_cache : int;
  sc_seed : int;
  sc_budget : int;       (** total execution budget across all epochs *)
}

val campaign_to_json : campaign -> Telemetry.Json.t
(** The campaign record as JSON, fields in declaration order ([id]
    first, [budget] last): a farm spec's campaign entry and the head of
    a store's [meta.json]. *)

type progress = {
  pr_execs_done : int;  (** executions already spent against [sc_budget] *)
  pr_epoch : int;       (** completed run segments; resume derives a fresh
                            RNG stream from it so a resumed campaign does
                            not replay the interrupted epoch's decisions *)
}

type render_cache
(** The grow-only sections (corpus, affinities, skeletons) of a snapshot
    as already-rendered bytes with their FNV-64 digests. {!acc_snapshot}
    fills it with views of the accumulator's buffers and {!load} with
    the files it read, so {!save} writes those sections without
    re-rendering, re-digesting or copying them, and {!acc_of_snapshot}
    starts from them (DESIGN.md §16). Each section's cache is used only
    when the snapshot's list is physically the list it was rendered from;
    a [{ sn with sn_seeds = ... }] update or a hand-built snapshot simply
    renders that section from scratch. *)

val no_render_cache : render_cache
(** The cache of a snapshot with nothing cached — what hand-built
    snapshots carry. *)

type snapshot = {
  sn_campaign : campaign;
  sn_progress : progress;
  sn_seeds : Fuzz.Sync.xseed list;  (** discovery order *)
  sn_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) list;
  sn_skeletons : Sqlcore.Ast.stmt list;
  sn_virgin : Coverage.Bitmap.compact;   (** edge virgin map *)
  sn_grammar : Coverage.Bitmap.compact;  (** grammar virgin map (empty when
                                             feedback is [Edges]) *)
  sn_crash_keys : string list;   (** {!Fuzz.Triage.stack_key}s, first-seen
                                     order *)
  sn_logic_keys : string list;   (** {!Oracle.Violation.key}s *)
  sn_rendered : render_cache;
}

val schema : string
(** ["legofuzz-store-v1"] — the manifest schema tag. *)

val section_files : string list
(** The per-generation section file names (everything a manifest must
    digest): meta, corpus, affinities, skeletons, virgin maps, dedup. *)

val manifest_file : string
(** ["MANIFEST.json"]. *)

val store_dir : ?runs_dir:string -> string -> string
(** [store_dir id] = [<runs_dir>/<id>/store] (default runs dir
    {!Telemetry.Sink.runs_dir}). Does not create anything. *)

val generation_dir : dir:string -> int -> string
(** [<dir>/gen-NNNNNN]. *)

val generations : dir:string -> int list
(** Generation numbers present under [dir], ascending. Empty when the
    store directory does not exist. Worker-namespace generations
    ([gen-NNNNNN.wK]) are {e not} listed — they become visible to
    loaders only through {!promote}. *)

(** {2 Worker generation namespaces (DESIGN.md §17)}

    A farm worker process persists its round as [gen-NNNNNN.wK] (K =
    worker slot), a complete generation — sections, manifest, digests —
    that no plain load path can see. The coordinator {!promote}s it
    under the store's exclusive [LOCK]: a rename when the plain number
    is free (the common case; digests carry over unchanged), or a
    snapshot merge into a fresh generation when a twin exists.
    Concurrent writers therefore never contend on a section file. *)

val worker_generation_dir : dir:string -> worker:int -> int -> string
(** [<dir>/gen-NNNNNN.wK]. *)

val worker_generations : dir:string -> (int * int) list
(** Unpromoted [(generation, worker)] pairs under [dir], ascending. *)

val generation_lock_path : dir:string -> int -> string
(** [<dir>/locks/gen-NNNNNN.lck] — the shared read-mark a process holds
    while parsing that generation; {!prune} skips locked generations. *)

val ensure_dir : string -> unit
(** [mkdir -p]. *)

val empty_snapshot : campaign -> snapshot
(** A fresh campaign's snapshot: zero progress, no entries, empty
    maps — the [prior] of a first-epoch capture. *)

val fnv_feed : int64 -> string -> int64
(** [fnv_feed h s] runs the FNV-1a 64-bit state [h] over the bytes of
    [s]: [fnv_feed (fnv_feed h x) y = fnv_feed h (x ^ y)], so a section
    can be digested an entry at a time. *)

val fnv64 : string -> string
(** FNV-1a 64-bit digest as 16 hex chars — the manifest's content
    digest: {!fnv_feed} from the offset basis [0xcbf29ce484222325]. *)

val save : ?keep:int -> ?worker:int -> dir:string -> snapshot -> int
(** Persist a new generation (1 + the newest present, counting
    unpromoted worker generations) and prune all but the last [keep]
    (default 3, clamped to ≥ 1; generations carrying a live read-mark
    are never pruned). Returns the generation number written. Every
    file goes through temp-file + rename; the manifest is renamed into
    place last, making the generation valid atomically. With [worker],
    the generation is written into that worker's namespace
    ([gen-NNNNNN.wK]) and {e nothing is pruned} — only the promoting
    coordinator retires generations. *)

val load : dir:string -> (snapshot * int * string list, string list) result
(** Load the newest valid generation: [Ok (snapshot, generation,
    warnings)] where [warnings] describes newer generations that were
    skipped as corrupt (torn manifest, digest mismatch, missing file,
    unparseable section). [Error warnings] when no valid generation
    exists (or the store directory is missing). Stray [*.tmp] files are
    ignored entirely. *)

val load_marked : dir:string -> (snapshot * int * string list, string list) result
(** {!load}, but each generation is parsed under its shared
    {!generation_lock_path} read-mark — what worker processes use on a
    store the coordinator concurrently prunes, so a lock-aware
    {!prune} in another process cannot delete a generation mid-read. *)

val prune : keep:int -> dir:string -> unit
(** Remove all but the newest [keep] generations (clamped to ≥ 1),
    skipping any whose read-mark ({!generation_lock_path}) is currently
    held by a live process. *)

val manifest_digests : string -> (string * string) list option
(** [(section, fnv64)] pairs from a generation {e directory}'s
    manifest, in {!section_files} order — the cheap identity probe the
    reload short-circuit compares, without parsing any section. [None]
    when the manifest is missing, torn, or lacks a digest. *)

val merge_snapshots : snapshot -> snapshot -> snapshot
(** Union two snapshots of the same campaign: seeds / affinities /
    skeletons deduplicated by {!Fuzz.Sync.key} (first snapshot's entries
    keep their order), virgin and grammar maps bitmap-merged, dedup keys
    unioned through a {!Fuzz.Triage.preload} of both (first snapshot's
    keys stay a prefix), progress counters taken pointwise-max. Campaign
    config comes from the first snapshot. *)

val promote : dir:string -> worker:int -> int -> (int, string) result
(** Promote a worker generation into the plain namespace, under the
    store's exclusive [LOCK]: renames [gen-NNNNNN.wK] to [gen-NNNNNN]
    when that number is still free (digests unchanged), or
    {!merge_snapshots} both twins into a fresh generation when a plain
    one landed first. Prunes (lock-aware, to {!save}'s default [keep])
    on the way out. Returns the resulting plain generation number. *)

val discard_worker_generations : dir:string -> worker:int -> unit
(** Remove every unpromoted generation of one worker slot — coordinator
    hygiene after killing or losing that worker, so half-written
    namespaces never accumulate. *)

val load_generation : dir:string -> int -> (snapshot, string) result
(** Load and validate one plain generation, whatever newer ones hold;
    [Error] names the first problem found. *)

val snapshot_equal : snapshot -> snapshot -> bool
(** Structural equality on the serialised form, both sides rendered
    from their entries (render caches ignored) — what the round-trip
    property battery checks. *)

(** {2 Discovery accumulation}

    Both the farm scheduler and [resume] fold a campaign's exchange-port
    exports into the store; [acc] is that accumulator, deduplicating by
    {!Fuzz.Sync.key} (seed cov-hash, affinity pair, printed skeleton
    SQL) so re-exported entries never bloat the store. A skeleton's key
    is its printed SQL, which is also its stored line, so each add
    prints a skeleton at most once. *)

val discoveries : snapshot -> Fuzz.Sync.export
(** The snapshot's corpus, affinities and skeletons as one export, in
    stored order — what {!acc_of_snapshot} folds in. *)

type acc

val acc_create : unit -> acc

val acc_of_snapshot : snapshot -> acc
(** Seed the accumulator with a snapshot's entries (resume, worker
    reload, promotion merge), so only genuinely new discoveries append.
    A section whose render cache is valid and holds no entry twice is
    taken as it is rather than rendered again. *)

val acc_add_export : acc -> Fuzz.Sync.export -> unit

val acc_snapshot :
  acc ->
  campaign:campaign ->
  progress:progress ->
  virgin:Coverage.Bitmap.compact ->
  grammar:Coverage.Bitmap.compact ->
  crash_keys:string list ->
  logic_keys:string list ->
  snapshot
