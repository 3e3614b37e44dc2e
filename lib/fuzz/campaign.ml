type shard = {
  sh_id : int;
  sh_seed_offset : int;
  sh_snapshot : Driver.snapshot;
  sh_fuzzer : Driver.fuzzer;
}

type result = {
  cg_snapshot : Driver.snapshot;
  cg_shards : shard list;
  cg_crashes : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
  cg_logic : (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
  cg_sync_rounds : int;
  cg_metrics : Telemetry.Registry.t;
}

(* A large prime stride keeps shard RNG streams far apart while staying
   reproducible from the single campaign seed. *)
let seed_stride = 1_000_003

let shard_seed ~seed ~shard_id = seed + (shard_id * seed_stride)

let snapshot_of_sync sync ~iteration ~execs ~total_crashes =
  { Driver.st_iteration = iteration;
    st_execs = execs;
    st_branches = Sync.branches sync;
    st_total_crashes = total_crashes;
    st_unique_crashes = Sync.unique_count sync;
    st_bugs = Sync.bug_ids sync }

let point_of ~series (s : Driver.snapshot) =
  { Telemetry.Event.p_series = series;
    p_iteration = s.Driver.st_iteration;
    p_execs = s.st_execs;
    p_branches = s.st_branches;
    p_crashes_total = s.st_total_crashes;
    p_crashes_unique = s.st_unique_crashes;
    p_bugs = s.st_bugs }

let checkpoint_event ~series (cp : Driver.checkpoint) =
  Telemetry.Event.Checkpoint
    { point = point_of ~series cp.Driver.cp_snapshot;
      wall_s = Some cp.cp_annot.Driver.an_wall_s;
      execs_per_sec = Some cp.cp_annot.an_execs_per_sec }

(* Per-shard round bookkeeping: every published quantity is a delta
   against the last round, so the global accumulators (exec counts,
   crash totals, metric registry) never double-count. The first metric
   delta is against an empty registry: it carries the initial-corpus
   executions performed during fuzzer construction. *)
type deltas = {
  mutable dl_execs : int;
  mutable dl_crashes : int;
  mutable dl_metrics : Telemetry.Registry.t;
}

let deltas_create () =
  { dl_execs = 0; dl_crashes = 0;
    dl_metrics = Telemetry.Registry.create () }

let deltas_take dl (fz : Driver.fuzzer) =
  let execs = Harness.execs fz.Driver.f_harness in
  let execs_delta = execs - dl.dl_execs in
  dl.dl_execs <- execs;
  let total = Triage.total_crashes (Harness.triage fz.Driver.f_harness) in
  let crashes_delta = total - dl.dl_crashes in
  dl.dl_crashes <- total;
  let m = Harness.metrics fz.Driver.f_harness in
  let mdelta = Telemetry.Registry.diff m ~since:dl.dl_metrics in
  dl.dl_metrics <- Telemetry.Registry.snapshot m;
  (execs_delta, crashes_delta, mdelta)

(* One shard's campaign: a fixed number of barriered rounds, identical
   for every shard (the barrier needs all parties each round; a shard
   whose budget is exhausted keeps joining with empty deltas). Round r
   fuzzes up to [min budget (r * interval)]; [report] runs after each,
   and [worked] counts the rounds in which the shard fuzzed. *)
let run_shard ~sync ~exchange ~make ~budget ~rounds_total ~report ~emit
    ~series ~start ~worked shard_id =
  let fz : Driver.fuzzer = make shard_id in
  let h = fz.Driver.f_harness in
  let iterations = ref 0 in
  let dl = deltas_create () in
  let interval = Sync.interval sync in
  (* Exports drain the fuzzer's discovery cursors, so they are taken only
     when something crosses, and the returned fuzzer hands what the
     rounds drained back to its first export after the campaign: a store
     capture still sees every discovery of the shard. *)
  let port =
    if Sync.exchange_active exchange then fz.Driver.f_exchange else None
  in
  let drained = ref [] in
  for r = 1 to rounds_total do
    let target = min budget (r * interval) in
    if Harness.execs h < target then begin
      let snap = Driver.run_until_execs fz ~execs:target in
      Atomic.incr worked;
      iterations := !iterations + snap.Driver.st_iteration
    end;
    let execs_delta, crashes_delta, mdelta = deltas_take dl fz in
    let export =
      match port with
      | Some p ->
        let x = p.Sync.p_export () in
        drained := x :: !drained;
        x
      | None -> Sync.empty_export
    in
    let imports =
      Sync.exchange_round ~metrics:mdelta ?gram:(Harness.grammar_virgin h)
        ~crashes_delta sync ~shard:shard_id ~virgin:(Harness.virgin h)
        ~triage:(Harness.triage h) ~execs_delta ~export
    in
    Option.iter (fun p -> List.iter p.Sync.p_import imports) port;
    emit
      (checkpoint_event ~series
         (Driver.checkpoint ~start fz ~iteration:!iterations));
    report ()
  done;
  let replay (p : Sync.port) () =
    let xs = List.rev (p.p_export () :: !drained) in
    drained := [];
    let all f = List.concat_map f xs in
    { Sync.xp_seeds = all (fun x -> x.Sync.xp_seeds);
      xp_affinities = all (fun x -> x.Sync.xp_affinities);
      xp_skeletons = all (fun x -> x.Sync.xp_skeletons) }
  in
  { sh_id = shard_id;
    sh_seed_offset = shard_id * seed_stride;
    sh_snapshot = Driver.snapshot fz ~iteration:!iterations;
    sh_fuzzer =
      (match port with
       | None -> fz
       | Some p ->
         { fz with f_exchange = Some { p with p_export = replay p } }) }

let sequential ?checkpoint_every ?(on_checkpoint = fun _ -> ()) ~sink
    ~series_prefix ~execs make =
  let fz : Driver.fuzzer = make 0 in
  let series = series_prefix ^ "aggregate" in
  let snap =
    Driver.run_until_execs ?checkpoint_every
      ~on_checkpoint:(fun cp ->
          on_checkpoint cp;
          Telemetry.Sink.emit sink (checkpoint_event ~series cp))
      fz ~execs
  in
  let tri = Harness.triage fz.Driver.f_harness in
  { cg_snapshot = snap;
    cg_shards =
      [ { sh_id = 0; sh_seed_offset = 0; sh_snapshot = snap; sh_fuzzer = fz } ];
    cg_crashes = Triage.unique_with_cases tri;
    cg_logic = Triage.unique_logic tri;
    cg_sync_rounds = 0;
    (* a snapshot, like the sharded path returns: the caller gets the
       campaign's metrics as of completion, not a live registry that
       keeps mutating if the fuzzer is driven further *)
    cg_metrics =
      Telemetry.Registry.snapshot (Harness.metrics fz.Driver.f_harness) }

let run ?(checkpoint_every = 0) ?(on_checkpoint = fun _ -> ()) ?sync_every
    ?(exchange = Sync.exchange_off) ?(sink = Telemetry.Sink.null)
    ?(series_prefix = "") ?(prime_sync = fun _ -> ()) ~jobs ~execs make =
  let jobs = max 1 jobs in
  if jobs = 1 then
    (* Bit-for-bit the pre-sharding sequential path: one fuzzer, one
       driver loop, no sync machinery in the way. With one shard there is
       no foreign party to exchange with, so [exchange] is irrelevant
       here by construction — the sequential path keeps single-job
       campaigns byte-identical whatever the flags say. *)
    sequential ~checkpoint_every ~on_checkpoint ~sink ~series_prefix ~execs
      make
  else begin
    let sync = Sync.create ?interval:sync_every ~exchange ~parties:jobs () in
    prime_sync sync;
    let start = Telemetry.Span.now_s () in
    (* Spread the total budget over shards; early shards absorb the
       remainder so the sum is exactly [execs]. *)
    let budget_of i = (execs / jobs) + (if i < execs mod jobs then 1 else 0) in
    (* Aggregate checkpointing: after each round, shard 0 reads the
       totals the round's release froze and emits one aggregate snapshot
       per [checkpoint_every] published executions. Every other shard is
       parked at the next barrier or still fuzzing privately, so the
       reading is the same whatever the domain scheduling. *)
    let last_cp = ref 0 in
    let aggregate_events = ref [] in
    let report () =
      let seen = Sync.execs_seen sync in
      if checkpoint_every > 0 && seen - !last_cp >= checkpoint_every
         && seen < execs
      then begin
        last_cp := seen;
        let snap =
          snapshot_of_sync sync ~iteration:(Sync.rounds sync) ~execs:seen
            ~total_crashes:(Sync.total_crashes sync)
        in
        let wall = Telemetry.Span.now_s () -. start in
        let cp =
          { Driver.cp_snapshot = snap;
            cp_annot =
              { Driver.an_wall_s = wall;
                an_execs_per_sec =
                  (if wall > 0.0 then float_of_int seen /. wall else 0.0) } }
        in
        on_checkpoint cp;
        aggregate_events :=
          checkpoint_event ~series:(series_prefix ^ "aggregate") cp
          :: !aggregate_events
      end
    in
    (* Every shard runs the same fixed number of barriered rounds,
       derived from the largest shard budget. *)
    let rounds_total =
      let iv = Sync.interval sync in
      max 1 ((budget_of 0 + iv - 1) / iv)
    in
    (* The campaign's sync rounds: shard rounds that carried fuzzing, not
       the empty arrivals of a shard whose budget is spent. *)
    let worked = Atomic.make 0 in
    (* Shards on other domains never write the sink directly: each keeps
       its checkpoint events, and after the join they are emitted shard
       by shard, aggregate checkpoints last, so the event stream is
       ordered-identical run to run. [on_checkpoint] still fires live.
       A dying shard (Driver.Stalled, a harness bug …) must not leave the
       others blocked at the round barrier: trap the exception, abort
       the sync (waking everyone with Sync.Aborted), join all domains,
       then re-raise the original error rather than a secondary Aborted. *)
    let domains =
      List.init jobs (fun i ->
          Domain.spawn (fun () ->
              let series = Printf.sprintf "%sshard-%d" series_prefix i in
              let events = ref [] in
              let emit ev = events := ev :: !events in
              match
                run_shard ~sync ~exchange ~make ~budget:(budget_of i)
                  ~rounds_total
                  ~report:(if i = 0 then report else ignore)
                  ~emit ~series ~start ~worked i
              with
              | sh -> Ok (sh, List.rev !events)
              | exception e ->
                Sync.abort sync;
                Error e))
    in
    let results = List.map Domain.join domains in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) results
    in
    (match errors with
     | [] -> ()
     | es ->
       let primary =
         match
           List.find_opt (function Sync.Aborted -> false | _ -> true) es
         with
         | Some e -> e
         | None -> List.hd es
       in
       raise primary);
    let shards =
      List.filter_map
        (function
          | Ok (sh, events) ->
            List.iter (Telemetry.Sink.emit sink) events;
            Some sh
          | Error _ -> None)
        results
    in
    List.iter (Telemetry.Sink.emit sink) (List.rev !aggregate_events);
    let sum f = List.fold_left (fun acc sh -> acc + f sh.sh_snapshot) 0 shards in
    let aggregate =
      snapshot_of_sync sync
        ~iteration:(sum (fun s -> s.Driver.st_iteration))
        ~execs:(sum (fun s -> s.Driver.st_execs))
        ~total_crashes:(sum (fun s -> s.Driver.st_total_crashes))
    in
    let metrics = Sync.metrics sync in
    (* Per-shard grammar gauges max-merge to the largest single shard;
       the campaign-level truth is the cross-shard union, so overwrite
       from the merged global grammar map. No-op (and no gauge creation)
       when no shard ran grammar feedback. *)
    let g_rules, g_pairs = Sync.grammar_counts sync in
    if g_rules > 0 || g_pairs > 0 then begin
      Telemetry.Registry.set_max
        (Telemetry.Registry.gauge metrics "grammar.rules") g_rules;
      Telemetry.Registry.set_max
        (Telemetry.Registry.gauge metrics "grammar.pairs") g_pairs
    end;
    { cg_snapshot = aggregate;
      cg_shards = shards;
      cg_crashes = Sync.unique_crashes sync;
      cg_logic = Sync.unique_logic sync;
      cg_sync_rounds = Atomic.get worked;
      cg_metrics = metrics }
  end
