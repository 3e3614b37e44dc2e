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

(* One shard between rounds: its fuzzer and everything it keeps across
   rounds. Only the shard's own jobs touch a lane. Every published
   quantity is a delta against the last round, so the global
   accumulators (exec counts, crash totals, metric registry) never
   double-count; the first metric delta is against an empty registry
   and carries the initial-corpus executions of fuzzer construction. *)
type lane = {
  ln_id : int;
  ln_fz : Driver.fuzzer;
  ln_port : Sync.port option;  (* the fuzzer's port when exchanging *)
  ln_series : string;  (* of the shard's checkpoint events *)
  mutable ln_execs : int;  (* published so far *)
  mutable ln_crashes : int;  (* published so far *)
  mutable ln_iterations : int;
  mutable ln_worked : int;  (* rounds in which the shard fuzzed *)
  mutable ln_drained : Sync.export list;  (* exports taken, newest first *)
  mutable ln_events : Telemetry.Event.t list;  (* newest first *)
}

let open_lane ~exchange ~make ~series i =
  let fz : Driver.fuzzer = make i in
  { ln_id = i; ln_fz = fz;
    (* Exports drain the fuzzer's discovery cursors, so they are taken
       only when something crosses. *)
    ln_port = (if exchange then fz.Driver.f_exchange else None);
    ln_series = series; ln_execs = 0; ln_crashes = 0;
    ln_iterations = 0; ln_worked = 0; ln_drained = []; ln_events = [] }

(* The first half of a round's job: fuzz up to [target] and stage the
   shard's publish. *)
let fuzz_and_stage ~sync ln ~target =
  let fz = ln.ln_fz in
  let h = fz.Driver.f_harness in
  if Harness.execs h < target then begin
    let snap = Driver.run_until_execs fz ~execs:target in
    ln.ln_worked <- ln.ln_worked + 1;
    ln.ln_iterations <- ln.ln_iterations + snap.Driver.st_iteration
  end;
  let execs = Harness.execs h in
  let execs_delta = execs - ln.ln_execs in
  ln.ln_execs <- execs;
  let crashes = Triage.total_crashes (Harness.triage h) in
  let crashes_delta = crashes - ln.ln_crashes in
  ln.ln_crashes <- crashes;
  let export =
    match ln.ln_port with
    | Some p ->
      let x = p.Sync.p_export () in
      ln.ln_drained <- x :: ln.ln_drained;
      x
    | None -> Sync.empty_export
  in
  Sync.stage ?gram:(Harness.grammar_virgin h) ~crashes_delta sync
    ~shard:ln.ln_id ~virgin:(Harness.virgin h) ~triage:(Harness.triage h)
    ~execs_delta ~export

(* The rest of a round, run at the start of the shard's next job (or,
   after the last round, on the calling domain): pull the released round
   and import it, then record the shard's checkpoint for the round. *)
let settle ~sync ~start ln =
  let h = ln.ln_fz.Driver.f_harness in
  let imports =
    Sync.pull ?gram:(Harness.grammar_virgin h) sync ~shard:ln.ln_id
      ~virgin:(Harness.virgin h)
  in
  Option.iter (fun p -> List.iter p.Sync.p_import imports) ln.ln_port;
  ln.ln_events <-
    checkpoint_event ~series:ln.ln_series
      (Driver.checkpoint ~start ln.ln_fz ~iteration:ln.ln_iterations)
    :: ln.ln_events

(* The shard's result. Its fuzzer hands what the rounds drained back to
   its first export after the campaign, so a store capture still sees
   every discovery of the shard. *)
let shard_of_lane ln =
  let fz = ln.ln_fz in
  let replay (p : Sync.port) () =
    let xs = List.rev (p.p_export () :: ln.ln_drained) in
    ln.ln_drained <- [];
    let all f = List.concat_map f xs in
    { Sync.xp_seeds = all (fun x -> x.Sync.xp_seeds);
      xp_affinities = all (fun x -> x.Sync.xp_affinities);
      xp_skeletons = all (fun x -> x.Sync.xp_skeletons) }
  in
  { sh_id = ln.ln_id;
    sh_seed_offset = ln.ln_id * seed_stride;
    sh_snapshot = Driver.snapshot fz ~iteration:ln.ln_iterations;
    sh_fuzzer =
      (match ln.ln_port with
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
    ?(exchange = false) ?(sink = Telemetry.Sink.null)
    ?(series_prefix = "") ~jobs ~execs make =
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
    let sync = Sync.create ?interval:sync_every ~exchange () in
    let start = Telemetry.Span.now_s () in
    (* Spread the total budget over shards; early shards absorb the
       remainder so the sum is exactly [execs]. *)
    let budget_of i = (execs / jobs) + (if i < execs mod jobs then 1 else 0) in
    (* Aggregate checkpointing: after each round's release, one aggregate
       snapshot per [checkpoint_every] published executions, read from
       the released totals. *)
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
    (* Every shard takes part in the same number of rounds, derived from
       the largest shard budget: round r fuzzes up to
       [min budget (r * interval)], and a shard whose budget is spent
       publishes empty deltas. *)
    let iv = Sync.interval sync in
    let rounds_total = max 1 ((budget_of 0 + iv - 1) / iv) in
    let settle = settle ~sync ~start in
    (* A round is one fork-join: each shard's job settles the previous
       round (round 1 builds the shard's fuzzer instead, so all of its
       mutable state is made where it runs), fuzzes and stages; then
       this domain releases the round in shard-id order and reports. A
       failing job fails the round with the lowest failing shard's
       exception. *)
    let lanes = Array.make jobs None in
    for r = 1 to rounds_total do
      let job i () =
        let ln =
          match lanes.(i) with
          | None ->
            open_lane ~exchange ~make
              ~series:(Printf.sprintf "%sshard-%d" series_prefix i) i
          | Some ln -> settle ln; ln
        in
        (ln, fuzz_and_stage ~sync ln ~target:(min (budget_of i) (r * iv)))
      in
      let out = Reprutil.Pool.run ~workers:jobs (Array.init jobs job) in
      Array.iteri (fun i (ln, _) -> lanes.(i) <- Some ln) out;
      Sync.release sync (Array.map snd out);
      report ()
    done;
    let lanes = Array.map Option.get lanes in
    (* The metrics are merged once, here, before the last settle imports
       anything: every shard's registry as of its last publish, in shard
       order. Diffing against an empty registry drops the counters that
       never moved. *)
    let metrics = Telemetry.Registry.create () in
    Array.iter
      (fun ln ->
         Telemetry.Registry.merge ~into:metrics
           (Telemetry.Registry.diff
              (Harness.metrics ln.ln_fz.Driver.f_harness)
              ~since:(Telemetry.Registry.create ())))
      lanes;
    Array.iter settle lanes;
    (* Shards never write the sink: their checkpoint events are emitted
       here shard by shard, aggregate checkpoints last, so the event
       stream is ordered-identical run to run. [on_checkpoint] still
       fires live. *)
    Array.iter
      (fun ln -> List.iter (Telemetry.Sink.emit sink) (List.rev ln.ln_events))
      lanes;
    List.iter (Telemetry.Sink.emit sink) (List.rev !aggregate_events);
    let shards = Array.to_list (Array.map shard_of_lane lanes) in
    let sum f = List.fold_left (fun acc sh -> acc + f sh.sh_snapshot) 0 shards in
    let aggregate =
      snapshot_of_sync sync
        ~iteration:(sum (fun s -> s.Driver.st_iteration))
        ~execs:(sum (fun s -> s.Driver.st_execs))
        ~total_crashes:(sum (fun s -> s.Driver.st_total_crashes))
    in
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
      cg_sync_rounds =
        Array.fold_left (fun acc ln -> acc + ln.ln_worked) 0 lanes;
      cg_metrics = metrics }
  end
