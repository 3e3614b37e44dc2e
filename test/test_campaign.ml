(* Tests for the campaign engine: cross-shard sync semantics and the
   jobs=1 determinism guarantee. *)

let profile = Dialects.Registry.mariadb_sim

let fake_bug id =
  { Minidb.Fault.bug_id = id;
    identifier = "TEST-" ^ id;
    component = "test";
    kind = Minidb.Fault.Segv;
    cond = Minidb.Fault.State "never" }

let fake_crash id =
  let bug = fake_bug id in
  { Minidb.Fault.c_bug = bug; c_stack = Minidb.Fault.stack_of_bug bug }

(* One single-party round: it releases as soon as it arrives, so its
   effects are visible when the call returns. *)
let publish ?gram ?crashes_delta sync ~virgin ~triage ~execs_delta =
  ignore
    (Fuzz.Sync.exchange_round ?gram ?crashes_delta sync ~shard:0 ~virgin
       ~triage ~execs_delta ~export:Fuzz.Sync.empty_export)

let test_sync_dedupes_across_shards () =
  (* Two shards independently find the same crash signature: the sync
     layer must count it once, keeping the first finder's reproducer. *)
  let sync = Fuzz.Sync.create ~parties:1 () in
  let tri_a = Fuzz.Triage.create () and tri_b = Fuzz.Triage.create () in
  ignore (Fuzz.Triage.record tri_a (fake_crash "B1"));
  ignore (Fuzz.Triage.record tri_b (fake_crash "B1"));
  ignore (Fuzz.Triage.record tri_b (fake_crash "B2"));
  let virgin_a = Coverage.Bitmap.create ()
  and virgin_b = Coverage.Bitmap.create () in
  publish sync ~virgin:virgin_a ~triage:tri_a ~execs_delta:10;
  publish sync ~virgin:virgin_b ~triage:tri_b ~execs_delta:10;
  Alcotest.(check int) "identical signatures deduped" 2
    (Fuzz.Sync.unique_count sync);
  Alcotest.(check (list string)) "bug ids unioned" [ "B1"; "B2" ]
    (Fuzz.Sync.bug_ids sync);
  (* republishing a shard is idempotent *)
  publish sync ~virgin:virgin_b ~triage:tri_b ~execs_delta:0;
  Alcotest.(check int) "republish adds nothing" 2
    (Fuzz.Sync.unique_count sync);
  Alcotest.(check int) "execs accumulate" 20 (Fuzz.Sync.execs_seen sync);
  Alcotest.(check int) "rounds counted" 3 (Fuzz.Sync.rounds sync)

let test_sync_merges_coverage () =
  let sync = Fuzz.Sync.create ~parties:1 () in
  let exec = Coverage.Bitmap.create () in
  Coverage.Bitmap.hit exec 17;
  let virgin = Coverage.Bitmap.create () in
  ignore (Coverage.Bitmap.merge_into ~virgin exec);
  let tri = Fuzz.Triage.create () in
  let before = Fuzz.Sync.branches sync in
  publish sync ~virgin ~triage:tri ~execs_delta:1;
  Alcotest.(check int) "first publish is news" 1
    (Fuzz.Sync.branches sync - before);
  Alcotest.(check int) "global branches" 1 (Fuzz.Sync.branches sync);
  publish sync ~virgin ~triage:tri ~execs_delta:0;
  Alcotest.(check int) "re-publish is no news" 1 (Fuzz.Sync.branches sync)

let budget = 1500

let lego_factory ~seed shard_id =
  let config =
    { Lego.Lego_fuzzer.default_config with
      seed = Fuzz.Campaign.shard_seed ~seed ~shard_id }
  in
  Lego.Lego_fuzzer.fuzzer (Lego.Lego_fuzzer.create ~config profile)

let test_jobs1_matches_sequential_driver () =
  (* The determinism guarantee: a 1-job campaign is byte-identical to the
     plain sequential driver loop on an identically-seeded fuzzer. *)
  let sequential =
    Fuzz.Driver.run_until_execs (lego_factory ~seed:42 0) ~execs:budget
  in
  let res =
    Fuzz.Campaign.run ~jobs:1 ~execs:budget (lego_factory ~seed:42)
  in
  Alcotest.(check bool) "snapshots identical" true
    (sequential = res.Fuzz.Campaign.cg_snapshot);
  Alcotest.(check int) "single shard" 1
    (List.length res.Fuzz.Campaign.cg_shards);
  Alcotest.(check int) "no sync rounds" 0 res.Fuzz.Campaign.cg_sync_rounds

let test_shard_seed_distinct () =
  let seeds =
    List.init 8 (fun i -> Fuzz.Campaign.shard_seed ~seed:1 ~shard_id:i)
  in
  Alcotest.(check int) "shard 0 keeps the campaign seed" 1 (List.hd seeds);
  Alcotest.(check int) "all distinct" 8
    (List.length (List.sort_uniq compare seeds))

let test_sharded_campaign_aggregates () =
  let res =
    Fuzz.Campaign.run ~jobs:4 ~sync_every:200 ~execs:2000
      (lego_factory ~seed:7)
  in
  let agg = res.Fuzz.Campaign.cg_snapshot in
  Alcotest.(check int) "four shards" 4
    (List.length res.Fuzz.Campaign.cg_shards);
  Alcotest.(check bool) "budget spent" true (agg.Fuzz.Driver.st_execs >= 2000);
  Alcotest.(check bool) "synced at least once per shard" true
    (res.Fuzz.Campaign.cg_sync_rounds >= 4);
  List.iter
    (fun (sh : Fuzz.Campaign.shard) ->
       Alcotest.(check bool)
         (Printf.sprintf "aggregate >= shard %d branches" sh.sh_id)
         true
         (agg.Fuzz.Driver.st_branches
          >= sh.sh_snapshot.Fuzz.Driver.st_branches);
       Alcotest.(check bool)
         (Printf.sprintf "aggregate >= shard %d uniques" sh.sh_id)
         true
         (agg.Fuzz.Driver.st_unique_crashes
          >= sh.sh_snapshot.Fuzz.Driver.st_unique_crashes))
    res.Fuzz.Campaign.cg_shards;
  let summed =
    List.fold_left
      (fun acc (sh : Fuzz.Campaign.shard) ->
         acc + sh.sh_snapshot.Fuzz.Driver.st_execs)
      0 res.Fuzz.Campaign.cg_shards
  in
  Alcotest.(check int) "aggregate execs = sum of shards" summed
    agg.Fuzz.Driver.st_execs;
  (* crash totals survive aggregation *)
  Alcotest.(check bool) "unique <= total" true
    (agg.Fuzz.Driver.st_unique_crashes <= agg.Fuzz.Driver.st_total_crashes)

let test_sync_crash_totals () =
  (* Satellite fix: published crash deltas must accumulate into the
     aggregate total instead of being dropped. *)
  let sync = Fuzz.Sync.create ~parties:1 () in
  let virgin = Coverage.Bitmap.create () in
  let tri = Fuzz.Triage.create () in
  publish ~crashes_delta:3 sync ~virgin ~triage:tri ~execs_delta:5;
  publish ~crashes_delta:2 sync ~virgin ~triage:tri ~execs_delta:5;
  Alcotest.(check int) "crash deltas accumulate" 5
    (Fuzz.Sync.total_crashes sync);
  publish sync ~virgin ~triage:tri ~execs_delta:0;
  Alcotest.(check int) "default delta is zero" 5
    (Fuzz.Sync.total_crashes sync)

let test_checkpoint_crash_totals () =
  (* Aggregate checkpoints used to hard-code total_crashes = 0; they must
     now report the published running total: nondecreasing over time and
     never above the final aggregate. *)
  let totals = ref [] in
  let res =
    Fuzz.Campaign.run ~jobs:2 ~sync_every:200 ~checkpoint_every:400
      ~on_checkpoint:(fun cp ->
          totals :=
            cp.Fuzz.Driver.cp_snapshot.Fuzz.Driver.st_total_crashes
            :: !totals)
      ~execs:2000 (lego_factory ~seed:3)
  in
  let seq = List.rev !totals in
  Alcotest.(check bool) "checkpoints fired" true (seq <> []);
  ignore
    (List.fold_left
       (fun prev v ->
          Alcotest.(check bool) "nondecreasing" true (v >= prev);
          v)
       0 seq);
  let final =
    res.Fuzz.Campaign.cg_snapshot.Fuzz.Driver.st_total_crashes
  in
  List.iter
    (fun v -> Alcotest.(check bool) "bounded by final total" true (v <= final))
    seq

(* --- grammar-coverage feedback --------------------------------------- *)

let lego_factory_fb ~feedback ~seed shard_id =
  let config =
    { Lego.Lego_fuzzer.default_config with
      seed = Fuzz.Campaign.shard_seed ~seed ~shard_id }
  in
  let harness = Fuzz.Harness.create ~profile ~feedback () in
  Lego.Lego_fuzzer.fuzzer (Lego.Lego_fuzzer.create ~config ~harness profile)

let test_sync_grammar_union () =
  let sync = Fuzz.Sync.create ~parties:1 () in
  let virgin = Coverage.Bitmap.create () in
  let tri = Fuzz.Triage.create () in
  Alcotest.(check (pair int int)) "empty before any publish" (0, 0)
    (Fuzz.Sync.grammar_counts sync);
  let g1 = Coverage.Bitmap.create () in
  Coverage.Grammar.record g1 ~site:1 ~parent:0;
  publish ~gram:g1 sync ~virgin ~triage:tri ~execs_delta:1;
  Alcotest.(check (pair int int)) "first shard's rules and pairs" (1, 1)
    (Fuzz.Sync.grammar_counts sync);
  let g2 = Coverage.Bitmap.create () in
  Coverage.Grammar.record g2 ~site:1 ~parent:0;
  Coverage.Grammar.record g2 ~site:2 ~parent:1;
  publish ~gram:g2 sync ~virgin ~triage:tri ~execs_delta:1;
  Alcotest.(check (pair int int)) "union across shards" (2, 2)
    (Fuzz.Sync.grammar_counts sync);
  publish ~gram:g1 sync ~virgin ~triage:tri ~execs_delta:0;
  Alcotest.(check (pair int int)) "re-publish is idempotent" (2, 2)
    (Fuzz.Sync.grammar_counts sync)

let test_feedback_edges_identity () =
  (* --feedback edges must be byte-identical to a fuzzer-built default
     harness: same outcomes, same snapshots, at one shard and at four. *)
  List.iter
    (fun jobs ->
       let base =
         Fuzz.Campaign.run ~jobs ~sync_every:300 ~execs:1200
           (lego_factory ~seed:5)
       in
       let edges =
         Fuzz.Campaign.run ~jobs ~sync_every:300 ~execs:1200
           (lego_factory_fb ~feedback:Fuzz.Harness.Edges ~seed:5)
       in
       Alcotest.(check bool)
         (Printf.sprintf "jobs=%d: snapshots identical" jobs)
         true
         (base.Fuzz.Campaign.cg_snapshot = edges.Fuzz.Campaign.cg_snapshot);
       Alcotest.(check int)
         (Printf.sprintf "jobs=%d: no grammar gauges in edges mode" jobs)
         0
         (Telemetry.Registry.gauge_value edges.Fuzz.Campaign.cg_metrics
            "grammar.rules"))
    [ 1; 4 ]

let test_feedback_both_sharded_campaign () =
  let res =
    Fuzz.Campaign.run ~jobs:4 ~sync_every:300 ~execs:2000
      (lego_factory_fb ~feedback:Fuzz.Harness.Both ~seed:7)
  in
  let agg name =
    Telemetry.Registry.gauge_value res.Fuzz.Campaign.cg_metrics name
  in
  Alcotest.(check bool) "rules fired" true (agg "grammar.rules" > 0);
  Alcotest.(check bool) "pairs fired" true (agg "grammar.pairs" > 0);
  Alcotest.(check int) "no parse errors on printed testcases" 0
    (Telemetry.Registry.counter_value res.Fuzz.Campaign.cg_metrics
       "grammar.parse_errors");
  (* the aggregate gauge is the cross-shard union: at least every
     shard's own count *)
  List.iter
    (fun (sh : Fuzz.Campaign.shard) ->
       let m = Fuzz.Harness.metrics sh.sh_fuzzer.Fuzz.Driver.f_harness in
       Alcotest.(check bool)
         (Printf.sprintf "aggregate rules >= shard %d" sh.sh_id)
         true
         (agg "grammar.rules"
          >= Telemetry.Registry.gauge_value m "grammar.rules");
       Alcotest.(check bool)
         (Printf.sprintf "aggregate pairs >= shard %d" sh.sh_id)
         true
         (agg "grammar.pairs"
          >= Telemetry.Registry.gauge_value m "grammar.pairs"))
    res.Fuzz.Campaign.cg_shards

let test_driver_stall_aborts () =
  (* A fuzzer whose steps perform no executions used to livelock
     run_until_execs; it must now abort with Driver.Stalled. *)
  let harness = Fuzz.Harness.create ~profile () in
  let noop =
    { Fuzz.Driver.f_name = "noop";
      f_step = (fun () -> ());
      f_harness = harness;
      f_corpus = (fun () -> []);
      f_exchange = None }
  in
  let raised =
    match Fuzz.Driver.run_until_execs ~max_stall:10 noop ~execs:50 with
    | _ -> false
    | exception Fuzz.Driver.Stalled _ -> true
  in
  Alcotest.(check bool) "stalled fuzzer aborts" true raised;
  (* a fuzzer that keeps executing never trips the stall guard *)
  let tc = List.hd (Fuzz.Corpus.initial profile) in
  let live =
    { noop with
      Fuzz.Driver.f_name = "live";
      f_step = (fun () -> ignore (Fuzz.Harness.execute harness tc)) }
  in
  let snap = Fuzz.Driver.run_until_execs ~max_stall:10 live ~execs:50 in
  Alcotest.(check bool) "live fuzzer completes" true
    (snap.Fuzz.Driver.st_execs >= 50)

(* --- bidirectional exchange ------------------------------------------ *)

let xseed h =
  { Fuzz.Sync.xs_tc = []; xs_cov_hash = h; xs_new_branches = 1; xs_cost = 1 }

let seed_hashes entries =
  List.filter_map
    (function Fuzz.Sync.Seed s -> Some s.Fuzz.Sync.xs_cov_hash | _ -> None)
    entries

let test_exchange_store_dedup () =
  (* Two shards meet at the barrier with overlapping exports: the store
     must keep one copy of each entry (lowest shard id wins the tie) and
     hand each shard exactly the foreign entries, exactly once. *)
  let sync =
    Fuzz.Sync.create ~exchange:Fuzz.Sync.exchange_all ~parties:2 ()
  in
  let aff = (Sqlcore.Stmt_type.Create_table, Sqlcore.Stmt_type.Insert) in
  let export0 =
    { Fuzz.Sync.xp_seeds = [ xseed 1L; xseed 2L ];
      xp_affinities = [ aff ];
      xp_skeletons = [] }
  in
  let export1 =
    { Fuzz.Sync.xp_seeds = [ xseed 2L; xseed 3L ];
      xp_affinities = [ aff ];
      xp_skeletons = [] }
  in
  let round shard export =
    Domain.spawn (fun () ->
        Fuzz.Sync.exchange_round sync ~shard
          ~virgin:(Coverage.Bitmap.create ())
          ~triage:(Fuzz.Triage.create ()) ~execs_delta:0 ~export)
  in
  let d0 = round 0 export0 and d1 = round 1 export1 in
  let i0 = Domain.join d0 and i1 = Domain.join d1 in
  (* canonical store: shard 0's seeds 1,2 + affinity, shard 1's seed 3 *)
  Alcotest.(check int) "store deduplicated" 4 (Fuzz.Sync.exchanged sync);
  Alcotest.(check (list int64)) "shard 0 imports shard 1's fresh seed"
    [ 3L ] (seed_hashes i0);
  Alcotest.(check (list int64)) "shard 1 imports shard 0's seeds" [ 1L; 2L ]
    (seed_hashes i1);
  Alcotest.(check int) "shard 1 sees the affinity once" 1
    (List.length
       (List.filter
          (function Fuzz.Sync.Affinity _ -> true | _ -> false)
          i1));
  Alcotest.(check int) "shard 0's own affinity not echoed back" 0
    (List.length
       (List.filter
          (function Fuzz.Sync.Affinity _ -> true | _ -> false)
          i0));
  (* round 2: re-exporting already-known entries imports nothing new *)
  let d0 = round 0 export0 and d1 = round 1 export1 in
  let i0 = Domain.join d0 and i1 = Domain.join d1 in
  Alcotest.(check int) "round 2 store unchanged" 4
    (Fuzz.Sync.exchanged sync);
  Alcotest.(check int) "round 2 empty for shard 0" 0 (List.length i0);
  Alcotest.(check int) "round 2 empty for shard 1" 0 (List.length i1)

let test_exchange_pulls_virgin () =
  (* The bidirectional part: a shard's own virgin map must absorb the
     round-frozen global map, so globally-known branches stop being new. *)
  let sync =
    Fuzz.Sync.create ~exchange:Fuzz.Sync.exchange_all ~parties:2 ()
  in
  let virgin_of site =
    let exec = Coverage.Bitmap.create () in
    Coverage.Bitmap.hit exec site;
    let virgin = Coverage.Bitmap.create () in
    ignore (Coverage.Bitmap.merge_into ~virgin exec);
    virgin
  in
  let va = virgin_of 17 and vb = virgin_of 23 in
  let round shard virgin =
    Domain.spawn (fun () ->
        ignore
          (Fuzz.Sync.exchange_round sync ~shard ~virgin
             ~triage:(Fuzz.Triage.create ()) ~execs_delta:0
             ~export:Fuzz.Sync.empty_export))
  in
  let d0 = round 0 va and d1 = round 1 vb in
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check int) "global map is the union" 2 (Fuzz.Sync.branches sync);
  Alcotest.(check int) "shard 0 pulled shard 1's branch" 2
    (Coverage.Bitmap.count_nonzero va);
  Alcotest.(check int) "shard 1 pulled shard 0's branch" 2
    (Coverage.Bitmap.count_nonzero vb)

let test_seed_port_no_echo () =
  (* The baseline port: exports drain only locally-admitted seeds;
     imported seeds are pooled but never re-exported. *)
  let pool = Fuzz.Seed_pool.create () in
  let port = Fuzz.Sync.seed_port pool in
  ignore
    (Fuzz.Seed_pool.add pool ~tc:[] ~cov_hash:1L ~new_branches:1 ~cost:1);
  let e1 = (port.Fuzz.Sync.p_export ()).Fuzz.Sync.xp_seeds in
  Alcotest.(check int) "local seed exported" 1 (List.length e1);
  port.Fuzz.Sync.p_import (Fuzz.Sync.Seed (xseed 2L));
  Alcotest.(check int) "import pooled" 2 (Fuzz.Seed_pool.size pool);
  Alcotest.(check int) "imported seed not re-exported" 0
    (List.length (port.Fuzz.Sync.p_export ()).Fuzz.Sync.xp_seeds);
  ignore
    (Fuzz.Seed_pool.add pool ~tc:[] ~cov_hash:3L ~new_branches:1 ~cost:1);
  Alcotest.(check (list int64)) "only the fresh local seed drains" [ 3L ]
    (List.map
       (fun s -> s.Fuzz.Sync.xs_cov_hash)
       (port.Fuzz.Sync.p_export ()).Fuzz.Sync.xp_seeds)

let test_jobs1_exchange_still_sequential () =
  (* Exchange flags must not disturb the single-job byte-identity
     guarantee: one shard has nobody to exchange with. *)
  let sequential =
    Fuzz.Driver.run_until_execs (lego_factory ~seed:42 0) ~execs:budget
  in
  let res =
    Fuzz.Campaign.run ~jobs:1 ~exchange:Fuzz.Sync.exchange_all
      ~execs:budget (lego_factory ~seed:42)
  in
  Alcotest.(check bool) "snapshots identical" true
    (sequential = res.Fuzz.Campaign.cg_snapshot)

let run_exchange_campaign ~exchange ~seed =
  Fuzz.Campaign.run ~jobs:4 ~sync_every:300 ~exchange ~execs:2400
    (lego_factory ~seed)

let test_exchange_campaign_deterministic exchange () =
  (* The whole point of barriered rounds: at jobs=4, with or without the
     exchange, the aggregate checkpoint series, the cross-shard crash
     order and the final snapshot are a pure function of the seed. *)
  let run () =
    let cps = ref [] in
    let res =
      Fuzz.Campaign.run ~jobs:4 ~sync_every:20 ~checkpoint_every:200
        ~on_checkpoint:(fun cp -> cps := cp.Fuzz.Driver.cp_snapshot :: !cps)
        ~exchange ~execs:2400 (lego_factory ~seed:5)
    in
    ( List.rev !cps,
      List.map
        (fun (c, _) -> Fuzz.Triage.stack_key c)
        res.Fuzz.Campaign.cg_crashes,
      res.Fuzz.Campaign.cg_snapshot )
  in
  let cps_a, crashes_a, snap_a = run () in
  let cps_b, crashes_b, snap_b = run () in
  Alcotest.(check bool) "checkpoints fired" true (cps_a <> []);
  Alcotest.(check bool) "checkpoint series identical" true (cps_a = cps_b);
  Alcotest.(check (list string)) "crash order identical" crashes_a crashes_b;
  Alcotest.(check bool) "aggregate snapshots identical" true (snap_a = snap_b)

let test_exchange_beats_publish_only () =
  (* At equal budget, bidirectional exchange must not cover fewer
     aggregate branches than publish-only sync (deterministic per seed,
     so this is a regression pin, not a statistical claim). *)
  let on = run_exchange_campaign ~exchange:Fuzz.Sync.exchange_all ~seed:7 in
  let off = run_exchange_campaign ~exchange:Fuzz.Sync.exchange_off ~seed:7 in
  Alcotest.(check bool) "exchange-on covers at least as many branches" true
    (on.Fuzz.Campaign.cg_snapshot.Fuzz.Driver.st_branches
     >= off.Fuzz.Campaign.cg_snapshot.Fuzz.Driver.st_branches)

let test_sequential_metrics_is_snapshot () =
  (* cg_metrics of a 1-job campaign must be frozen at completion, not a
     live view of the harness registry. *)
  let res = Fuzz.Campaign.run ~jobs:1 ~execs:budget (lego_factory ~seed:9) in
  let before =
    Telemetry.Registry.counter_value res.Fuzz.Campaign.cg_metrics
      "harness.execs"
  in
  Alcotest.(check bool) "counter populated" true (before > 0);
  let fz =
    (List.hd res.Fuzz.Campaign.cg_shards).Fuzz.Campaign.sh_fuzzer
  in
  ignore (Fuzz.Driver.run_until_execs fz ~execs:(budget + 200));
  Alcotest.(check int) "metrics frozen after further fuzzing" before
    (Telemetry.Registry.counter_value res.Fuzz.Campaign.cg_metrics
       "harness.execs")

let suite =
  [ ("sync dedupes crash signatures", `Quick, test_sync_dedupes_across_shards);
    ("sync merges coverage", `Quick, test_sync_merges_coverage);
    ("sync accumulates crash totals", `Quick, test_sync_crash_totals);
    ("checkpoints report crash totals", `Slow, test_checkpoint_crash_totals);
    ("stalled driver aborts", `Quick, test_driver_stall_aborts);
    ("jobs=1 is the sequential driver", `Quick,
     test_jobs1_matches_sequential_driver);
    ("jobs=1 ignores exchange flags", `Quick,
     test_jobs1_exchange_still_sequential);
    ("shard seeds distinct", `Quick, test_shard_seed_distinct);
    ("exchange store dedups deterministically", `Quick,
     test_exchange_store_dedup);
    ("exchange pulls the global virgin map", `Quick,
     test_exchange_pulls_virgin);
    ("seed port never echoes imports", `Quick, test_seed_port_no_echo);
    ("4-shard campaign aggregates", `Slow, test_sharded_campaign_aggregates);
    ("4-shard exchange campaign deterministic", `Slow,
     test_exchange_campaign_deterministic Fuzz.Sync.exchange_all);
    ("4-shard exchange-off campaign deterministic", `Slow,
     test_exchange_campaign_deterministic Fuzz.Sync.exchange_off);
    ("exchange beats publish-only sync", `Slow,
     test_exchange_beats_publish_only);
    ("sequential metrics are a snapshot", `Quick,
     test_sequential_metrics_is_snapshot);
    ("sync unions grammar maps", `Quick, test_sync_grammar_union);
    ("feedback=edges is byte-identical", `Slow,
     test_feedback_edges_identity);
    ("feedback=both 4-shard campaign", `Slow,
     test_feedback_both_sharded_campaign)
  ]
