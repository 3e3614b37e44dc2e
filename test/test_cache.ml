(* Tests for the prefix-snapshot execution cache (DESIGN.md §12):
   eviction policy unit tests on the LRU store, a 1000-case property
   that prime + restore + suffix replay is indistinguishable from a
   cold full replay, the repeat memo against reruns and at its bound,
   and campaign-level byte-identity of cache-on vs cache-off runs. *)

module Cache = Fuzz.Prefix_cache
module Prop = Reprutil.Prop

(* ------------------------------------------------------------------ *)
(* LRU store *)

let test_lru_eviction_order () =
  let c = Cache.create ~cap:3 () in
  ignore (Cache.insert c "a" 1 ~bytes:10);
  ignore (Cache.insert c "b" 2 ~bytes:10);
  ignore (Cache.insert c "c" 3 ~bytes:10);
  (* touch "a": "b" becomes least recently used *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  let evicted = Cache.insert c "d" 4 ~bytes:10 in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c survives" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "at cap" 3 (Cache.length c)

let test_lru_mem_does_not_refresh () =
  let c = Cache.create ~cap:2 () in
  ignore (Cache.insert c "a" 1 ~bytes:1);
  ignore (Cache.insert c "b" 2 ~bytes:1);
  (* [mem] must not touch recency: "a" stays the eviction victim *)
  Alcotest.(check bool) "mem sees a" true (Cache.mem c "a");
  ignore (Cache.insert c "c" 3 ~bytes:1);
  Alcotest.(check (option int)) "a evicted despite mem" None
    (Cache.find c "a");
  Alcotest.(check (option int)) "b survives" (Some 2) (Cache.find c "b")

let test_lru_replace_updates_bytes () =
  let c = Cache.create ~cap:4 () in
  ignore (Cache.insert c "a" 1 ~bytes:100);
  ignore (Cache.insert c "a" 2 ~bytes:40);
  Alcotest.(check int) "replace does not grow" 1 (Cache.length c);
  Alcotest.(check int) "byte estimate replaced" 40 (Cache.bytes c);
  Alcotest.(check (option int)) "newest value wins" (Some 2)
    (Cache.find c "a")

let test_lru_memory_bound () =
  let c = Cache.create ~max_bytes:100 ~cap:1000 () in
  ignore (Cache.insert c 1 "x" ~bytes:40);
  ignore (Cache.insert c 2 "y" ~bytes:40);
  (* 120 bytes > 100: evict down from the LRU end *)
  let evicted = Cache.insert c 3 "z" ~bytes:40 in
  Alcotest.(check int) "evicted to fit budget" 1 evicted;
  Alcotest.(check bool) "oldest gone" false (Cache.mem c 1);
  Alcotest.(check int) "within budget" 80 (Cache.bytes c);
  (* a single entry larger than the whole budget is kept, not thrashed *)
  let evicted = Cache.insert c 4 "huge" ~bytes:500 in
  Alcotest.(check int) "evicts the rest" 2 evicted;
  Alcotest.(check int) "oversized entry kept alone" 1 (Cache.length c);
  Alcotest.(check bool) "oversized entry live" true (Cache.mem c 4)

let test_lru_rejects_nonpositive_cap () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Prefix_cache.create: cap must be positive")
    (fun () -> ignore (Cache.create ~cap:0 ()))

(* ------------------------------------------------------------------ *)
(* Snapshot/restore vs cold replay: 1000-case property.

   For a random schema-aware testcase and a random boundary k, replaying
   statements [0, k) into a fresh engine, snapshotting, restoring and
   running the suffix with carried stats must be indistinguishable from
   one cold full run: equal stats, equal coverage digest, equal type
   window, and an identical response to a follow-up statement. Restoring
   twice and mutating the first restored engine must not disturb the
   second (isolation). *)

let profile = Dialects.Registry.pg_sim

let gen_testcase rng n =
  let schema = Lego.Sym_schema.empty () in
  List.init n (fun _ ->
      let ty = Sqlcore.Stmt_type.of_index
          (Reprutil.Rng.int rng Sqlcore.Stmt_type.count) in
      let s = Lego.Generator.stmt rng schema ty in
      Lego.Sym_schema.apply schema s;
      s)

let obs engine (stats : Minidb.Engine.run_stats) cov =
  (* everything a campaign can observe about an execution *)
  ( stats,
    Coverage.Bitmap.hash cov,
    Minidb.Engine.window engine,
    Minidb.Catalog.object_count (Minidb.Engine.catalog engine) )

let test_prop_restore_equals_cold () =
  let arb =
    Prop.(triple (int_range 0 99_999) (int_range 2 10) (int_range 1 9))
  in
  Prop.check ~count:1000 ~name:"prefix restore ≡ cold replay" arb
    (fun (seed, n, kr) ->
       let tc = gen_testcase (Reprutil.Rng.create (seed + 11)) n in
       let k = 1 + (kr mod (n - 1)) in
       (* one extra follow-up statement probes the restored state *)
       let probe =
         List.hd (gen_testcase (Reprutil.Rng.create (seed + 13)) 1)
       in
       (* cold: one full run *)
       let cov_cold = Coverage.Bitmap.create () in
       let cold = Minidb.Engine.create ~profile ~cov:cov_cold () in
       let stats_cold = Minidb.Engine.run_testcase cold tc in
       let obs_cold = obs cold stats_cold cov_cold in
       let probe_cold = Minidb.Engine.run_testcase cold [ probe ] in
       (* warm: replay [0,k) on a throwaway engine, snapshot at k *)
       let cov_warm = Coverage.Bitmap.create () in
       let warm = Minidb.Engine.create ~profile ~cov:cov_warm () in
       let snap = ref None in
       let prefix_stats = ref None in
       ignore
         (Minidb.Engine.run_testcase_from
            ~on_boundary:(fun b stats ->
                if b = k then begin
                  snap := Some (Minidb.Engine.snapshot warm);
                  prefix_stats := Some stats
                end)
            warm (List.filteri (fun i _ -> i < k) tc));
       match (!snap, !prefix_stats) with
       | None, _ | _, None ->
         (* the prefix crashed before k: nothing to cache; cold path is
            the only behaviour and trivially self-consistent *)
         true
       | Some snap, Some carry ->
         let suffix = List.filteri (fun i _ -> i >= k) tc in
         let run_restored () =
           let cov = Coverage.Bitmap.create () in
           Coverage.Bitmap.load_compact ~into:cov
             (Coverage.Bitmap.compact cov_warm);
           let e = Minidb.Engine.restore snap ~cov () in
           (e, cov, Minidb.Engine.run_testcase_from ~carry e suffix)
         in
         let e1, cov1, stats1 = run_restored () in
         let obs1 = obs e1 stats1 cov1 in
         (* mutate the first restored engine before touching the second:
            restores must be isolated from each other and the snapshot *)
         ignore (Minidb.Engine.run_testcase e1 [ probe ]);
         let e2, cov2, stats2 = run_restored () in
         let obs2 = obs e2 stats2 cov2 in
         let probe2 = Minidb.Engine.run_testcase e2 [ probe ] in
         obs_cold = obs1 && obs_cold = obs2 && probe_cold = probe2)

(* ------------------------------------------------------------------ *)
(* Harness level: cache hits must not change execute outcomes. The
   first hinted child captures the shared boundary, the rest restore
   from it. *)

let test_harness_hit_outcome_identical () =
  let rng = Reprutil.Rng.create 404 in
  let parent = gen_testcase rng 6 in
  let children =
    List.init 8 (fun i ->
        (* mutate the tail: keep a shared 4-statement prefix *)
        List.filteri (fun j _ -> j < 4) parent
        @ gen_testcase (Reprutil.Rng.create (500 + i)) 2)
  in
  let run ~exec_cache =
    let h = Fuzz.Harness.create ~exec_cache ~profile () in
    let outcomes =
      List.map (fun tc -> Fuzz.Harness.execute ~hint:4 h tc) children
    in
    (outcomes, h)
  in
  let cold, _ = run ~exec_cache:0 and warm, hw = run ~exec_cache:64 in
  Alcotest.(check bool) "outcomes byte-identical" true (cold = warm);
  let hits =
    Telemetry.Registry.counter_value (Fuzz.Harness.metrics hw) "cache.hits"
  in
  Alcotest.(check bool) "capture-on-miss produced hits" true (hits >= 7)

(* ------------------------------------------------------------------ *)
(* Campaign byte-identity: cache on vs off *)

let budget = 1500

let lego_factory ~exec_cache ~seed shard_id =
  let config =
    { Lego.Lego_fuzzer.default_config with
      seed = Fuzz.Campaign.shard_seed ~seed ~shard_id }
  in
  let harness = Fuzz.Harness.create ~exec_cache ~profile () in
  Lego.Lego_fuzzer.fuzzer (Lego.Lego_fuzzer.create ~config ~harness profile)

let check_snapshots_equal name (a : Fuzz.Driver.snapshot)
    (b : Fuzz.Driver.snapshot) =
  Alcotest.(check bool) name true (a = b)

let test_fuzz_identity_jobs1 () =
  let off =
    Fuzz.Driver.run_until_execs (lego_factory ~exec_cache:0 ~seed:42 0)
      ~execs:budget
  in
  let on =
    Fuzz.Driver.run_until_execs (lego_factory ~exec_cache:256 ~seed:42 0)
      ~execs:budget
  in
  check_snapshots_equal "jobs=1 snapshots identical" off on

let test_fuzz_identity_jobs4 () =
  let run exec_cache =
    Fuzz.Campaign.run ~jobs:4 ~sync_every:300 ~execs:2400
      (lego_factory ~exec_cache ~seed:9)
  in
  let off = run 0 and on = run 256 in
  check_snapshots_equal "jobs=4 aggregate identical"
    off.Fuzz.Campaign.cg_snapshot on.Fuzz.Campaign.cg_snapshot;
  List.iter2
    (fun (a : Fuzz.Campaign.shard) (b : Fuzz.Campaign.shard) ->
       check_snapshots_equal "per-shard snapshot identical" a.sh_snapshot
         b.sh_snapshot)
    off.Fuzz.Campaign.cg_shards on.Fuzz.Campaign.cg_shards

(* the cache hint/prime plumbing differs per fuzzer: cover them all,
   like the compare subcommand does *)
let test_compare_identity_all_fuzzers () =
  let baselines =
    [ ("squirrel",
       fun h -> Baselines.Squirrel_sim.fuzzer
           (Baselines.Squirrel_sim.create ~harness:h ~seed:5 profile));
      ("squirrel+",
       fun h -> Baselines.Squirrel_plus.fuzzer
           (Baselines.Squirrel_plus.create ~harness:h ~seed:5
              ~affinities:(Lego.Affinity.create ()) profile));
      ("sqlancer",
       fun h -> Baselines.Sqlancer_sim.fuzzer
           (Baselines.Sqlancer_sim.create ~harness:h ~seed:5 profile));
      ("sqlsmith",
       fun h -> Baselines.Sqlsmith_sim.fuzzer
           (Baselines.Sqlsmith_sim.create ~harness:h ~seed:5 profile)) ]
  in
  List.iter
    (fun (name, make) ->
       let run exec_cache =
         let h = Fuzz.Harness.create ~exec_cache ~profile () in
         Fuzz.Driver.run_until_execs (make h) ~execs:800
       in
       check_snapshots_equal (name ^ " identical") (run 0) (run 256))
    baselines

(* ------------------------------------------------------------------ *)
(* Repeat memo: a hinted testcase that prints like one run before is
   answered from memory. Whatever a campaign reads of the answer must
   equal the rerun's. *)

(* Crashes PostgreSQL's seeded optimizer bug (PG-003) at statement 5. *)
let crash_case =
  Sqlparser.Parser.parse_testcase_exn
    "CREATE TABLE dn (a INT); \
     CREATE RULE dnr AS ON INSERT TO dn DO INSTEAD NOTIFY dch; \
     LISTEN dch; INSERT INTO dn VALUES (1); \
     WITH w AS (INSERT INTO dn VALUES (2)) SELECT 1; SELECT 2;"

(* Statements that print alike but share no AST node with [tc]: a
   testcase regenerated byte for byte. *)
let reprinted tc =
  match Sqlparser.Parser.parse_testcase (Sqlcore.Sql_printer.testcase tc) with
  | Ok tc' -> tc'
  | Error _ -> tc

let counters_but_cache m =
  List.filter_map
    (fun k ->
       if String.starts_with ~prefix:"cache." k
       || String.starts_with ~prefix:"stage." k
       then None
       else Some (k, Telemetry.Registry.counter_value m k))
    (Telemetry.Registry.counter_names m)

let test_prop_repeat_equals_rerun () =
  (* testcases of up to 10 statements, cut short after 6 *)
  let limits = { Minidb.Limits.default with max_statements = 6 } in
  let repeats = ref 0 in
  Prop.check ~count:200 ~name:"repeat memo ≡ rerun" (Prop.int_range 0 99_999)
    (fun seed ->
       let rng = Reprutil.Rng.create seed in
       let tc () =
         gen_testcase
           (Reprutil.Rng.create (Reprutil.Rng.int rng 1_000_000))
           (1 + Reprutil.Rng.int rng 10)
       in
       let bases = List.init 4 (fun _ -> tc ()) in
       (* siblings keep a base's first statements and grow a fresh tail *)
       let siblings =
         List.map
           (fun b ->
              let k = Reprutil.Rng.int rng (List.length b + 1) in
              List.filteri (fun i _ -> i < k) b @ tc ())
           bases
       in
       let pool =
         Array.of_list
           ((crash_case :: reprinted crash_case :: bases)
            @ siblings @ List.map reprinted bases)
       in
       let picks =
         List.init 40 (fun _ ->
             let tc = pool.(Reprutil.Rng.int rng (Array.length pool)) in
             let hint =
               if Reprutil.Rng.int rng 8 = 0 then None
               else Some (Reprutil.Rng.int rng (List.length tc + 1))
             in
             (hint, tc))
       in
       let run exec_cache =
         let h = Fuzz.Harness.create ~limits ~exec_cache ~profile () in
         let outcomes =
           List.map (fun (hint, tc) -> Fuzz.Harness.execute ?hint h tc) picks
         in
         let m = Fuzz.Harness.metrics h in
         ( outcomes,
           counters_but_cache m,
           Telemetry.Registry.counter_value m "cache.repeats" )
       in
       let off, off_counters, _ = run 0 in
       let on, on_counters, n = run 16 in
       repeats := !repeats + n;
       off = on && off_counters = on_counters);
  Alcotest.(check bool) "repeats were answered" true (!repeats > 0)

(* The memo's bound: a repeat within one generation is answered (and
   climbs back into the young generation); one evicted by two full
   generations of other testcases runs again, with the outcome the memo
   gave. *)
let test_repeat_memo_bound () =
  let h = Fuzz.Harness.create ~exec_cache:16 ~profile () in
  let m = Fuzz.Harness.metrics h in
  let value = Telemetry.Registry.counter_value m in
  let target = gen_testcase (Reprutil.Rng.create 77) 5 in
  let fill ~from n =
    for i = from to from + n - 1 do
      let select =
        Sqlparser.Parser.parse_stmt_exn (Printf.sprintf "SELECT %d" i)
      in
      ignore (Fuzz.Harness.execute ~hint:0 h [ select ])
    done
  in
  let first = Fuzz.Harness.execute ~hint:2 h target in
  let g = Fuzz.Harness.repeat_generation in
  fill ~from:0 g;
  let runs = value "stage.execute.calls" in
  let answered = Fuzz.Harness.execute ~hint:2 h target in
  Alcotest.(check int) "answered, not run" runs (value "stage.execute.calls");
  Alcotest.(check int) "one repeat" 1 (value "cache.repeats");
  Alcotest.(check int64) "stored coverage hash" first.o_cov_hash
    answered.o_cov_hash;
  Alcotest.(check int) "no new branches" 0 answered.o_new_branches;
  fill ~from:g (2 * g);
  let runs = value "stage.execute.calls" in
  let rerun = Fuzz.Harness.execute ~hint:2 h target in
  Alcotest.(check int) "evicted: run again" (runs + 1)
    (value "stage.execute.calls");
  Alcotest.(check int) "still one repeat" 1 (value "cache.repeats");
  Alcotest.(check bool) "rerun outcome = answered outcome" true
    (rerun = answered)

(* ------------------------------------------------------------------ *)
(* Statement memo *)

(* The memo's one resource: more distinct statements than it holds must
   leave it at its cap, and every text and digest, held or evicted,
   must equal a fresh print. The newest [cap] statements answer from
   the memo itself: the same string, not a reprint. *)
let test_stmt_memo_bound () =
  let module M = Fuzz.Stmt_memo in
  let memo = M.create () in
  let stmts =
    List.init (M.cap * 2) (fun i ->
        Sqlparser.Parser.parse_stmt_exn (Printf.sprintf "SELECT %d" i))
  in
  let check s =
    let text = Sqlcore.Sql_printer.stmt s in
    Alcotest.(check string) "text" text (M.text memo s);
    Alcotest.(check string) "digest" (Digest.string text) (M.digest memo s);
    if M.length memo > M.cap then
      Alcotest.failf "memo holds %d statements, cap %d" (M.length memo) M.cap
  in
  List.iter check stmts;
  Alcotest.(check int) "memo at its cap" M.cap (M.length memo);
  let recent = List.filteri (fun i _ -> i >= M.cap) stmts in
  let held = List.map (M.text memo) recent in
  List.iter2
    (fun s t ->
       Alcotest.(check bool) "held text is shared" true (M.text memo s == t))
    recent held;
  (* the oldest went first: re-adding them replaces the newest ones *)
  List.iter check stmts;
  Alcotest.(check int) "still at its cap" M.cap (M.length memo)

let suite =
  [ ("lru eviction order", `Quick, test_lru_eviction_order);
    ("lru mem does not refresh", `Quick, test_lru_mem_does_not_refresh);
    ("lru replace updates bytes", `Quick, test_lru_replace_updates_bytes);
    ("lru memory bound", `Quick, test_lru_memory_bound);
    ("lru rejects cap<=0", `Quick, test_lru_rejects_nonpositive_cap);
    ("statement memo bound", `Quick, test_stmt_memo_bound);
    ("restore ≡ cold replay (1000 cases)", `Quick,
     test_prop_restore_equals_cold);
    ("harness hit outcome identical", `Quick,
     test_harness_hit_outcome_identical);
    ("repeat memo ≡ rerun (200 cases)", `Quick,
     test_prop_repeat_equals_rerun);
    ("repeat memo bound", `Quick, test_repeat_memo_bound);
    ("fuzz identity jobs=1", `Quick, test_fuzz_identity_jobs1);
    ("fuzz identity jobs=4", `Slow, test_fuzz_identity_jobs4);
    ("compare identity all fuzzers", `Quick,
     test_compare_identity_all_fuzzers) ]
