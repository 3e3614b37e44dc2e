(* Integration tests: harness, seed pool, triage, full fuzzing loops, and
   the paper's two case studies reproduced end to end. *)

open Sqlcore

let parse = Sqlparser.Parser.parse_testcase_exn

(* --- harness --------------------------------------------------------- *)

let test_harness_accumulates () =
  let h = Fuzz.Harness.create ~profile:Dialects.Registry.pg_sim () in
  let tc = parse "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
  let o1 = Fuzz.Harness.execute h tc in
  Alcotest.(check bool) "first run finds coverage" true
    (o1.Fuzz.Harness.o_new_branches > 0);
  let o2 = Fuzz.Harness.execute h tc in
  Alcotest.(check int) "identical rerun finds nothing" 0
    o2.Fuzz.Harness.o_new_branches;
  Alcotest.(check bool) "same coverage hash" true
    (o1.Fuzz.Harness.o_cov_hash = o2.Fuzz.Harness.o_cov_hash);
  Alcotest.(check int) "execs counted" 2 (Fuzz.Harness.execs h);
  Alcotest.(check bool) "branches recorded" true (Fuzz.Harness.branches h > 0)

let test_harness_fresh_state_per_exec () =
  let h = Fuzz.Harness.create ~profile:Dialects.Registry.pg_sim () in
  ignore (Fuzz.Harness.execute h (parse "CREATE TABLE t (a INT);"));
  (* the table must NOT exist in the next execution *)
  let o =
    Fuzz.Harness.execute h (parse "INSERT INTO t VALUES (1); SELECT 1;")
  in
  Alcotest.(check int) "insert failed on fresh engine" 1
    o.Fuzz.Harness.o_errors

(* --- seed pool ------------------------------------------------------- *)

let test_seed_pool_dedup_and_select () =
  let pool = Fuzz.Seed_pool.create () in
  let tc = parse "SELECT 1;" in
  Alcotest.(check bool) "added" true
    (Fuzz.Seed_pool.add pool ~tc ~cov_hash:1L ~new_branches:5 ~cost:10);
  Alcotest.(check bool) "duplicate hash rejected" false
    (Fuzz.Seed_pool.add pool ~tc ~cov_hash:1L ~new_branches:9 ~cost:2);
  Alcotest.(check int) "size" 1 (Fuzz.Seed_pool.size pool);
  let rng = Reprutil.Rng.create 1 in
  (match Fuzz.Seed_pool.select pool rng with
   | Some s -> Alcotest.(check int) "selection counted" 1
                 s.Fuzz.Seed_pool.sd_selections
   | None -> Alcotest.fail "expected a seed");
  Alcotest.(check bool) "empty pool selects none" true
    (Fuzz.Seed_pool.select (Fuzz.Seed_pool.create ()) rng = None)

(* --- triage ---------------------------------------------------------- *)

let test_triage_dedup () =
  let tri = Fuzz.Triage.create () in
  let bug b =
    { Minidb.Fault.bug_id = b; identifier = b; component = "DML";
      kind = Minidb.Fault.Segv; cond = Minidb.Fault.State "x" }
  in
  let crash b =
    { Minidb.Fault.c_bug = bug b;
      c_stack = Minidb.Fault.stack_of_bug (bug b) }
  in
  Alcotest.(check bool) "new" true (Fuzz.Triage.record tri (crash "A"));
  Alcotest.(check bool) "dup" false (Fuzz.Triage.record tri (crash "A"));
  Alcotest.(check bool) "other" true (Fuzz.Triage.record tri (crash "B"));
  Alcotest.(check int) "total 3" 3 (Fuzz.Triage.total_crashes tri);
  Alcotest.(check int) "unique 2" 2 (Fuzz.Triage.unique_count tri);
  Alcotest.(check (list string)) "bug ids" [ "A"; "B" ]
    (Fuzz.Triage.bug_ids tri)

(* --- corpus ---------------------------------------------------------- *)

let test_corpus_valid_everywhere () =
  List.iter
    (fun profile ->
       let seeds = Fuzz.Corpus.initial profile in
       Alcotest.(check bool)
         (Minidb.Profile.name profile ^ " has seeds")
         true (List.length seeds >= 5);
       (* every corpus seed must execute without crashing *)
       let h = Fuzz.Harness.create ~profile () in
       List.iter
         (fun tc ->
            let o = Fuzz.Harness.execute h tc in
            Alcotest.(check bool) "no crash on corpus" true
              (o.Fuzz.Harness.o_crash = None))
         seeds)
    Dialects.Registry.all

(* --- case studies ---------------------------------------------------- *)

let test_fig7_postgres_case_study () =
  (* paper Fig. 7: CREATE RULE -> (rewrite) -> WITH-DML crashes the
     planner with a SEGV, BUG #17097 *)
  let h = Fuzz.Harness.create ~profile:Dialects.Registry.pg_sim () in
  let tc =
    parse
      "CREATE TABLE v0 (v4 INT, v3 INT UNIQUE, v2 INT, v1 INT UNIQUE);\n\
       CREATE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY compression;\n\
       COPY (SELECT 32 EXCEPT SELECT (v3 + 16) FROM v0) TO STDOUT CSV \
       HEADER;\n\
       WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = 48;"
  in
  match (Fuzz.Harness.execute h tc).Fuzz.Harness.o_crash with
  | Some crash ->
    Alcotest.(check string) "identifier" "BUG #17097"
      crash.Minidb.Fault.c_bug.Minidb.Fault.identifier;
    Alcotest.(check string) "kind" "SEGV"
      (Minidb.Fault.kind_name crash.Minidb.Fault.c_bug.Minidb.Fault.kind);
    Alcotest.(check string) "component" "Optimizer"
      crash.Minidb.Fault.c_bug.Minidb.Fault.component
  | None -> Alcotest.fail "Fig. 7 case study did not crash"

let test_fig3_mysql_case_study () =
  (* paper Fig. 3: synthesized CREATE TABLE -> INSERT -> CREATE TRIGGER ->
     SELECT (window fn) crashes MySQL, CVE-2021-35643 *)
  let h = Fuzz.Harness.create ~profile:Dialects.Registry.mysql_sim () in
  let tc =
    parse
      "CREATE TABLE v0 (v1 YEAR);\n\
       INSERT IGNORE INTO v0 VALUES (NULL), (2021), (1999);\n\
       CREATE TRIGGER v9 AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0 \
       SELECT * FROM v0 GROUP BY v1;\n\
       SELECT LEAD(v1) OVER (ORDER BY v1 ASC) AS w FROM v0;"
  in
  match (Fuzz.Harness.execute h tc).Fuzz.Harness.o_crash with
  | Some crash ->
    Alcotest.(check string) "identifier" "CVE-2021-35643"
      crash.Minidb.Fault.c_bug.Minidb.Fault.identifier
  | None -> Alcotest.fail "Fig. 3 case study did not crash"

let test_case_study_needs_the_sequence () =
  (* the same statements in a different order (paper Fig. 2 logic) miss
     the trigger-window bug: permutation matters, not just combination *)
  let h = Fuzz.Harness.create ~profile:Dialects.Registry.mysql_sim () in
  let tc =
    parse
      "CREATE TABLE v0 (v1 YEAR);\n\
       CREATE TRIGGER v9 AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0 \
       SELECT * FROM v0 GROUP BY v1;\n\
       SELECT LEAD(v1) OVER (ORDER BY v1 ASC) AS w FROM v0;\n\
       INSERT IGNORE INTO v0 VALUES (NULL), (2021), (1999);"
  in
  Alcotest.(check bool) "reordered case does not crash" true
    ((Fuzz.Harness.execute h tc).Fuzz.Harness.o_crash = None)

(* --- fuzzing loops --------------------------------------------------- *)

let run_fuzzer fz execs = Fuzz.Driver.run_until_execs fz ~execs

let test_lego_loop_progresses () =
  let t = Lego.Lego_fuzzer.create Dialects.Registry.pg_sim in
  let snap = run_fuzzer (Lego.Lego_fuzzer.fuzzer t) 2000 in
  Alcotest.(check bool) "coverage" true (snap.Fuzz.Driver.st_branches > 100);
  Alcotest.(check bool) "affinities found" true
    (Lego.Affinity.count (Lego.Lego_fuzzer.affinities t) > 10);
  Alcotest.(check bool) "sequences synthesized" true
    (Lego.Lego_fuzzer.synthesized_total t
     > Minidb.Profile.type_count Dialects.Registry.pg_sim);
  Alcotest.(check bool) "pool grew" true (Lego.Lego_fuzzer.pool_size t > 9)

let test_lego_minus_no_synthesis () =
  let cfg =
    { Lego.Lego_fuzzer.default_config with sequence_oriented = false }
  in
  let t = Lego.Lego_fuzzer.create ~config:cfg Dialects.Registry.pg_sim in
  let _ = run_fuzzer (Lego.Lego_fuzzer.fuzzer t) 1000 in
  Alcotest.(check int) "no affinities collected" 0
    (Lego.Affinity.count (Lego.Lego_fuzzer.affinities t));
  Alcotest.(check int) "only the singleton seeds"
    (Minidb.Profile.type_count Dialects.Registry.pg_sim)
    (Lego.Lego_fuzzer.synthesized_total t)

let test_lego_beats_squirrel () =
  let budget = 4000 in
  let lego = Lego.Lego_fuzzer.create Dialects.Registry.pg_sim in
  let lego_snap = run_fuzzer (Lego.Lego_fuzzer.fuzzer lego) budget in
  let sq = Baselines.Squirrel_sim.create Dialects.Registry.pg_sim in
  let sq_snap = run_fuzzer (Baselines.Squirrel_sim.fuzzer sq) budget in
  Alcotest.(check bool) "LEGO covers more branches" true
    (lego_snap.Fuzz.Driver.st_branches > sq_snap.Fuzz.Driver.st_branches)

let test_baselines_run () =
  List.iter
    (fun (name, fz) ->
       let snap = run_fuzzer fz 500 in
       Alcotest.(check bool) (name ^ " makes progress") true
         (snap.Fuzz.Driver.st_branches > 50))
    [ ("sqlancer",
       Baselines.Sqlancer_sim.fuzzer
         (Baselines.Sqlancer_sim.create Dialects.Registry.mariadb_sim));
      ("sqlsmith",
       Baselines.Sqlsmith_sim.fuzzer
         (Baselines.Sqlsmith_sim.create Dialects.Registry.pg_sim));
      ("squirrel",
       Baselines.Squirrel_sim.fuzzer
         (Baselines.Squirrel_sim.create Dialects.Registry.comdb2_sim)) ]

let test_determinism () =
  let run () =
    let t = Lego.Lego_fuzzer.create Dialects.Registry.comdb2_sim in
    let snap = run_fuzzer (Lego.Lego_fuzzer.fuzzer t) 1500 in
    (snap.Fuzz.Driver.st_branches, snap.st_unique_crashes, snap.st_bugs)
  in
  Alcotest.(check bool) "identical campaigns" true (run () = run ())

let test_sqlsmith_single_statement_corpus () =
  let t = Baselines.Sqlsmith_sim.create Dialects.Registry.pg_sim in
  let fz = Baselines.Sqlsmith_sim.fuzzer t in
  let _ = run_fuzzer fz 50 in
  (* every generated case is the fixed preamble plus exactly one query *)
  let corpus = fz.Fuzz.Driver.f_corpus () in
  Alcotest.(check bool) "nonempty" true (corpus <> []);
  List.iter
    (fun tc ->
       let tail = List.nth tc (List.length tc - 1) in
       match Ast.type_of_stmt tail with
       | Stmt_type.Select | Stmt_type.Select_union
       | Stmt_type.Select_intersect | Stmt_type.Select_except -> ()
       | ty -> Alcotest.fail ("unexpected tail: " ^ Stmt_type.name ty))
    corpus

(* One execution per step, so the exec cadence is the step cadence:
   checkpoints land on every tenth exec, none at the budget itself. *)
let test_driver_checkpoints () =
  let profile = Dialects.Registry.comdb2_sim in
  let h = Fuzz.Harness.create ~profile () in
  let tc = List.hd (Fuzz.Corpus.initial profile) in
  let fz =
    { Fuzz.Driver.f_name = "one";
      f_step = (fun () -> ignore (Fuzz.Harness.execute h tc));
      f_harness = h;
      f_corpus = (fun () -> []);
      f_exchange = None }
  in
  let cps = ref [] in
  let final =
    Fuzz.Driver.run_until_execs ~checkpoint_every:10
      ~on_checkpoint:(fun cp ->
          let s = cp.Fuzz.Driver.cp_snapshot in
          cps := (s.Fuzz.Driver.st_iteration, s.st_execs) :: !cps)
      fz ~execs:50
  in
  Alcotest.(check (list (pair int int))) "checkpoints every 10 execs"
    [ (10, 10); (20, 20); (30, 30); (40, 40) ]
    (List.rev !cps);
  Alcotest.(check int) "final snapshot at the budget" 50
    final.Fuzz.Driver.st_execs

let test_exec_checkpoint_no_double_fire () =
  (* A single step executes many cases, so the last step typically
     overshoots the exec budget: the final checkpoint must then be the
     returned snapshot alone, never on_checkpoint at the same count. *)
  let t = Lego.Lego_fuzzer.create Dialects.Registry.comdb2_sim in
  let fz = Lego.Lego_fuzzer.fuzzer t in
  let cps = ref [] in
  let final =
    Fuzz.Driver.run_until_execs ~checkpoint_every:100
      ~on_checkpoint:(fun cp ->
          cps := cp.Fuzz.Driver.cp_snapshot.Fuzz.Driver.st_execs :: !cps)
      fz ~execs:1000
  in
  Alcotest.(check bool) "budget reached" true
    (final.Fuzz.Driver.st_execs >= 1000);
  List.iter
    (fun e ->
       Alcotest.(check bool) "checkpoint strictly before the final" true
         (e < final.Fuzz.Driver.st_execs))
    !cps;
  Alcotest.(check int) "checkpoints strictly increasing (no double fire)"
    (List.length !cps)
    (List.length (List.sort_uniq compare !cps))

let suite =
  [ ("harness accumulates", `Quick, test_harness_accumulates);
    ("harness fresh state", `Quick, test_harness_fresh_state_per_exec);
    ("seed pool", `Quick, test_seed_pool_dedup_and_select);
    ("triage dedup", `Quick, test_triage_dedup);
    ("corpus valid everywhere", `Quick, test_corpus_valid_everywhere);
    ("fig7 postgres case study", `Quick, test_fig7_postgres_case_study);
    ("fig3 mysql case study", `Quick, test_fig3_mysql_case_study);
    ("case study needs the sequence", `Quick,
     test_case_study_needs_the_sequence);
    ("lego loop progresses", `Slow, test_lego_loop_progresses);
    ("lego- has no synthesis", `Slow, test_lego_minus_no_synthesis);
    ("lego beats squirrel", `Slow, test_lego_beats_squirrel);
    ("baselines run", `Slow, test_baselines_run);
    ("determinism", `Slow, test_determinism);
    ("sqlsmith single-statement corpus", `Quick,
     test_sqlsmith_single_statement_corpus);
    ("driver checkpoints", `Quick, test_driver_checkpoints);
    ("exec checkpoint no double fire", `Quick,
     test_exec_checkpoint_no_double_fire) ]
