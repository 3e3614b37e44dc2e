(* Interleaving-schedule fuzzing: generator shapes, the commit-order
   serializability oracle (deterministic violation construction plus
   shrink-preserves-key), and campaign-level determinism / replay
   invariants. *)

open Sqlcore
module Schedule = Fuzz.Schedule
module Pool = Server.Session_pool
module Rng = Reprutil.Rng

let parse = Sqlparser.Parser.parse_testcase_exn

let stmt sql = List.hd (parse sql)

let profile = Dialects.Registry.pg_sim

let clean_profile = Minidb.Profile.without_bugs profile

(* --- generators ------------------------------------------------------ *)

let test_round_robin () =
  let sched =
    Schedule.round_robin [ parse "SELECT 1; SELECT 2; SELECT 3"; parse "SELECT 4" ]
  in
  Alcotest.(check string) "kind" "round_robin" sched.Schedule.sc_kind;
  Alcotest.(check (list int)) "interleaves one stmt per session in turn"
    [ 0; 1; 0; 0 ]
    (List.map fst (Array.to_list sched.Schedule.sc_steps))

let test_txn_biased_wraps () =
  let rng = Rng.create 7 in
  let sched = Schedule.txn_biased rng [ parse "SELECT 1"; parse "SELECT 2" ] in
  Alcotest.(check string) "kind" "txn_biased" sched.Schedule.sc_kind;
  (* each bare single-statement sequence becomes BEGIN; stmt; COMMIT *)
  Alcotest.(check int) "wrapped length" 6 (Array.length sched.Schedule.sc_steps);
  let begins =
    Array.to_list sched.Schedule.sc_steps
    |> List.filter (fun (_, s) -> s = Ast.S_begin)
  in
  Alcotest.(check int) "two BEGINs" 2 (List.length begins)

let test_generators_preserve_session_order () =
  (* every generator must keep each session's statements in sequence
     order — only the interleaving varies *)
  let seqs =
    [ parse "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t";
      parse "SELECT 1; SELECT 2";
      parse "SELECT 3; SELECT 4; SELECT 5" ]
  in
  let check_order sched =
    List.iteri
      (fun sid seq ->
         let mine =
           Array.to_list sched.Schedule.sc_steps
           |> List.filter (fun (s, _) -> s = sid)
           |> List.map snd
         in
         (* txn_biased may have wrapped the sequence; the original
            statements must still appear as a subsequence in order *)
         let rec subseq want got =
           match (want, got) with
           | [], _ -> true
           | _, [] -> false
           | w :: ws, g :: gs ->
             if w = g then subseq ws gs else subseq want gs
         in
         Alcotest.(check bool)
           (Printf.sprintf "%s keeps s%d order" sched.Schedule.sc_kind sid)
           true (subseq seq mine))
      seqs
  in
  check_order (Schedule.round_robin seqs);
  check_order (Schedule.txn_biased (Rng.create 11) seqs);
  let affine = Schedule.adjacency_affinity seqs in
  check_order (Schedule.spliced (Rng.create 13) ~affine seqs)

(* --- commit-order units ---------------------------------------------- *)

let test_commit_order_units () =
  let steps =
    [| (0, stmt "BEGIN");
       (0, stmt "INSERT INTO t VALUES (1)");
       (1, stmt "SELECT a FROM t");
       (0, stmt "COMMIT") |]
  in
  (match Oracle.Isolation.commit_order_units steps with
   | [ u1; u2 ] ->
     (* s1's autocommit SELECT commits at index 2, before s0's txn at 3 *)
     Alcotest.(check int) "first unit session" 1 u1.Oracle.Isolation.u_session;
     Alcotest.(check int) "first unit commit" 2 u1.Oracle.Isolation.u_commit;
     Alcotest.(check int) "second unit session" 0 u2.Oracle.Isolation.u_session;
     Alcotest.(check int) "second unit commit" 3 u2.Oracle.Isolation.u_commit;
     Alcotest.(check int) "txn unit statements" 3
       (List.length u2.Oracle.Isolation.u_stmts)
   | us -> Alcotest.failf "expected 2 units, got %d" (List.length us));
  (* a trailing open transaction gets an implicit COMMIT *)
  match
    Oracle.Isolation.commit_order_units
      [| (0, stmt "BEGIN"); (0, stmt "INSERT INTO t VALUES (1)") |]
  with
  | [ u ] ->
    Alcotest.(check int) "open txn commit point" 1 u.Oracle.Isolation.u_commit;
    (match List.rev u.Oracle.Isolation.u_stmts with
     | Ast.S_commit :: _ -> ()
     | _ -> Alcotest.fail "open txn must close with implicit COMMIT")
  | us -> Alcotest.failf "expected 1 unit, got %d" (List.length us)

(* --- the deterministic isolation violation ---------------------------- *)

(* s0 opens a transaction and updates under it; s1's autocommit update
   lands inside the window; s0 rolls back, restoring its BEGIN snapshot
   and clobbering s1's committed write. Observed final state a=1;
   commit-order serial replay yields a=9. A textbook lost update,
   witnessed by the fingerprint divergence. *)
let violation_steps =
  [ (0, stmt "CREATE TABLE t (a INT)");
    (0, stmt "INSERT INTO t VALUES (1)");
    (0, stmt "BEGIN");
    (0, stmt "UPDATE t SET a = 5");
    (1, stmt "UPDATE t SET a = 9");
    (0, stmt "ROLLBACK") ]

let observed_violation steps =
  let pool = Pool.create ~sessions:2 ~profile:clean_profile () in
  let out = Pool.run_serial pool (Array.of_list steps) in
  if out.Pool.o_crash <> None then None
  else
    Oracle.Isolation.check ~profile:clean_profile
      ~steps:(Array.of_list steps) ~observed:out.Pool.o_fingerprint ()

let test_isolation_violation () =
  match observed_violation violation_steps with
  | None -> Alcotest.fail "rollback-clobbered commit not flagged"
  | Some v ->
    Alcotest.(check string) "oracle" "isolation" v.Oracle.Violation.vi_oracle;
    (* deterministic: the same schedule yields the same key *)
    (match observed_violation violation_steps with
     | Some v' ->
       Alcotest.(check string) "replay key stable"
         (Oracle.Violation.key v) (Oracle.Violation.key v')
     | None -> Alcotest.fail "violation vanished on replay")

let test_isolation_clean_schedule () =
  (* a read-only statement inside the window commits nothing: observed
     state == commit-order state *)
  let steps =
    [ (0, stmt "CREATE TABLE t (a INT)");
      (0, stmt "INSERT INTO t VALUES (1)");
      (0, stmt "BEGIN");
      (0, stmt "UPDATE t SET a = 5");
      (1, stmt "SELECT a FROM t");
      (0, stmt "COMMIT") ]
  in
  (match observed_violation steps with
   | None -> ()
   | Some v ->
     Alcotest.failf "false positive: %s" (Oracle.Violation.key v));
  (* single-session schedules never report: commit order is the
     original order *)
  let single = List.map (fun (_, s) -> (0, s)) violation_steps in
  match observed_violation single with
  | None -> ()
  | Some v ->
    Alcotest.failf "single-session false positive: %s"
      (Oracle.Violation.key v)

(* Satellite: schedule shrinking preserves the violation. Pad the
   witness with noise, shrink with reduce_poly under a
   same-key-replays predicate, and the minimal schedule must (a) still
   violate with the same key and (b) be 1-minimal. *)
let test_shrink_preserves_violation () =
  let key =
    match observed_violation violation_steps with
    | Some v -> Oracle.Violation.key v
    | None -> Alcotest.fail "witness schedule must violate"
  in
  let noise =
    [ (1, stmt "SELECT a FROM t");
      (0, stmt "SELECT a FROM t");
      (1, stmt "SET z = 1") ]
  in
  let padded =
    match violation_steps with
    | first :: rest -> (first :: noise) @ rest @ [ (1, stmt "SELECT a FROM t") ]
    | [] -> assert false
  in
  let pred steps =
    match observed_violation steps with
    | Some v -> String.equal (Oracle.Violation.key v) key
    | None -> false
  in
  Alcotest.(check bool) "padded schedule still violates" true (pred padded);
  let reduced =
    match Fuzz.Reducer.reduce_poly ~pred padded with
    | Some reduced -> reduced
    | None -> Alcotest.fail "padded schedule must reproduce"
  in
  Alcotest.(check bool) "reduced still violates with same key" true
    (pred reduced);
  (* the 6-step witness itself is not 1-minimal: s0's own UPDATE is
     removable — BEGIN snapshot + ROLLBACK alone clobber s1's commit,
     same key — so greedy reduction lands on 5 steps *)
  Alcotest.(check int) "noise removed, witness tightened to 5 steps" 5
    (List.length reduced);
  (* 1-minimality: dropping any single remaining step loses the key *)
  List.iteri
    (fun i _ ->
       let without = List.filteri (fun j _ -> j <> i) reduced in
       Alcotest.(check bool)
         (Printf.sprintf "dropping step %d breaks the witness" i)
         false (pred without))
    reduced

(* --- campaign --------------------------------------------------------- *)

let corpus = Fuzz.Corpus.initial profile

let run_campaign ?metrics seed =
  Schedule.campaign ?metrics ~profile ~sessions:3 ~schedules:24 ~seed ~corpus
    ()

let test_campaign_smoke () =
  let metrics = Telemetry.Registry.create () in
  let r = run_campaign ~metrics 42 in
  Alcotest.(check int) "schedules run" 24 r.Schedule.sr_schedules;
  Alcotest.(check int) "no replay mismatch" 0 r.Schedule.sr_replay_mismatch;
  Alcotest.(check bool) "steps executed" true (r.Schedule.sr_steps > 0);
  let cv name = Telemetry.Registry.counter_value metrics name in
  Alcotest.(check int) "schedule.generated" 24 (cv "schedule.generated");
  Alcotest.(check int) "schedule.steps" r.Schedule.sr_steps
    (cv "schedule.steps");
  Alcotest.(check int) "replay_mismatch counter" 0
    (cv "schedule.replay_mismatch");
  (* Schedules run on session pools, never through the harness's
     prefix-snapshot cache: they must not leak into the single-session
     cache counters, whose hit-rate denominator (hits + misses) they
     would otherwise skew, and they carry no counter of their own. *)
  Alcotest.(check bool) "no cache.schedule_bypass counter" false
    (List.mem "cache.schedule_bypass"
       (Telemetry.Registry.counter_names metrics));
  Alcotest.(check int) "cache.bypass untouched by schedules" 0
    (cv "cache.bypass");
  Alcotest.(check int) "cache.hits untouched by schedules" 0
    (cv "cache.hits");
  Alcotest.(check bool) "kind counters cover all schedules" true
    (cv "schedule.kind.round_robin" + cv "schedule.kind.txn_biased"
     + cv "schedule.kind.spliced"
     = 24);
  (* every minimized crash repro replays to its bug on a fresh pool *)
  List.iter
    (fun (bug_id, steps) ->
       let pool = Pool.create ~sessions:3 ~profile () in
       match (Pool.run_serial pool steps).Pool.o_crash with
       | Some (_, c) ->
         Alcotest.(check string) "repro replays" bug_id
           c.Minidb.Fault.c_bug.Minidb.Fault.bug_id
       | None -> Alcotest.failf "minimized repro for %s lost the crash" bug_id)
    r.Schedule.sr_crash_repros

let test_campaign_deterministic () =
  let r1 = run_campaign 1234 and r2 = run_campaign 1234 in
  Alcotest.(check int) "same steps" r1.Schedule.sr_steps r2.Schedule.sr_steps;
  Alcotest.(check (list string)) "same bug ids"
    (Fuzz.Triage.bug_ids r1.Schedule.sr_triage)
    (Fuzz.Triage.bug_ids r2.Schedule.sr_triage);
  Alcotest.(check (list string)) "same crash repro keys"
    (List.map fst r1.Schedule.sr_crash_repros)
    (List.map fst r2.Schedule.sr_crash_repros);
  Alcotest.(check (list string)) "same violation repro keys"
    (List.map fst r1.Schedule.sr_violation_repros)
    (List.map fst r2.Schedule.sr_violation_repros)

(* --- replays without coverage maps ---------------------------------- *)

(* A profile whose one bug fires on VACUUM followed later by
   CHECKPOINT. *)
let bug_profile =
  Minidb.Profile.make ~name:"replay" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all
    ~bugs:
      [ { Minidb.Fault.bug_id = "REP-1"; identifier = "TEST";
          component = "Storage"; kind = Minidb.Fault.Segv;
          cond =
            Minidb.Fault.Subseq [ Stmt_type.Vacuum; Stmt_type.Checkpoint ] } ]

let crash_cases =
  List.map parse
    [ "VACUUM; CHECKPOINT"; "CHECKPOINT; VACUUM";
      "CREATE TABLE t (a INT); VACUUM; SELECT a FROM t; CHECKPOINT";
      "SELECT 1" ]

let crashes tc =
  Fuzz.Reducer.crashes_with ~profile:bug_profile ~bug_id:"REP-1" tc

(* The witness schedule and every prefix of it, with the fingerprint
   each leaves on a pool. *)
let isolation_cases =
  List.init (List.length violation_steps) (fun k ->
      let steps =
        Array.of_list (List.filteri (fun i _ -> i <= k) violation_steps)
      in
      let pool = Pool.create ~sessions:2 ~profile:clean_profile () in
      (steps, (Pool.run_serial pool steps).Pool.o_fingerprint))

let isolation_key (steps, observed) =
  Option.map Oracle.Violation.key
    (Oracle.Isolation.check ~profile:clean_profile ~steps ~observed ())

(* Words allocated straight onto the major heap: a coverage map (a
   64 KiB buffer and a 4,096-cell dirty list) is one such block. *)
let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let test_replays_allocate_no_map () =
  let replays = 50 in
  let replay i =
    if i mod 2 = 0 then ignore (crashes (List.nth crash_cases (i / 2 mod 4)))
    else
      ignore
        (isolation_key
           (List.nth isolation_cases (i / 2 mod List.length isolation_cases)))
  in
  replay 0;
  replay 1;
  let before = direct_major_words () in
  for i = 0 to replays - 1 do
    replay i
  done;
  let per_replay = (direct_major_words () -. before) /. float_of_int replays in
  if per_replay >= 12_288. then
    Alcotest.failf "%.0f words straight onto the major heap per replay"
      per_replay

(* Replays on two domains give what they give on one. This checks
   outcomes only: replay outcomes never read coverage, so it would pass
   with one sink shared by both domains too. The sink is per domain for
   memory safety (two domains marking one map could write past its
   dirty list), which no outcome shows. *)
let test_replays_on_two_domains () =
  let jobs =
    Array.concat
      (List.init 8 (fun _ ->
           Array.of_list
             (List.map (fun tc () -> `Crash (crashes tc)) crash_cases
              @ List.map
                  (fun case () -> `Isolation (isolation_key case))
                  isolation_cases)))
  in
  let serial = Array.map (fun job -> job ()) jobs in
  Alcotest.(check bool) "some replays crash, some violate" true
    (Array.mem (`Crash true) serial
     && Array.exists
          (function `Isolation (Some _) -> true | _ -> false)
          serial);
  Alcotest.(check bool) "two domains give the serial outcomes" true
    (Reprutil.Pool.run ~workers:2 jobs = serial)

let suite =
  [ Alcotest.test_case "round robin" `Quick test_round_robin;
    Alcotest.test_case "txn biased wraps bare sequences" `Quick
      test_txn_biased_wraps;
    Alcotest.test_case "generators preserve session order" `Quick
      test_generators_preserve_session_order;
    Alcotest.test_case "commit-order units" `Quick test_commit_order_units;
    Alcotest.test_case "isolation violation (rollback clobber)" `Quick
      test_isolation_violation;
    Alcotest.test_case "isolation clean schedules" `Quick
      test_isolation_clean_schedule;
    Alcotest.test_case "shrink preserves violation" `Quick
      test_shrink_preserves_violation;
    Alcotest.test_case "replays allocate no coverage map" `Quick
      test_replays_allocate_no_map;
    Alcotest.test_case "replays on two domains match serial" `Quick
      test_replays_on_two_domains;
    Alcotest.test_case "campaign smoke" `Slow test_campaign_smoke;
    Alcotest.test_case "campaign deterministic" `Slow
      test_campaign_deterministic ]
