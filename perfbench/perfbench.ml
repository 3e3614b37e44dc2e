(* perfbench: run one benchmark workload and print its metrics as one JSON
   line. [perfbench/run.py] builds this program, enforces the wall cap,
   runs the traced and untraced variants and cross-checks them; this file
   only measures.

   Every layer is measured from outside, through public functions: each
   [Driver.fuzzer.f_step] is timed and the harness registry is diffed
   around it ([Telemetry.Registry.snapshot]/[diff]); farm rounds are
   timestamped by this program's own [Telemetry.Sink.t]; and a traced run
   finally replays the workload's own corpus and stores through
   [Minidb.Engine], [Sqlparser.Parser], [Farm.Store] and [Farm.Resume]. *)

module J = Telemetry.Json
module R = Telemetry.Registry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let failf fmt = Printf.ksprintf failwith fmt

(* --- process and filesystem probes ----------------------------------- *)

(* Peak resident set of a live process in KiB (VmHWM), 0 once it is
   gone. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0
  | lines ->
    List.fold_left
      (fun acc l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
             | [] -> acc)
         | _ -> acc)
      0 lines

let rec dir_bytes path =
  match Sys.is_directory path with
  | exception Sys_error _ -> 0
  | true ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Farm.Store.ensure_dir path

(* --- metric accumulation --------------------------------------------- *)

let stage_s reg name =
  match Telemetry.Span.stage_stats reg name with
  | Some (_, us) -> float_of_int us /. 1e6
  | None -> 0.0

let stage_calls reg name =
  match Telemetry.Span.stage_stats reg name with
  | Some (calls, _) -> float_of_int calls
  | None -> 0.0

let counter reg name = float_of_int (R.counter_value reg name)

let ratio a b = if b > 0.0 then a /. b else 0.0

let hist_sum reg name =
  match R.histogram_stats reg name with Some (_, _, sum, _) -> sum | None -> 0

(* --- workloads -------------------------------------------------------- *)

type campaign = {
  c_fuzzer : string;
  c_dialect : string;
  c_seed : int;
  c_execs : int;
  c_feedback : Fuzz.Harness.feedback;
  c_oracles : bool;
  c_sessions : int;
  c_schedules : int;
}

let dialects = [ "postgresql"; "mysql"; "mariadb"; "comdb2" ]

(* Every workload pins its campaign seeds. An exec-budgeted LEGO
   campaign's wall time is heavy-tailed in the seed (at 40k execs seed 1
   takes ~18 s, seeds 2 and 3 ~1.4 s, seeds 5-7 and 9 > 25 s), so campaign
   seeds drawn from the workload seed would time a different program on
   every seed. The workload seed picks the traced replay sample.

   At seed 1 the first 28k execs take ~2.3 s and the next 4k ~1.4 s, so
   32k execs end at the onset of the cliff: one repetition lasts ~3 s and
   a run takes the median of ten or more. *)
let deep_campaign ~smoke =
  [ { c_fuzzer = "lego"; c_dialect = "postgresql"; c_seed = 1;
      c_execs = (if smoke then 2_000 else 32_000);
      c_feedback = Fuzz.Harness.Edges; c_oracles = false; c_sessions = 1;
      c_schedules = 64 } ]

(* Even twelve summed 10k-exec campaigns vary with their seeds: over
   workload seeds 1-10 (campaign seeds s..s+2) the late-phase throughput
   spread 0.48 and the wall 0.20 between quartiles. One campaign per
   dialect at seed 1 takes ~4 s. *)
let young_grammar ~smoke =
  List.map
    (fun d ->
       { c_fuzzer = "lego"; c_dialect = d; c_seed = 1;
         c_execs = (if smoke then 500 else 10_000);
         c_feedback = Fuzz.Harness.Both; c_oracles = true;
         c_sessions = 2; c_schedules = (if smoke then 4 else 64) })
    dialects

(* The farm spec, as a user would write it for [legofuzz farm]; campaign
   seeds stay at the spec default (1). Across seeds 1-4 the spec with
   60k execs took 11-19 s. 36k execs, the smallest budget that finds a
   seeded bug here, take ~6 s at seed 1. *)
let farm_spec_json ~smoke ~total ~round =
  let camp id fuzzer dialect =
    J.Obj
      [ ("id", J.Str id); ("fuzzer", J.Str fuzzer); ("dialect", J.Str dialect);
        ("budget", J.Int (if smoke then 1_000 else 20_000)) ]
  in
  J.Obj
    [ ( "campaigns",
        J.Arr
          [ camp "lego-pg" "lego" "postgresql";
            camp "sqlsmith-my" "sqlsmith" "mysql";
            camp "squirrel-co" "squirrel" "comdb2";
            camp "sqlancer-ma" "sqlancer" "mariadb" ] );
      ("total_execs", J.Int total); ("round_execs", J.Int round);
      ("workers", J.Int 2); ("policy", J.Str "bandit") ]

let farm_spec ~smoke ~total ~round =
  match Farm.Spec.of_json (farm_spec_json ~smoke ~total ~round) with
  | Ok s -> s
  | Error e -> failf "farm spec: %s" e

(* --- one measured run's result ---------------------------------------- *)

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

let check name ok detail = { ck_name = name; ck_ok = ok; ck_detail = detail }

type run = {
  r_metrics : (string * float) list;  (* end-to-end, plus per-layer when
                                         traced *)
  r_attempted : int;
  r_failed : int;
  r_checks : check list;
  r_fingerprint : J.t;  (* deterministic outcome: must repeat exactly *)
}

(* --- replay through the public layer functions ------------------------ *)

(* Samples gathered by replaying testcases and stores after a traced run. *)
type replay = {
  stmt_us : (string, float list ref) Hashtbl.t;  (* per Stmt_type category *)
  mutable snapshot_us : float list;
  mutable restore_us : float list;
  mutable snapshot_bytes : float list;
  mutable parse_us : float list;
  mutable save_ms : float list;
  mutable load_ms : float list;
  mutable merge_ms : float list;
  mutable preload_ms : float list;
  mutable load_failures : int;
  mutable affinities : int;
  mutable seeds : int;
}

let categories = [ "ddl"; "dml"; "dql"; "dcl"; "tcl"; "util" ]

let replay_create () =
  { stmt_us = Hashtbl.create 8; snapshot_us = []; restore_us = [];
    snapshot_bytes = []; parse_us = []; save_ms = []; load_ms = [];
    merge_ms = []; preload_ms = []; load_failures = 0; affinities = 0;
    seeds = 0 }

(* A seeded sample of at most [k] testcases: which ones the traced run
   replays is the workload seed's choice. *)
let sample ~seed ~k tcs =
  let a = Array.of_list tcs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* Replay each testcase statement by statement on a fresh engine, timing
   every statement by category, then snapshot/restore the final state;
   print and re-parse it with a grammar bitmap. Stops early at
   [deadline] so a corpus of heavy-tail statements cannot stall the
   run. *)
let replay_testcases rp ~profile ~deadline tcs =
  let cov = Coverage.Bitmap.create () in
  let grammar = Coverage.Bitmap.create () in
  List.iter
    (fun tc ->
       if now () < deadline then begin
         Coverage.Bitmap.reset cov;
         let e = Minidb.Engine.create ~profile ~cov () in
         (try
            List.iter
              (fun stmt ->
                 let cat =
                   String.lowercase_ascii
                     (Sqlcore.Stmt_type.category_name
                        (Sqlcore.Stmt_type.category
                           (Sqlcore.Ast.type_of_stmt stmt)))
                 in
                 let t0 = now () in
                 ignore (Minidb.Engine.exec_stmt e stmt);
                 let us = (now () -. t0) *. 1e6 in
                 let l =
                   match Hashtbl.find_opt rp.stmt_us cat with
                   | Some l -> l
                   | None ->
                     let l = ref [] in
                     Hashtbl.replace rp.stmt_us cat l;
                     l
                 in
                 l := us :: !l)
              tc
          with Minidb.Fault.Crashed _ -> ());
         let snap, dt = timed (fun () -> Minidb.Engine.snapshot e) in
         rp.snapshot_us <- (dt *. 1e6) :: rp.snapshot_us;
         rp.snapshot_bytes <-
           float_of_int (Minidb.Engine.snapshot_bytes snap) :: rp.snapshot_bytes;
         let _, dt = timed (fun () -> Minidb.Engine.restore snap ~cov ()) in
         rp.restore_us <- (dt *. 1e6) :: rp.restore_us;
         let sql = Sqlcore.Sql_printer.testcase tc in
         Coverage.Bitmap.reset grammar;
         let _, dt = timed (fun () -> Sqlparser.Parser.parse_testcase ~grammar sql) in
         rp.parse_us <- (dt *. 1e6) :: rp.parse_us
       end)
    tcs

(* Persist, reload, merge and resume a store snapshot the way the farm
   does, timing each public call. A snapshot that does not load back is
   counted, not fatal: a testcase whose printed form the parser rejects
   makes every generation holding it unloadable. *)
let replay_store rp ~dir (sn : Farm.Store.snapshot) =
  let campaign = sn.Farm.Store.sn_campaign in
  rp.affinities <- rp.affinities + List.length sn.Farm.Store.sn_affinities;
  rp.seeds <- rp.seeds + List.length sn.Farm.Store.sn_seeds;
  fresh_dir dir;
  for _ = 1 to 3 do
    let _, dt = timed (fun () -> Farm.Store.save ~dir sn) in
    rp.save_ms <- (dt *. 1e3) :: rp.save_ms;
    let loaded, dt = timed (fun () -> Farm.Store.load ~dir) in
    rp.load_ms <- (dt *. 1e3) :: rp.load_ms;
    (match loaded with
     | Ok (back, _, _) ->
       let _, dt = timed (fun () -> Farm.Store.merge_snapshots back sn) in
       rp.merge_ms <- (dt *. 1e3) :: rp.merge_ms
     | Error ws ->
       rp.load_failures <- rp.load_failures + 1;
       prerr_endline ("perfbench: store reload failed: " ^ String.concat "; " ws));
    match Farm.Spec.make ~campaign ~seed:campaign.Farm.Store.sc_seed with
    | Error e -> failf "store campaign: %s" e
    | Ok make ->
      let fz = make 0 in
      let _, dt = timed (fun () -> Farm.Resume.preload_fuzzer sn fz) in
      rp.preload_ms <- (dt *. 1e3) :: rp.preload_ms
  done;
  rm_rf dir

let replay_metrics rp =
  let arr l = Array.of_list l in
  let p50 l = Stats.percentile 50.0 (arr l) and p99 l = Stats.percentile 99.0 (arr l) in
  List.concat_map
    (fun cat ->
       let l = match Hashtbl.find_opt rp.stmt_us cat with Some l -> !l | None -> [] in
       [ (Printf.sprintf "engine.stmt_us.%s.p50" cat, p50 l);
         (Printf.sprintf "engine.stmt_us.%s.p99" cat, p99 l) ])
    categories
  @ [ ("engine.snapshot_us.p50", p50 rp.snapshot_us);
      ("engine.restore_us.p50", p50 rp.restore_us);
      ("engine.snapshot_bytes.p50", p50 rp.snapshot_bytes);
      ("sqlparser.parse_us.p50", p50 rp.parse_us);
      ("sqlparser.parse_us.p99", p99 rp.parse_us);
      ("farm.store.save_ms.p50", p50 rp.save_ms);
      ("farm.store.load_ms.p50", p50 rp.load_ms);
      ("farm.store.merge_ms.p50", p50 rp.merge_ms);
      ("farm.resume.preload_ms.p50", p50 rp.preload_ms);
      ("farm.store.load_failures", float_of_int rp.load_failures);
      ("core.affinities", float_of_int rp.affinities);
      ("core.seeds", float_of_int rp.seeds) ]

(* Per-layer metrics read off a (merged) harness registry. *)
let registry_metrics reg ~execs =
  let hits = counter reg "cache.hits" and misses = counter reg "cache.misses"
  and bypass = counter reg "cache.bypass" in
  let statements = counter reg "engine.statements_executed" in
  let oracle_checks =
    List.fold_left
      (fun acc n ->
         if String.starts_with ~prefix:"oracle." n
         && String.ends_with ~suffix:".checks" n
         then acc +. counter reg n
         else acc)
      0.0 (R.counter_names reg)
  in
  [ ("core.mutate.s", stage_s reg "mutate");
    ("core.mutate.calls", stage_calls reg "mutate");
    ("core.synthesize.s", stage_s reg "synthesize");
    ("core.synthesize.calls", stage_calls reg "synthesize");
    ("core.instantiate.s", stage_s reg "instantiate");
    ("core.instantiate.calls", stage_calls reg "instantiate");
    ("harness.execute.s", stage_s reg "execute");
    ("harness.grammar.s", stage_s reg "grammar");
    ("cache.hit_rate", ratio hits (hits +. misses));
    ("cache.bypass_share", ratio bypass (hits +. misses +. bypass));
    ("cache.evictions", counter reg "cache.evictions");
    ("cache.bytes_peak", float_of_int (R.gauge_value reg "cache.bytes"));
    ("cache.lookup.s", stage_s reg "cache_lookup");
    ("cache.restore.s", stage_s reg "cache_restore");
    ("cache.capture.s", stage_s reg "cache_capture");
    ("triage.s", stage_s reg "triage");
    ("oracle.s", stage_s reg "oracle");
    ("oracle.checks", oracle_checks);
    ("engine.statements", statements);
    ( "engine.rows_scanned_per_exec",
      ratio (counter reg "engine.rows_scanned") (float_of_int execs) );
    ("engine.sql_error_share", ratio (counter reg "engine.sql_errors") statements)
  ]

(* --- campaign workloads ----------------------------------------------- *)

type step = { s_us : float; s_execs : int; s_execute_us : int }

type cp = { cp_t : float; cp_snap : Fuzz.Driver.snapshot; cp_keys : int }

type campaign_out = {
  co_cfg : campaign;
  co_setup_s : float;
  co_run_s : float;   (* the budgeted campaign loop *)
  co_post_s : float;  (* crash/logic reduction and the schedule phase *)
  co_final : Fuzz.Driver.snapshot;
  co_keys : int;
  co_cps : cp list;   (* oldest first *)
  co_steps : step list;
  co_failed : int;
  co_bugs : string list;  (* campaign and schedule-phase bug ids *)
  co_logic : int;
  co_registry : R.t;  (* harness + reduce + schedule registries *)
  co_reduce_s : float;
  co_schedule_s : float;
  co_replay_mismatch : int;
  co_capture : Farm.Store.snapshot option;
}

let profile_of name =
  match Dialects.Registry.by_name name with
  | Some p -> p
  | None -> failf "unknown dialect %s" name

(* The step loop of [Driver.run_until_execs], with every [f_step] timed
   and the harness registry diffed around it. It fires checkpoints under
   the same rule, so its checkpoint series must equal the untraced
   run's. *)
let traced_loop (fz : Fuzz.Driver.fuzzer) ~execs ~every ~on_cp =
  let h = fz.Fuzz.Driver.f_harness in
  let reg = Fuzz.Harness.metrics h in
  let steps = ref [] in
  let i = ref 0 and last_cp = ref 0 and stalled = ref 0 in
  while Fuzz.Harness.execs h < execs do
    incr i;
    let before = Fuzz.Harness.execs h in
    let base = R.snapshot reg in
    let t0 = now () in
    fz.Fuzz.Driver.f_step ();
    let dt = now () -. t0 in
    let d = R.diff reg ~since:base in
    let e = Fuzz.Harness.execs h in
    steps :=
      { s_us = dt *. 1e6; s_execs = e - before;
        s_execute_us = hist_sum d "stage.execute.us" }
      :: !steps;
    if e = before then begin
      incr stalled;
      if !stalled >= Fuzz.Driver.default_max_stall then
        raise (Fuzz.Driver.Stalled (fz.Fuzz.Driver.f_name ^ " stalled"))
    end
    else stalled := 0;
    if every > 0 && e - !last_cp >= every && e < execs then begin
      last_cp := e;
      on_cp (Fuzz.Driver.snapshot fz ~iteration:!i)
    end
  done;
  (Fuzz.Driver.snapshot fz ~iteration:!i, List.rev !steps)

(* The post-campaign work [legofuzz fuzz] does: reduce every unique crash
   and logic finding (256 tries each), then the interleaving-schedule
   phase when sessions > 1. *)
let post_campaign c ~profile (fz : Fuzz.Driver.fuzzer) =
  let tri = Fuzz.Harness.triage fz.Fuzz.Driver.f_harness in
  let post = R.create () in
  let sp_reduce = Telemetry.Span.stage post "reduce" in
  let c_tries = R.counter post "reducer.tries" in
  let (), reduce_s =
    timed (fun () ->
        List.iter
          (fun ((cr : Minidb.Fault.crash), tc) ->
             Option.iter
               (fun tc ->
                  let bug_id = cr.Minidb.Fault.c_bug.Minidb.Fault.bug_id in
                  let out =
                    Telemetry.Span.time sp_reduce (fun () ->
                        Fuzz.Reducer.reduce ~profile ~max_tries:256 ~bug_id tc)
                  in
                  R.incr ~by:out.Fuzz.Reducer.r_tries c_tries)
               tc)
          (Fuzz.Triage.unique_with_cases tri);
        List.iter
          (fun ((v : Oracle.Violation.t), tc) ->
             Option.iter
               (fun tc ->
                  let suite = Oracle.Suite.create profile in
                  let key = Oracle.Violation.key v in
                  let pred candidate =
                    List.exists
                      (fun v' -> String.equal (Oracle.Violation.key v') key)
                      (Oracle.Suite.check suite candidate).Oracle.Suite.oc_violations
                  in
                  let out =
                    Telemetry.Span.time sp_reduce (fun () ->
                        Fuzz.Reducer.reduce_with ~pred ~max_tries:256 tc)
                  in
                  R.incr ~by:out.Fuzz.Reducer.r_tries c_tries)
               tc)
          (Fuzz.Triage.unique_logic tri))
  in
  let sched = R.create () in
  let sr, schedule_s =
    timed (fun () ->
        if c.c_sessions > 1 && c.c_schedules > 0 then
          Some
            (Fuzz.Schedule.campaign ~metrics:sched ~profile
               ~sessions:c.c_sessions ~schedules:c.c_schedules ~seed:c.c_seed
               ~corpus:(Fuzz.Corpus.initial profile) ())
        else None)
  in
  R.merge ~into:post sched;
  (post, reduce_s, schedule_s, sr)

let run_campaign ~traced ~setup_reps c =
  let profile = profile_of c.c_dialect in
  let make =
    match
      Farm.Spec.fuzzer_factory ~oracles:c.c_oracles ~exec_cache:1024
        ~feedback:c.c_feedback ~name:c.c_fuzzer ~profile ~seed:c.c_seed ()
    with
    | Ok m -> m
    | Error e -> failwith e
  in
  (* Set up several times and keep the last fuzzer: the median build time
     is the campaign's set-up cost. *)
  let builds = List.init setup_reps (fun _ -> timed (fun () -> make 0)) in
  let fz = fst (List.nth builds (setup_reps - 1)) in
  let setup_s = Stats.median (Array.of_list (List.map snd builds)) in
  let every = max 1 (c.c_execs / 40) in
  let cps = ref [] in
  let t0 = now () in
  let on_cp snap =
    cps :=
      { cp_t = now () -. t0; cp_snap = snap;
        cp_keys = Farm.Scheduler.coverage_keys fz }
      :: !cps
  in
  let (final, steps, failed), run_s =
    timed (fun () ->
        try
          if traced then
            let final, steps = traced_loop fz ~execs:c.c_execs ~every ~on_cp in
            (final, steps, 0)
          else
            let res =
              Fuzz.Campaign.run ~checkpoint_every:every
                ~on_checkpoint:(fun cp -> on_cp cp.Fuzz.Driver.cp_snapshot)
                ~jobs:1 ~execs:c.c_execs (fun _ -> fz)
            in
            (res.Fuzz.Campaign.cg_snapshot, [], 0)
        with Fuzz.Driver.Stalled _ | Sys_error _ | Failure _ | Not_found
           | Invalid_argument _ | Stack_overflow ->
          let s = Fuzz.Driver.snapshot fz ~iteration:0 in
          (s, [], max 1 (c.c_execs - s.Fuzz.Driver.st_execs)))
  in
  let keys = Farm.Scheduler.coverage_keys fz in
  let (post, reduce_s, schedule_s, sr), post_s =
    timed (fun () -> post_campaign c ~profile fz)
  in
  let registry = R.snapshot (Fuzz.Harness.metrics fz.Fuzz.Driver.f_harness) in
  R.merge ~into:registry post;
  let tri = Fuzz.Harness.triage fz.Fuzz.Driver.f_harness in
  let sched_bugs, sched_logic, mismatch =
    match sr with
    | Some sr ->
      ( Fuzz.Triage.bug_ids sr.Fuzz.Schedule.sr_triage,
        Fuzz.Triage.logic_count sr.Fuzz.Schedule.sr_triage,
        sr.Fuzz.Schedule.sr_replay_mismatch )
    | None -> ([], 0, 0)
  in
  let capture =
    if not traced then None
    else
      let campaign =
        { Farm.Store.sc_id = "replay"; sc_fuzzer = c.c_fuzzer;
          sc_dialect = c.c_dialect; sc_quirks = []; sc_feedback = c.c_feedback;
          sc_oracles = c.c_oracles; sc_exec_cache = 1024; sc_seed = c.c_seed;
          sc_budget = c.c_execs }
      in
      let res =
        { Fuzz.Campaign.cg_snapshot = final;
          cg_shards =
            [ { Fuzz.Campaign.sh_id = 0; sh_seed_offset = 0;
                sh_snapshot = final; sh_fuzzer = fz } ];
          cg_crashes = Fuzz.Triage.unique_with_cases tri;
          cg_logic = Fuzz.Triage.unique_logic tri; cg_sync_rounds = 0;
          cg_metrics = registry }
      in
      Some
        (Farm.Resume.capture ~prior:(Farm.Store.empty_snapshot campaign)
           ~campaign
           ~progress:
             { Farm.Store.pr_execs_done = final.Fuzz.Driver.st_execs;
               pr_epoch = 0 }
           res)
  in
  { co_cfg = c; co_setup_s = setup_s; co_run_s = run_s; co_post_s = post_s;
    co_final = final; co_keys = keys; co_cps = List.rev !cps;
    co_steps = steps; co_failed = failed;
    co_bugs =
      List.sort_uniq compare (final.Fuzz.Driver.st_bugs @ sched_bugs);
    co_logic = Fuzz.Triage.logic_count tri + sched_logic;
    co_registry = registry; co_reduce_s = reduce_s;
    co_schedule_s = schedule_s; co_replay_mismatch = mismatch;
    co_capture = capture }

(* Seconds to reach 90% of a campaign's final coverage keys, read off its
   checkpoints (the whole loop when no checkpoint reaches it). *)
let t90 co =
  let target = 0.9 *. float_of_int co.co_keys in
  match List.find_opt (fun cp -> float_of_int cp.cp_keys >= target) co.co_cps with
  | Some cp -> cp.cp_t
  | None -> co.co_run_s

(* Executions and seconds over the last quarter of the budget: from the
   first checkpoint at or past 75% of it to the end of the loop. *)
let late co =
  let mark = 3 * co.co_cfg.c_execs / 4 in
  match
    List.find_opt (fun cp -> cp.cp_snap.Fuzz.Driver.st_execs >= mark) co.co_cps
  with
  | Some cp ->
    ( float_of_int (co.co_final.Fuzz.Driver.st_execs - cp.cp_snap.Fuzz.Driver.st_execs),
      co.co_run_s -. cp.cp_t )
  | None -> (float_of_int co.co_final.Fuzz.Driver.st_execs, co.co_run_s)

let campaign_fingerprint co =
  let snap (s : Fuzz.Driver.snapshot) =
    J.Arr
      [ J.Int s.Fuzz.Driver.st_execs; J.Int s.st_branches;
        J.Int s.st_unique_crashes; J.Arr (List.map (fun b -> J.Str b) s.st_bugs) ]
  in
  let c = co.co_cfg in
  J.Obj
    [ (* the [legofuzz] arguments that run the same campaign *)
      ( "cli",
        J.Arr
          (List.map
             (fun a -> J.Str a)
             [ "fuzz"; "-f"; c.c_fuzzer; "-d"; c.c_dialect; "-s";
               string_of_int c.c_seed; "-n"; string_of_int c.c_execs;
               "--feedback"; Fuzz.Harness.feedback_to_string c.c_feedback;
               "--oracles"; (if c.c_oracles then "on" else "off");
               "--sessions"; string_of_int c.c_sessions; "--schedules";
               string_of_int c.c_schedules ]) );
      ("final", snap co.co_final); ("keys", J.Int co.co_keys);
      ("checkpoints", J.Arr (List.map (fun cp -> snap cp.cp_snap) co.co_cps));
      ("bugs", J.Arr (List.map (fun b -> J.Str b) co.co_bugs));
      ("logic", J.Int co.co_logic) ]

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Campaign workloads have no farm: their farm-only metrics read 0. *)
let farm_only_zero =
  [ "farm.round_ms.p50"; "farm.round_ms.p99"; "farm.store.reloads";
    "farm.store.reload_share"; "farm.store.bytes_per_round";
    "farm.worker.exec_imbalance" ]

let campaigns_run ~traced ~seed ~replay_s cfgs =
  let setup_reps = if List.length cfgs = 1 then 21 else 5 in
  let outs = List.map (run_campaign ~traced ~setup_reps) cfgs in
  let execs = sum (fun co -> float_of_int co.co_final.Fuzz.Driver.st_execs) outs in
  let wall = sum (fun co -> co.co_run_s +. co.co_post_s) outs in
  let late_execs = sum (fun co -> fst (late co)) outs
  and late_s = sum (fun co -> snd (late co)) outs in
  (* Bug ids are counted per campaign and summed: a sum over twelve
     campaigns varies far less with the workload seed than their union. *)
  let bugs = sum (fun co -> float_of_int (List.length co.co_bugs)) outs in
  let branches = sum (fun co -> float_of_int co.co_final.Fuzz.Driver.st_branches) outs in
  let end_to_end =
    [ ("setup_s", sum (fun co -> co.co_setup_s) outs);
      ("wall_s", wall);
      ("execs_per_s", ratio execs wall);
      ("late_execs_per_s", ratio late_execs late_s);
      ("peak_rss_mb", float_of_int (vm_hwm_kb "self") /. 1024.0);
      ("branches", branches);
      ("coverage_keys", sum (fun co -> float_of_int co.co_keys) outs);
      ("bugs", bugs) ]
  in
  let budget = List.fold_left (fun acc c -> acc + c.c_execs) 0 cfgs in
  let failed = List.fold_left (fun acc co -> acc + co.co_failed) 0 outs in
  let mismatch =
    List.fold_left (fun acc co -> acc + co.co_replay_mismatch) 0 outs
  in
  let checks =
    [ check "budget_spent" (failed = 0 && int_of_float execs >= budget)
        (Printf.sprintf "%.0f of %d execs, %d failed" execs budget failed);
      check "schedule_replay_mismatch_zero" (mismatch = 0)
        (Printf.sprintf "%d mismatching schedules" mismatch) ]
  in
  let per_layer =
    if not traced then []
    else begin
      let reg = R.create () in
      List.iter (fun co -> R.merge ~into:reg co.co_registry) outs;
      let steps = Array.of_list (List.concat_map (fun co -> co.co_steps) outs) in
      let step_us = Array.map (fun s -> s.s_us) steps in
      let tail_share = Stats.top_share 0.01 step_us in
      (* Execute share of the slowest 1% of steps: which layer the tail is. *)
      let tail_execute_share =
        let cut = Stats.percentile 99.0 step_us in
        let tail = List.filter (fun s -> s.s_us >= cut) (Array.to_list steps) in
        ratio
          (sum (fun s -> float_of_int s.s_execute_us) tail)
          (sum (fun s -> s.s_us) tail)
      in
      (* The age curve: throughput within each quarter of every campaign's
         budget, summed over campaigns. *)
      let windows = Array.make 4 (0.0, 0.0) in
      List.iter
        (fun co ->
           let done_ = ref 0 in
           List.iter
             (fun s ->
                let q = min 3 (4 * !done_ / max 1 co.co_cfg.c_execs) in
                done_ := !done_ + s.s_execs;
                let e, t = windows.(q) in
                windows.(q) <- (e +. float_of_int s.s_execs, t +. s.s_us /. 1e6))
             co.co_steps)
        outs;
      let rp = replay_create () in
      let deadline = now () +. replay_s in
      let per_campaign = max 20 (480 / List.length outs) in
      List.iter
        (fun co ->
           Option.iter
             (fun sn ->
                let profile = profile_of co.co_cfg.c_dialect in
                replay_testcases rp ~profile ~deadline
                  (sample ~seed ~k:per_campaign
                     (List.map (fun x -> x.Fuzz.Sync.xs_tc) sn.Farm.Store.sn_seeds)))
             co.co_capture)
        outs;
      List.iter
        (fun co ->
           Option.iter (replay_store rp ~dir:"store-replay")
             co.co_capture)
        outs;
      [ ("driver.step_us.p50", Stats.percentile 50.0 step_us);
        ("driver.step_us.p99", Stats.percentile 99.0 step_us);
        ("driver.step_us.max", Stats.percentile 100.0 step_us);
        ("driver.tail_share", tail_share);
        ("driver.tail_execute_share", tail_execute_share);
        ("t90_coverage_s", sum t90 outs) ]
      @ List.mapi
          (fun i (e, t) ->
             (Printf.sprintf "driver.window_execs_per_s.q%d" (i + 1), ratio e t))
          (Array.to_list windows)
      @ registry_metrics reg ~execs:(int_of_float execs)
      @ replay_metrics rp
      @ [ ("harness.interesting_share", ratio (float_of_int rp.seeds) execs);
          ("reducer.s", sum (fun co -> co.co_reduce_s) outs);
          ("reducer.tries", counter reg "reducer.tries");
          ("oracle.logic_findings",
           sum (fun co -> float_of_int co.co_logic) outs);
          ("schedule.phase_s", sum (fun co -> co.co_schedule_s) outs);
          ("schedule.steps", counter reg "schedule.steps");
          ("session.switches", counter reg "session.switches");
          ("schedule.replay_mismatch", float_of_int mismatch);
          ("failed_ops_share", ratio (float_of_int failed) (float_of_int budget))
        ]
      @ List.map (fun n -> (n, 0.0)) farm_only_zero
    end
  in
  { r_metrics = end_to_end @ per_layer; r_attempted = budget;
    r_failed = failed; r_checks = checks;
    r_fingerprint = J.Arr (List.map campaign_fingerprint outs) }

(* --- farm workloads --------------------------------------------------- *)

type farm_event = { fe_t : float; fe_point : Telemetry.Event.point }

(* A sink that only timestamps farm checkpoint events. *)
let timestamp_sink t0 events =
  { Telemetry.Sink.emit =
      (function
        | Telemetry.Event.Checkpoint { point; _ } ->
          events := { fe_t = now () -. !t0; fe_point = point } :: !events
        | _ -> ());
    close = ignore }

let run_farm ~procs ~legofuzz ~runs_dir ~on_heartbeat ~sink spec =
  fresh_dir runs_dir;
  if procs then
    let worker_cmd k =
      [| legofuzz; "worker"; "--worker-id"; string_of_int k; "--runs-dir";
         runs_dir; "--cow"; "on" |]
    in
    Farm.Scheduler.run_processes ~sink ~runs_dir ~worker_cmd
      ~heartbeat_timeout:30. ~on_heartbeat ~workers:2 spec
  else Farm.Scheduler.run ~sink ~runs_dir spec

(* Cumulative farm progress over time: per series, the latest execs and
   coverage keys, summed over series, after each checkpoint event. *)
let farm_curve events =
  let execs = Hashtbl.create 8 and keys = Hashtbl.create 8 in
  List.map
    (fun ev ->
       let p = ev.fe_point in
       Hashtbl.replace execs p.Telemetry.Event.p_series p.p_execs;
       Hashtbl.replace keys p.p_series p.p_branches;
       ( ev.fe_t,
         Hashtbl.fold (fun _ v acc -> acc + v) execs 0,
         Hashtbl.fold (fun _ v acc -> acc + v) keys 0 ))
    events

let farm_workload ~procs ~traced ~smoke ~seed ~replay_s ~legofuzz =
  let runs_dir = "farm-runs" in
  let worker_hwm = Hashtbl.create 4 in
  let on_heartbeat ~worker:_ ~pid =
    let kb = vm_hwm_kb (string_of_int pid) in
    let old = Option.value ~default:0 (Hashtbl.find_opt worker_hwm pid) in
    Hashtbl.replace worker_hwm pid (max old kb)
  in
  let total = if smoke then 2_000 else 36_000 in
  let spec = farm_spec ~smoke ~total ~round:250 in
  (* Set-up cost: what a fresh [Farm.Scheduler.run] does before its first
     round — for each campaign, look for a store generation and build its
     fuzzer — timed 21 times. (A whole minimal farm, persisting included,
     varied by a third between processes with the file system's
     latency.) *)
  let setup_s =
    Stats.median
      (Array.init 21 (fun _ ->
           snd
             (timed (fun () ->
                  List.iter
                    (fun (c : Farm.Store.campaign) ->
                       ignore
                         (Farm.Store.generations
                            ~dir:(Farm.Store.store_dir ~runs_dir c.Farm.Store.sc_id));
                       match
                         Farm.Spec.make ~campaign:c
                           ~seed:(Farm.Spec.epoch_seed ~campaign:c ~epoch:0)
                       with
                       | Ok make -> ignore (Farm.Scheduler.coverage_keys (make 0))
                       | Error e -> failf "farm set-up: %s" e)
                    spec.Farm.Spec.fs_campaigns))))
  in
  let events = ref [] and t0 = ref 0.0 in
  let sink = timestamp_sink t0 events in
  t0 := now ();
  let result, wall =
    timed (fun () -> run_farm ~procs ~legofuzz ~runs_dir ~on_heartbeat ~sink spec)
  in
  let res = match result with Ok r -> r | Error e -> failf "farm: %s" e in
  let events = List.rev !events in
  let camps = res.Farm.Scheduler.fr_campaigns in
  let csum f = List.fold_left (fun acc c -> acc + f c) 0 camps in
  let executed = csum (fun c -> c.Farm.Scheduler.fc_executed) in
  let curve = farm_curve events in
  let final_execs, final_keys =
    match List.rev curve with (_, e, k) :: _ -> (e, k) | [] -> (0, 0)
  in
  let late_execs, late_s =
    match List.find_opt (fun (_, e, _) -> 4 * e >= 3 * final_execs) curve with
    | Some (t, e, _) -> (float_of_int (final_execs - e), wall -. t)
    | None -> (float_of_int final_execs, wall)
  in
  let t90 =
    match List.find_opt (fun (_, _, k) -> 10 * k >= 9 * final_keys) curve with
    | Some (t, _, _) -> t
    | None -> wall
  in
  let rss_kb =
    vm_hwm_kb "self" + Hashtbl.fold (fun _ kb acc -> acc + kb) worker_hwm 0
  in
  let end_to_end =
    [ ("setup_s", setup_s); ("wall_s", wall);
      ("execs_per_s", ratio (float_of_int executed) wall);
      ("late_execs_per_s", ratio late_execs late_s);
      ("peak_rss_mb", float_of_int rss_kb /. 1024.0);
      ("branches", float_of_int (csum (fun c -> c.Farm.Scheduler.fc_branches)));
      ("coverage_keys",
       float_of_int (csum (fun c -> c.Farm.Scheduler.fc_coverage_keys)));
      ("bugs", float_of_int (csum (fun c -> List.length c.Farm.Scheduler.fc_bugs))) ]
  in
  let reg = res.Farm.Scheduler.fr_metrics in
  let names = R.counter_names reg in
  let sum_matching ~prefix ~suffix =
    List.fold_left
      (fun acc n ->
         if String.starts_with ~prefix n && String.ends_with ~suffix n
         then acc + R.counter_value reg n
         else acc)
      0 names
  in
  let restarts = sum_matching ~prefix:"farm.worker." ~suffix:".restarts" in
  let errored =
    List.length
      (List.filter (fun c -> c.Farm.Scheduler.fc_error <> None) camps)
  in
  let slices = csum (fun c -> c.Farm.Scheduler.fc_rounds) in
  let attempted = slices + restarts in
  let failed = restarts + errored in
  (* Findings: every store's dedup keys, none repeated within or across
     stores. *)
  let unloadable = ref [] in
  let stores =
    List.filter_map
      (fun c ->
         let id = c.Farm.Scheduler.fc_campaign.Farm.Store.sc_id in
         match Farm.Store.load ~dir:(Farm.Store.store_dir ~runs_dir id) with
         | Ok (sn, _, _) -> Some (id, sn)
         | Error ws ->
           unloadable := (id ^ ": " ^ String.concat "; " ws) :: !unloadable;
           None)
      camps
  in
  let keys =
    List.concat_map
      (fun (_, sn) -> sn.Farm.Store.sn_crash_keys @ sn.Farm.Store.sn_logic_keys)
      stores
  in
  let dup = List.length keys - List.length (List.sort_uniq compare keys) in
  let checks =
    [ check "farm_budget_dealt"
        (res.Farm.Scheduler.fr_allocated = total)
        (Printf.sprintf "%d of %d execs dealt" res.Farm.Scheduler.fr_allocated total);
      check "farm_no_failed_rounds" (failed = 0)
        (Printf.sprintf "%d restarts, %d campaign errors" restarts errored);
      check "farm_stores_load" (!unloadable = [])
        (String.concat " | " !unloadable);
      check "farm_no_duplicate_findings" (dup = 0)
        (Printf.sprintf "%d duplicate finding keys across %d stores" dup
           (List.length stores)) ]
  in
  let per_layer =
    if not traced then []
    else begin
      (* Round durations: from one round's last checkpoint to the next. *)
      let ends = Hashtbl.create 256 in
      List.iter
        (fun ev -> Hashtbl.replace ends ev.fe_point.Telemetry.Event.p_iteration ev.fe_t)
        events;
      let rounds = List.sort compare (Hashtbl.fold (fun r t acc -> (r, t) :: acc) ends []) in
      let round_ms =
        let prev = ref 0.0 in
        Array.of_list
          (List.map
             (fun (_, t) ->
                let d = (t -. !prev) *. 1e3 in
                prev := t;
                d)
             rounds)
      in
      let reloads = float_of_int (R.counter_value reg "farm.store.reloads") in
      let skipped = float_of_int (R.counter_value reg "farm.store.reload_skipped") in
      let worker_execs =
        List.filter_map
          (fun n ->
             if String.starts_with ~prefix:"farm.worker." n
             && String.ends_with ~suffix:".execs" n
             then Some (float_of_int (R.counter_value reg n))
             else None)
          names
      in
      let imbalance =
        match worker_execs with
        | [] -> 0.0
        | l ->
          ratio (List.fold_left max 0.0 l) (List.fold_left min infinity l)
      in
      let store_bytes =
        List.fold_left
          (fun acc (c : Farm.Scheduler.campaign_result) ->
             let dir =
               Farm.Store.store_dir ~runs_dir c.fc_campaign.Farm.Store.sc_id
             in
             let gen = Farm.Store.generation_dir ~dir c.fc_generation in
             acc +. float_of_int (dir_bytes gen * c.fc_rounds))
          0.0 camps
      in
      let rp = replay_create () in
      let deadline = now () +. replay_s in
      List.iter
        (fun (_, (sn : Farm.Store.snapshot)) ->
           match Farm.Spec.profile sn.Farm.Store.sn_campaign with
           | Ok profile ->
             replay_testcases rp ~profile ~deadline
               (sample ~seed ~k:120
                  (List.map (fun x -> x.Fuzz.Sync.xs_tc) sn.Farm.Store.sn_seeds))
           | Error e -> failf "store profile: %s" e)
        stores;
      List.iter
        (fun (_, sn) ->
           replay_store rp ~dir:"store-replay" sn)
        stores;
      let zero_driver =
        [ "driver.step_us.p50"; "driver.step_us.p99"; "driver.step_us.max";
          "driver.tail_share"; "driver.tail_execute_share";
          "driver.window_execs_per_s.q1"; "driver.window_execs_per_s.q2";
          "driver.window_execs_per_s.q3"; "driver.window_execs_per_s.q4";
          "reducer.s"; "reducer.tries"; "schedule.phase_s"; "schedule.steps";
          "session.switches"; "schedule.replay_mismatch" ]
      in
      List.map (fun n -> (n, 0.0)) zero_driver
      @ registry_metrics reg ~execs:executed
      @ replay_metrics rp
      @ [ ("harness.interesting_share",
           ratio (float_of_int rp.seeds) (float_of_int executed));
          ("oracle.logic_findings",
           float_of_int (csum (fun c -> c.Farm.Scheduler.fc_logic_unique)));
          ("t90_coverage_s", t90);
          ("farm.round_ms.p50", Stats.percentile 50.0 round_ms);
          ("farm.round_ms.p99", Stats.percentile 99.0 round_ms);
          ("farm.store.reloads", reloads);
          ("farm.store.reload_share", ratio reloads (reloads +. skipped));
          ("farm.store.bytes_per_round",
           ratio store_bytes (float_of_int res.Farm.Scheduler.fr_rounds));
          ("farm.worker.exec_imbalance", imbalance);
          ("failed_ops_share",
           ratio (float_of_int failed) (float_of_int attempted)) ]
    end
  in
  (* Which worker serves which campaign depends on timing, and a campaign
     that moves is reloaded on a fresh epoch seed, so the process
     backend's coverage and findings do not repeat exactly: only its
     dealt budget is part of its fingerprint. *)
  let fingerprint =
    if procs then
      J.Obj
        [ ("allocated", J.Int res.Farm.Scheduler.fr_allocated);
          ("campaigns", J.Int (List.length camps)) ]
    else
    J.Obj
      [ ("rounds", J.Int res.Farm.Scheduler.fr_rounds);
        ("allocated", J.Int res.Farm.Scheduler.fr_allocated);
        ( "campaigns",
          J.Arr
            (List.map
               (fun (c : Farm.Scheduler.campaign_result) ->
                  J.Arr
                    [ J.Str c.fc_campaign.Farm.Store.sc_id; J.Int c.fc_execs_done;
                      J.Int c.fc_coverage_keys; J.Int c.fc_crashes_unique;
                      J.Arr (List.map (fun b -> J.Str b) c.fc_bugs) ])
               camps) );
        ( "checkpoints",
          J.Arr
            (List.map
               (fun (r, s, e, k) -> J.Arr [ J.Int r; J.Str s; J.Int e; J.Int k ])
               (List.sort compare
                  (List.map
                     (fun ev ->
                        let p = ev.fe_point in
                        (p.Telemetry.Event.p_iteration, p.p_series, p.p_execs,
                         p.p_branches))
                     events))) ) ]
  in
  rm_rf runs_dir;
  { r_metrics = end_to_end @ per_layer;
    r_attempted = attempted; r_failed = failed; r_checks = checks;
    r_fingerprint = fingerprint }

(* --- entry point ------------------------------------------------------ *)

let workloads = [ "deep-campaign"; "young-grammar"; "farm-procs"; "farm-domains" ]

let run_workload ~workload ~seed ~traced ~smoke ~legofuzz =
  let replay_s = if smoke then 2.0 else 6.0 in
  match workload with
  | "deep-campaign" -> campaigns_run ~traced ~seed ~replay_s (deep_campaign ~smoke)
  | "young-grammar" ->
    campaigns_run ~traced ~seed ~replay_s (young_grammar ~smoke)
  | "farm-procs" -> farm_workload ~procs:true ~traced ~smoke ~seed ~replay_s ~legofuzz
  | "farm-domains" ->
    farm_workload ~procs:false ~traced ~smoke ~seed ~replay_s ~legofuzz
  | w -> failf "unknown workload %S (%s)" w (String.concat ", " workloads)

let result_json ~workload ~traced r =
  J.Obj
    [ ("workload", J.Str workload); ("traced", J.Bool traced);
      ("attempted", J.Int r.r_attempted); ("failed", J.Int r.r_failed);
      ( "checks",
        J.Arr
          (List.map
             (fun c ->
                J.Obj
                  [ ("name", J.Str c.ck_name); ("ok", J.Bool c.ck_ok);
                    ("detail", J.Str c.ck_detail) ])
             r.r_checks) );
      ("fingerprint", r.r_fingerprint);
      ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) r.r_metrics)) ]

(* --- calibration ------------------------------------------------------- *)

(* A fixed amount of persistent-map work — inserts, lookups, allocation
   and collection, like the engine's copy-on-write tables — timed. On a
   shared host the machine's speed drifts by up to half for tens of
   seconds at a time; this kernel's time tracks that drift, and
   [perfbench/run.py] scales each repetition's times by it. It uses only
   the standard library, so no change to the repository moves it. (Run
   on two domains at once for the two-domain farm, it varied more than
   the farm and tracked it worse than on one.) *)
module Int_map = Map.Make (Int)

let calibrate () =
  let rng = Random.State.make [| 7 |] in
  let m = ref Int_map.empty and acc = ref 0 in
  let t0 = now () in
  for i = 1 to 300_000 do
    m := Int_map.add (Random.State.int rng 1_000_000) i !m;
    match Int_map.find_opt (Random.State.int rng 1_000_000) !m with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  (now () -. t0, !acc)

let () =
  (* The CLI's settings: a 4 MiB minor heap and copy-on-write snapshots.
     Without the minor heap the benchmark measures a different (18%
     slower) program. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 512 * 1024 };
  Minidb.Catalog.set_copy_on_write true;
  let workload = ref "" and seed = ref 1 and traced = ref false
  and smoke = ref false and legofuzz = ref "" and work_dir = ref "." in
  let calibrate_only () =
    let dt, acc = calibrate () in
    Printf.printf "%d %.6f\n" acc dt;
    exit 0
  in
  Arg.parse
    [ ("--calibrate", Arg.Unit calibrate_only,
       " time the calibration kernel, print its checksum and seconds");
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 traced run");
      ("--smoke", Arg.Set smoke, " tiny budgets, for the benchmark's own tests");
      ("--legofuzz", Arg.Set_string legofuzz, "PATH legofuzz executable (farm workers)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (%s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  Farm.Store.ensure_dir !work_dir;
  Sys.chdir !work_dir;
  let r =
    run_workload ~workload:!workload ~seed:!seed ~traced:!traced ~smoke:!smoke
      ~legofuzz:!legofuzz
  in
  print_endline (J.to_string (result_json ~workload:!workload ~traced:!traced r))
