(* legofuzz: command-line driver for the LEGO reproduction
   ([legofuzz --help] lists the subcommands). *)

open Cmdliner

let dialect_conv =
  let parse name =
    match Dialects.Registry.by_name name with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown DBMS %S (try postgresql, mysql, mariadb, comdb2)" name))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Minidb.Profile.name p))

(* Campaign ids name directories under runs/, so anything that could
   escape it ("..", "/", a leading '.') is rejected at parse time. *)
let campaign_id =
  let parse s =
    if Farm.Spec.valid_id s then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf
              "invalid campaign id %S (letters, digits, '.', '_', '-')" s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* Input and usage errors: the message on stderr, then exit status
   [code]. *)
let die ?(code = 1) msg =
  prerr_endline msg;
  exit code

(* The one file-or-stdin read behind every subcommand that takes an
   input file: an unreadable input is reported as "path: reason" with
   exit status 1, never as an uncaught exception. *)
let read_input path =
  try
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_bin path In_channel.input_all
  with Sys_error e ->
    let prefix = path ^ ": " in
    die (if String.starts_with ~prefix e then e else prefix ^ e)

let read_testcase path =
  match Sqlparser.Parser.parse_testcase (read_input path) with
  | Ok tc -> tc
  | Error msg -> die ("parse error: " ^ msg)

let dialect_arg =
  let doc = "Simulated DBMS: postgresql, mysql, mariadb or comdb2." in
  Arg.(
    value
    & opt dialect_conv Dialects.Registry.pg_sim
    & info [ "d"; "dialect" ] ~docv:"DBMS" ~doc)

let execs_arg =
  let doc = "Execution budget." in
  Arg.(value & opt int 50_000 & info [ "n"; "execs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed (campaigns are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

(* Clamped to >= 1 here, once, for every subcommand that shards. *)
let jobs_arg =
  let doc =
    "Number of parallel campaign shards, run in fork-join rounds on at \
     most as many OCaml domains as the machine has cores. 1 = the exact \
     sequential behaviour; each shard gets a distinct derived seed and \
     1/JOBS of the execution budget."
  in
  Term.(
    const (max 1)
    $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc))

let sync_arg =
  let doc =
    "Executions between cross-shard coverage/crash syncs (jobs > 1 only)."
  in
  Arg.(
    value
    & opt int Fuzz.Sync.default_interval
    & info [ "sync-every" ] ~docv:"N" ~doc)

let onoff = Arg.enum [ ("on", true); ("off", false) ]

let exchange_arg =
  let doc =
    "Bidirectional exchange between shards at sync rounds (jobs > 1 \
     only): shards trade their coverage-increasing seeds, type-affinities \
     and AST skeletons, and pull the merged virgin map back; imported \
     affinities trigger LEGO's sequence synthesis on the importing shard. \
     $(b,on) or $(b,off)."
  in
  Arg.(value & opt onoff true & info [ "exchange" ] ~docv:"on|off" ~doc)

let oracles_arg =
  let doc =
    "Logic-bug oracles: replay every coverage-increasing, non-crashing \
     execution through the differential-plan, TLP-partitioning and \
     rewrite-consistency oracles (SQLancer-style) on a fault-free engine; \
     unique violations are reported and reduced like crashes. $(b,on) or \
     $(b,off)."
  in
  Arg.(value & opt onoff false & info [ "oracles" ] ~docv:"on|off" ~doc)

let exec_cache_arg =
  let doc =
    "Prefix-snapshot execution cache: seed statement prefixes are \
     captured as engine snapshots and mutants sharing a prefix resume \
     from the snapshot instead of replaying it, and a mutant that \
     prints like one run before is answered from memory. Outcomes — \
     coverage, crashes, oracle verdicts — are identical to cold \
     replays; only wall-clock changes. $(b,on) (1024 entries) or \
     $(b,off)."
  in
  Arg.(
    value
    & opt (enum [ ("on", 1024); ("off", 0) ]) 1024
    & info [ "exec-cache" ] ~docv:"on|off" ~doc)

let feedback_arg =
  let doc =
    "Coverage feedback driving the keep/analyze decision: $(b,edges) (the \
     engine edge bitmap — the paper's signal and the default, \
     byte-identical to earlier builds), $(b,grammar) (the grammar \
     rule-pair bitmap: every executed case is re-parsed and productions \
     fired under their parent production count as coverage), or \
     $(b,both) (either signal; also biases generation toward unfired \
     rule pairs)."
  in
  let feedback =
    List.map
      (fun f -> (Fuzz.Harness.feedback_to_string f, f))
      Fuzz.Harness.[ Edges; Grammar; Both ]
  in
  Arg.(
    value
    & opt (enum feedback) Fuzz.Harness.Edges
    & info [ "feedback" ] ~docv:"edges|grammar|both" ~doc)

(* Evaluating the term applies the setting; the value is what a farm
   passes on to its worker processes. *)
let cow_arg =
  let doc =
    "Copy-on-write engine snapshots: $(b,on) takes snapshots as O(1) \
     persistent-map handle copies, $(b,off) reverts to physical deep \
     copies (the pre-refactor representation, kept as an ablation). \
     Outcomes are identical either way; only wall-clock and snapshot \
     memory accounting change."
  in
  Term.(
    const (fun cow ->
        Minidb.Catalog.set_copy_on_write cow;
        cow)
    $ Arg.(value & opt onoff true & info [ "cow" ] ~docv:"on|off" ~doc))

let sessions_arg =
  let doc =
    "Concurrent sessions for the interleaving-schedule phase: after the \
     single-session campaign, corpus sequences are assigned to SESSIONS \
     sessions of one shared engine and executed under synthesized \
     interleavings (one statement at a time, in the schedule's total \
     order), hunting concurrency bugs and isolation violations no \
     single-session campaign can reach. 1 disables the phase."
  in
  Arg.(value & opt int 1 & info [ "sessions" ] ~docv:"N" ~doc)

let schedules_arg =
  let doc =
    "Interleaving schedules to synthesize and execute when --sessions > 1 \
     (each runs once on a fresh pool; a new finding is replayed from its \
     full schedule before it is minimized)."
  in
  Arg.(value & opt int 64 & info [ "schedules" ] ~docv:"M" ~doc)

(* --- campaign options -------------------------------------------------- *)

(* The configuration [fuzz] and [compare] share: every fuzzer of a
   comparison runs under exactly what one [fuzz] run would. *)
type campaign = {
  profile : Minidb.Profile.t;
  execs : int;
  seed : int;
  jobs : int;
  sync_every : int;
  exchange : bool;
  exec_cache : int;  (* entries; 0 = off *)
  feedback : Fuzz.Harness.feedback;
}

let campaign_term =
  let make profile execs seed jobs sync_every exchange exec_cache feedback =
    { profile; execs; seed; jobs; sync_every; exchange; exec_cache;
      feedback }
  in
  Term.(
    const make $ dialect_arg $ execs_arg $ seed_arg $ jobs_arg $ sync_arg
    $ exchange_arg $ exec_cache_arg $ feedback_arg)

(* The Meta event of a [fuzz] / [compare] run: [fuzzer] and [oracles]
   slot in where [fuzz] has them, [tail] closes the list. *)
let meta ~command ?fuzzer ?oracles ?(tail = []) c =
  let module J = Telemetry.Json in
  let some key f = Option.fold ~none:[] ~some:(fun v -> [ (key, f v) ]) in
  (("command", J.Str command) :: some "fuzzer" (fun f -> J.Str f) fuzzer)
  @ [ ("dialect", J.Str (Minidb.Profile.name c.profile));
      ("seed", J.Int c.seed); ("execs", J.Int c.execs);
      ("jobs", J.Int c.jobs); ("sync_every", J.Int c.sync_every);
      ("exchange", J.Bool c.exchange) ]
  @ some "oracles" (fun b -> J.Bool b) oracles
  @ [ ("exec_cache", J.Int c.exec_cache);
      ("feedback", J.Str (Fuzz.Harness.feedback_to_string c.feedback)) ]
  @ tail

let factory ?oracles c name =
  Farm.Spec.fuzzer_factory ?oracles ~exec_cache:c.exec_cache
    ~feedback:c.feedback ~name ~profile:c.profile ~seed:c.seed ()

let timed f =
  let start = Telemetry.Span.now_s () in
  let r = f () in
  (r, Telemetry.Span.now_s () -. start)

let run_campaign ?checkpoint_every ?series_prefix ~sink c make =
  timed (fun () ->
      Fuzz.Campaign.run ?checkpoint_every ?series_prefix
        ~sync_every:c.sync_every ~exchange:c.exchange ~sink ~jobs:c.jobs
        ~execs:c.execs make)

(* --- run output -------------------------------------------------------- *)

type output = { json : bool; telemetry : [ `None | `Jsonl ] }

let output_term =
  let telemetry_arg =
    let doc =
      "Telemetry recording: $(b,none) (console only; byte-identical \
       output to pre-telemetry builds for the same seed) or $(b,jsonl) \
       (also record every event under runs/ as a .jsonl stream for \
       $(b,legofuzz report))."
    in
    Arg.(
      value
      & opt (enum [ ("none", `None); ("jsonl", `Jsonl) ]) `None
      & info [ "telemetry" ] ~docv:"MODE" ~doc)
  in
  let json_arg =
    let doc =
      "Machine-readable output: print every telemetry event to stdout as \
       one JSON object per line instead of the human summary."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Term.(
    const (fun telemetry json -> { json; telemetry }) $ telemetry_arg
    $ json_arg)

(* The one run-output path: the console sink (human, or JSON lines with
   --json) teed with the JSONL recorder when recording, [meta] emitted
   first, then [body]. The sink is closed afterwards; an [Error] from
   [body] goes to stderr with exit status 1, success ends with the
   recording's "telemetry:" note. *)
let with_output ?dir ?append ?meta ~name out body =
  let console =
    if out.json then Telemetry.Sink.json_lines () else Telemetry.Sink.human ()
  in
  let sink, recording =
    match out.telemetry with
    | `None -> (console, None)
    | `Jsonl ->
      let recorder, path = Telemetry.Sink.jsonl ?dir ?append ~name () in
      (Telemetry.Sink.tee [ console; recorder ], Some path)
  in
  Option.iter (fun m -> Telemetry.Sink.emit sink (Telemetry.Event.Meta m)) meta;
  let result = body sink in
  Telemetry.Sink.close sink;
  match (result, recording) with
  | Error e, _ -> die e
  | Ok (), Some path when not out.json -> Printf.printf "telemetry: %s\n" path
  | Ok (), _ -> ()

(* A finished campaign's tail: the summary, then [between] (post-campaign
   stages whose registries join the aggregate dump), then the registry
   dumps — the aggregate, plus one per shard when sharded. [shards:false]
   leaves per-shard points out of the summary, so [compare] prints one
   line per fuzzer. *)
let report_campaign ?(prefix = "") ?(shards = true)
    ?(between = fun () -> []) ~name ~wall_s sink
    (res : Fuzz.Campaign.result) =
  let module E = Telemetry.Event in
  let snap = res.cg_snapshot in
  Telemetry.Sink.emit sink
    (E.Summary
       { point = Fuzz.Campaign.point_of ~series:name snap;
         shards =
           (if shards then
              List.map
                (fun (sh : Fuzz.Campaign.shard) ->
                   Fuzz.Campaign.point_of
                     ~series:(Printf.sprintf "shard-%d" sh.sh_id)
                     sh.sh_snapshot)
                res.cg_shards
            else []);
         sync_rounds = res.cg_sync_rounds;
         wall_s = Some wall_s;
         execs_per_sec =
           (if wall_s > 0.0 then
              Some (float_of_int snap.Fuzz.Driver.st_execs /. wall_s)
            else None) });
  let aggregate =
    match between () with
    | [] -> res.cg_metrics
    | extra ->
      let agg = Telemetry.Registry.snapshot res.cg_metrics in
      List.iter (fun r -> Telemetry.Registry.merge ~into:agg r) extra;
      agg
  in
  Telemetry.Sink.emit sink
    (E.Registry_dump { series = prefix ^ "aggregate"; registry = aggregate });
  if List.length res.cg_shards > 1 then
    List.iter
      (fun (sh : Fuzz.Campaign.shard) ->
         Telemetry.Sink.emit sink
           (E.Registry_dump
              { series = Printf.sprintf "%sshard-%d" prefix sh.sh_id;
                registry =
                  Fuzz.Harness.metrics sh.sh_fuzzer.Fuzz.Driver.f_harness }))
      res.cg_shards

(* --- fuzz ------------------------------------------------------------ *)

(* The one reproducer pipeline, for crashes and logic violations alike:
   print the finding, shrink its test case under [pred] (the finding
   still reproduces), print the reproducer and save it as [dir/file]. *)
let reproduce ~json ~save ~sp_reduce ~c_tries (pp, testcase, pred, file) =
  if not json then Format.printf "@.%t@." pp;
  Option.iter
    (fun tc ->
       let out =
         Telemetry.Span.time sp_reduce (fun () ->
             Fuzz.Reducer.reduce_with ~pred ~max_tries:256 tc)
       in
       Telemetry.Registry.incr ~by:out.Fuzz.Reducer.r_tries c_tries;
       let reduced = out.Fuzz.Reducer.r_testcase in
       let sql = Sqlcore.Sql_printer.testcase reduced in
       if not json then
         Printf.printf "reproducer (%d statements):\n%s\n"
           (List.length reduced) sql;
       Option.iter
         (fun dir ->
            let path = Filename.concat dir file in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (sql ^ "\n"));
            if not json then Printf.printf "saved to %s\n" path)
         save)
    testcase

(* Every finding of a campaign in reporting order — unique crashes,
   then logic violations — as [reproduce] takes it. *)
let findings profile (res : Fuzz.Campaign.result) =
  let crash ((c : Minidb.Fault.crash), tc) =
    let bug_id = c.c_bug.Minidb.Fault.bug_id in
    ( (fun ppf -> Minidb.Fault.pp_crash ppf c),
      tc,
      Fuzz.Reducer.crashes_with ~profile ~bug_id,
      bug_id ^ ".sql" )
  in
  let violation i ((v : Oracle.Violation.t), tc) =
    let key = Oracle.Violation.key v and suite = Oracle.Suite.create profile in
    let pred candidate =
      List.exists
        (fun v' -> String.equal (Oracle.Violation.key v') key)
        (Oracle.Suite.check suite candidate).Oracle.Suite.oc_violations
    in
    ( (fun ppf -> Oracle.Violation.pp ppf v),
      tc,
      pred,
      Printf.sprintf "logic-%s-%d.sql" v.vi_oracle i )
  in
  List.map crash res.cg_crashes @ List.mapi violation res.cg_logic

(* Interleaving-schedule phase: corpus sequences across concurrent
   sessions of one shared engine. Its schedule.* / session.* /
   oracle.isolation.* counters go into [metrics]. *)
let schedule_phase ~json ~metrics ~profile ~seed ~sessions ~schedules =
  let corpus = Fuzz.Corpus.initial profile in
  let sr =
    Fuzz.Schedule.campaign ~metrics ~profile ~sessions ~schedules ~seed
      ~corpus ()
  in
  if not json then begin
    Printf.printf
      "\nschedules: %d executed (%d steps, %d sessions), %d replay \
       mismatch(es)\n"
      sr.Fuzz.Schedule.sr_schedules sr.Fuzz.Schedule.sr_steps sessions
      sr.Fuzz.Schedule.sr_replay_mismatch;
    let repro what (id, steps) =
      Printf.printf "\n%s %s, minimized schedule (%d steps):\n%s\n" what id
        (Array.length steps)
        (Fuzz.Schedule.render_steps steps)
    in
    List.iter (repro "concurrency crash") sr.Fuzz.Schedule.sr_crash_repros;
    List.iter (repro "isolation violation")
      sr.Fuzz.Schedule.sr_violation_repros
  end

let fuzz_cmd =
  let fuzzer_arg =
    let doc = "Fuzzer: lego, lego-, squirrel, sqlancer or sqlsmith." in
    Arg.(
      value & opt string "lego" & info [ "f"; "fuzzer" ] ~docv:"FUZZER" ~doc)
  in
  let save_arg =
    let doc = "Directory to write one reduced .sql reproducer per bug." in
    Arg.(value & opt (some string) None & info [ "o"; "save" ] ~docv:"DIR" ~doc)
  in
  let store_arg =
    let doc =
      "Persist the campaign's final state (corpus, affinities, skeletons, \
       virgin maps, dedup keys) as a store generation under \
       runs/$(docv)/store, resumable with $(b,legofuzz resume) $(docv)."
    in
    Arg.(
      value
      & opt (some campaign_id) None
      & info [ "store" ] ~docv:"CAMPAIGN" ~doc)
  in
  let run c fuzzer oracles (_ : bool) sessions schedules out save store =
    let make =
      match factory ~oracles c fuzzer with
      | Ok make -> make
      | Error m -> die ~code:2 m
    in
    (* Create the reproducer directory up front: a bad path fails
       before the campaign, not after it. *)
    Option.iter
      (fun dir ->
         (try Farm.Store.ensure_dir dir with Sys_error e -> die e);
         if not (Sys.is_directory dir) then die (dir ^ ": not a directory"))
      save;
    let dialect = Minidb.Profile.name c.profile in
    if not out.json then
      Printf.printf "fuzzing %s with %s, %d executions, %d job(s)...\n%!"
        dialect fuzzer c.execs c.jobs;
    with_output out
      ~name:(Printf.sprintf "fuzz-%s-%s-seed%d" dialect fuzzer c.seed)
      ~meta:
        (meta ~command:"fuzz" ~fuzzer ~oracles c
           ~tail:
             [ ("sessions", Telemetry.Json.Int sessions);
               ("schedules", Telemetry.Json.Int schedules) ])
    @@ fun sink ->
    let res, wall_s =
      run_campaign ~checkpoint_every:(max 1 (c.execs / 5)) ~sink c make
    in
    (* Post-campaign stages run after the summary prints. Their spans and
       counters are collected in registries of their own and merged into
       the aggregate dump — "reduce" then shows up in the stage
       breakdown of [legofuzz report] next to execute/triage. *)
    let between () =
      let post = Telemetry.Registry.create () in
      let sp_reduce = Telemetry.Span.stage post "reduce" in
      let c_tries = Telemetry.Registry.counter post "reducer.tries" in
      List.iter
        (reproduce ~json:out.json ~save ~sp_reduce ~c_tries)
        (findings c.profile res);
      let sched = Telemetry.Registry.create () in
      if sessions > 1 && schedules > 0 then
        schedule_phase ~json:out.json ~metrics:sched ~profile:c.profile
          ~seed:c.seed ~sessions ~schedules;
      [ post; sched ]
    in
    report_campaign ~name:fuzzer ~between ~wall_s sink res;
    (* Persist the campaign as a resumable store generation. *)
    Option.iter
      (fun id ->
         let campaign =
           { Farm.Store.sc_id = id; sc_fuzzer = fuzzer; sc_dialect = dialect;
             sc_quirks = []; sc_feedback = c.feedback; sc_oracles = oracles;
             sc_exec_cache = c.exec_cache; sc_seed = c.seed;
             sc_budget = c.execs }
         in
         let snapshot =
           Farm.Resume.capture
             ~prior:(Farm.Store.empty_snapshot campaign)
             ~campaign
             ~progress:
               { Farm.Store.pr_execs_done =
                   res.cg_snapshot.Fuzz.Driver.st_execs;
                 pr_epoch = 0 }
             res
         in
         let dir = Farm.Store.store_dir id in
         let gen = Farm.Store.save ~dir snapshot in
         if not out.json then
           Printf.printf "store: %s (generation %d)\n" dir gen)
      store;
    Ok ()
  in
  let term =
    Term.(const run $ campaign_term $ fuzzer_arg $ oracles_arg $ cow_arg
          $ sessions_arg $ schedules_arg $ output_term $ save_arg
          $ store_arg)
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run one fuzzer on one simulated DBMS.") term

(* --- compare --------------------------------------------------------- *)

let compare_cmd =
  let run c out =
    let dialect = Minidb.Profile.name c.profile in
    with_output out
      ~name:(Printf.sprintf "compare-%s-seed%d" dialect c.seed)
      ~meta:(meta ~command:"compare" c)
    @@ fun sink ->
    List.iter
      (fun name ->
         match factory c name with
         | Error _ -> ()
         | Ok make ->
           (* The series prefix keeps the five fuzzers' checkpoint series
              apart in one recorded stream ("lego/aggregate", ...); the
              human sink only voices the unprefixed "aggregate" series,
              so compare's console output stays exactly summary lines. *)
           let prefix = name ^ "/" in
           let res, wall_s =
             run_campaign ~series_prefix:prefix ~sink c make
           in
           report_campaign ~prefix ~shards:false ~name ~wall_s sink res)
      [ "lego"; "lego-"; "squirrel"; "sqlancer"; "sqlsmith" ];
    Ok ()
  in
  let term = Term.(const run $ campaign_term $ output_term) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every fuzzer on one DBMS with the same budget.")
    term

(* --- resume ---------------------------------------------------------- *)

let resume_cmd =
  let id_arg =
    let doc = "Campaign id: the store under runs/$(docv)/store." in
    Arg.(
      required & pos 0 (some campaign_id) None & info [] ~docv:"CAMPAIGN" ~doc)
  in
  let execs_opt_arg =
    let doc =
      "Run N $(i,additional) executions, extending the stored budget; \
       without it the campaign runs its unspent remainder."
    in
    Arg.(value & opt (some int) None & info [ "n"; "execs" ] ~docv:"N" ~doc)
  in
  let run id execs jobs sync_every (_ : bool) out =
    let dir = Farm.Store.store_dir id in
    let run_dir = Filename.concat (Telemetry.Sink.runs_dir ()) id in
    Farm.Store.ensure_dir run_dir;
    (* Resumed segments append to the campaign's own events.jsonl, so one
       stream carries every epoch; the Meta event's resumed_from field
       marks each boundary. *)
    with_output out ~dir:run_dir ~append:true ~name:"events" @@ fun sink ->
    let result, wall_s =
      timed (fun () -> Farm.Resume.run ~jobs ?execs ~sync_every ~sink ~dir ())
    in
    Result.map
      (fun (r : Farm.Resume.outcome) ->
         List.iter (fun w -> Printf.eprintf "warning: %s\n" w) r.rs_warnings;
         if not out.json then
           Printf.printf
             "resumed %s from generation %d (epoch %d): +%d execs (%d/%d \
              total), generation %d written\n"
             id r.rs_from_generation r.rs_epoch r.rs_executed r.rs_execs_done
             r.rs_budget r.rs_generation;
         report_campaign ~name:r.rs_campaign.Farm.Store.sc_fuzzer ~wall_s sink
           r.rs_result)
      result
  in
  let term =
    Term.(const run $ id_arg $ execs_opt_arg $ jobs_arg $ sync_arg $ cow_arg
          $ output_term)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a stored campaign from its last good store generation: \
          rebuild the fuzzer, preload corpus/affinities/skeletons/virgin \
          maps/dedup keys, and continue the budget without re-reporting \
          old findings.")
    term

(* --- worker (internal) ----------------------------------------------- *)

(* The farm worker process entrypoint: spawned by `farm --workers N`,
   never run by hand. stdout carries protocol lines only, so the
   human-facing chatter other commands print must stay off this path. *)
let worker_cmd =
  let id_arg =
    let doc = "Worker slot id (tags store generation namespaces)." in
    Arg.(required & opt (some int) None & info [ "worker-id" ] ~docv:"K" ~doc)
  in
  let runs_dir_arg =
    let doc = "Runs directory the campaign stores live under." in
    Arg.(
      value & opt (some string) None & info [ "runs-dir" ] ~docv:"DIR" ~doc)
  in
  let hb_arg =
    let doc = "Executions between mid-round heartbeats." in
    Arg.(value & opt int 500 & info [ "heartbeat-execs" ] ~docv:"N" ~doc)
  in
  let run worker runs_dir heartbeat_execs (_ : bool) =
    Farm.Worker.serve ?runs_dir ~heartbeat_execs ~worker stdin stdout
  in
  let term =
    Term.(const run $ id_arg $ runs_dir_arg $ hb_arg $ cow_arg)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "(internal) Farm worker process: serves farm rounds over a \
          line-framed JSON protocol on stdin/stdout. Spawned by \
          $(b,legofuzz farm --workers N); not meant to be run by hand.")
    term

(* --- farm ------------------------------------------------------------ *)

let farm_cmd =
  let spec_arg =
    let doc =
      "Farm spec: a JSON file listing campaigns (id, fuzzer, dialect, \
       budget, optional quirks/feedback/oracles/exec_cache/seed) and the \
       global total_execs / round_execs / workers / policy knobs."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC.json" ~doc)
  in
  let workers_arg =
    let doc =
      "Run round slices in N spawned worker processes (the multi-process \
       backend: each worker is a separate $(b,legofuzz worker) process, \
       coordinated over pipes, merging results through store generation \
       namespaces). 0 (default) keeps the in-process domain pool sized by \
       the spec's $(b,workers) field."
    in
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let hb_timeout_arg =
    let doc =
      "Seconds of mid-round silence after which a worker process is \
       declared wedged, killed and its round re-queued (multi-process \
       backend only)."
    in
    Arg.(value & opt float 30. & info [ "heartbeat-timeout" ] ~docv:"S" ~doc)
  in
  let run spec_path workers heartbeat_timeout cow out =
    let spec =
      match Farm.Spec.of_string (read_input spec_path) with
      | Ok spec -> spec
      | Error e -> die ~code:2 (spec_path ^ ": " ^ e)
    in
    with_output out ~name:"farm" @@ fun sink ->
    if not out.json then
      Printf.printf
        "farm: %d campaign(s), %d total execs, %d per round, %s, %s \
         policy\n%!"
        (List.length spec.fs_campaigns) spec.fs_total_execs
        spec.fs_round_execs
        (if workers > 0 then Printf.sprintf "%d worker process(es)" workers
         else
           Printf.sprintf "up to %d domain(s)"
             (Reprutil.Pool.domains ~workers:spec.fs_workers
                ~jobs:(List.length spec.fs_campaigns)))
        (Farm.Spec.policy_to_string spec.fs_policy);
    let result, wall_s =
      timed (fun () ->
          if workers > 0 then
            let worker_argv k =
              [| Sys.executable_name; "worker"; "--worker-id";
                 string_of_int k; "--runs-dir"; Telemetry.Sink.runs_dir ();
                 "--cow"; (if cow then "on" else "off") |]
            in
            Farm.Scheduler.run_processes ~sink ~worker_cmd:worker_argv
              ~heartbeat_timeout ~workers spec
          else Farm.Scheduler.run ~sink spec)
    in
    Result.map
      (fun (res : Farm.Scheduler.result) ->
         List.iter (fun w -> Printf.eprintf "warning: %s\n" w) res.fr_warnings;
         if not out.json then begin
           Printf.printf "farm done: %d round(s), %d execs dealt, %.1fs\n"
             res.fr_rounds res.fr_allocated wall_s;
           List.iter
             (fun (c : Farm.Scheduler.campaign_result) ->
                Printf.printf
                  "  %-16s execs=%d/%d keys=%d(+%d) crashes(unique)=%d \
                   gen=%d%s%s%s\n"
                  c.fc_campaign.sc_id c.fc_execs_done c.fc_campaign.sc_budget
                  c.fc_coverage_keys c.fc_new_keys c.fc_crashes_unique
                  c.fc_generation
                  (match c.fc_resumed_from with
                   | Some g -> Printf.sprintf " resumed-from=%d" g
                   | None -> "")
                  (if c.fc_finished then " finished" else "")
                  (match c.fc_error with
                   | Some e -> " error: " ^ e
                   | None -> ""))
             res.fr_campaigns
         end)
      result
  in
  let term =
    Term.(const run $ spec_arg $ workers_arg $ hb_timeout_arg $ cow_arg
          $ output_term)
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Run a farm of campaigns over a domain pool — or, with \
          $(b,--workers N), over N spawned worker processes — \
          reallocating the execution budget each round with UCB1 over \
          new-coverage-key rewards; every campaign persists a resumable \
          store generation per round.")
    term

(* --- report ---------------------------------------------------------- *)

let report_cmd =
  let file_arg =
    let doc = "Recorded telemetry run (a runs/*.jsonl file)." in
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"RUN.jsonl" ~doc)
  in
  let run file =
    let lines = String.split_on_char '\n' (read_input file) in
    match Telemetry.Report.parse_lines lines with
    | Error msg -> die (file ^ ": " ^ msg)
    | Ok events -> print_string (Telemetry.Report.render events)
  in
  let term = Term.(const run $ file_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a recorded run: coverage-over-time series and \
          stage-time breakdown.")
    term

(* --- bugs ------------------------------------------------------------ *)

let bugs_cmd =
  let run profile =
    let bugs = Minidb.Profile.bugs profile in
    Printf.printf "%s: %d seeded bugs\n" (Minidb.Profile.name profile)
      (List.length bugs);
    List.iter
      (fun (b : Minidb.Fault.bug) ->
         Printf.printf "  %-12s %-10s %-5s %s\n" b.Minidb.Fault.bug_id
           b.Minidb.Fault.component
           (Minidb.Fault.kind_name b.Minidb.Fault.kind)
           b.Minidb.Fault.identifier)
      bugs
  in
  let term = Term.(const run $ dialect_arg) in
  Cmd.v
    (Cmd.info "bugs" ~doc:"Print the seeded bug inventory (Table I data).")
    term

(* --- affinities ------------------------------------------------------ *)

let affinities_cmd =
  let run profile execs seed =
    let cfg = { Lego.Lego_fuzzer.default_config with seed } in
    let t = Lego.Lego_fuzzer.create ~config:cfg profile in
    let _ = Fuzz.Driver.run_until_execs (Lego.Lego_fuzzer.fuzzer t) ~execs in
    let aff = Lego.Lego_fuzzer.affinities t in
    Printf.printf "%d affinities after %d executions on %s:\n"
      (Lego.Affinity.count aff) execs (Minidb.Profile.name profile);
    List.iter
      (fun (a, b) ->
         Printf.printf "  %s -> %s\n" (Sqlcore.Stmt_type.name a)
           (Sqlcore.Stmt_type.name b))
      (Lego.Affinity.pairs aff)
  in
  let term = Term.(const run $ dialect_arg $ execs_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "affinities"
       ~doc:"Run LEGO briefly and dump the learned type-affinity map.")
    term

(* --- exec ------------------------------------------------------------ *)

let exec_cmd =
  let file_arg =
    let doc = "SQL file to execute ('-' for stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run profile file =
    let tc = read_testcase file in
    let cov = Coverage.Bitmap.create () in
    let engine = Minidb.Engine.create ~profile ~cov () in
    (try
       List.iter
         (fun stmt ->
            Printf.printf "%s;\n" (Sqlcore.Sql_printer.stmt stmt);
            match Minidb.Engine.exec_stmt engine stmt with
            | Minidb.Engine.Ok_result
                (Minidb.Executor.Rows (headers, rows)) ->
              Printf.printf "  -> %s\n" (String.concat " | " headers);
              List.iter
                (fun row ->
                   Printf.printf "     %s\n"
                     (String.concat " | "
                        (Array.to_list
                           (Array.map Storage.Value.to_display row))))
                rows
            | Minidb.Engine.Ok_result (Minidb.Executor.Affected n) ->
              Printf.printf "  -> %d row(s)\n" n
            | Minidb.Engine.Ok_result (Minidb.Executor.Done msg) ->
              Printf.printf "  -> %s\n" msg
            | Minidb.Engine.Sql_failed e ->
              Printf.printf "  !! %s\n" (Minidb.Errors.message e))
         tc
     with Minidb.Fault.Crashed c ->
       Format.printf "@.*** server crash ***@.%a@." Minidb.Fault.pp_crash c);
    Printf.printf "\n%d branches covered\n"
      (Coverage.Bitmap.count_nonzero cov)
  in
  let term = Term.(const run $ dialect_arg $ file_arg) in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute a SQL file against a simulated DBMS.")
    term

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let sessions_arg =
    let doc = "Number of concurrent sessions served by the pool." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let run profile sessions =
    let sessions = max 1 sessions in
    let pool = Server.Session_pool.create ~sessions ~profile () in
    Printf.printf
      "legofuzz serve: %s, %d session(s). \"@N SQL\" runs SQL on session \
       N, \"@N\" switches; \\q quits.\n%!"
      (Minidb.Profile.name profile) sessions;
    let current = ref 0 in
    let rec loop () =
      Printf.printf "s%d> " !current;
      flush stdout;
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line ->
        let line = String.trim line in
        if line = "\\q" || line = "exit" then ()
        else if line = "" then loop ()
        else begin
          let sql, sid =
            if String.length line > 1 && line.[0] = '@' then begin
              let rest, digits =
                match String.index_opt line ' ' with
                | Some sp ->
                  ( String.sub line (sp + 1) (String.length line - sp - 1),
                    String.sub line 1 (sp - 1) )
                | None -> ("", String.sub line 1 (String.length line - 1))
              in
              match int_of_string_opt digits with
              | Some n when n >= 0 && n < sessions -> (rest, n)
              | _ ->
                Printf.printf "no such session %s (0..%d)\n" digits
                  (sessions - 1);
                ("", !current)
            end
            else (line, !current)
          in
          current := sid;
          (if sql <> "" then
             match Sqlparser.Parser.parse_testcase sql with
             | Error msg -> Printf.printf "parse error: %s\n" msg
             | Ok stmts ->
               List.iter
                 (fun stmt ->
                    print_endline
                      (Server.Wire.render
                         (Server.Session_pool.exec pool ~session:sid stmt)))
                 stmts);
          loop ()
        end
    in
    loop ()
  in
  let term = Term.(const run $ dialect_arg $ sessions_arg) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a multi-session MiniDB REPL on stdio: one shared store, \
          per-session transaction state, typed wire responses.")
    term

(* --- reduce ----------------------------------------------------------- *)

let reduce_cmd =
  let file_arg =
    let doc = "SQL file holding the crashing test case ('-' for stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let bug_arg =
    let doc =
      "Internal bug id to preserve (see the $(b,bugs) subcommand); when \
       omitted, the bug the case currently triggers is used."
    in
    Arg.(value & opt (some string) None & info [ "b"; "bug" ] ~docv:"ID" ~doc)
  in
  let run profile file bug_opt =
    let tc = read_testcase file in
    let bug_id =
      match bug_opt with
      | Some id -> Some id
      | None -> (
          let engine = Minidb.Engine.create ~profile () in
          match
            (Minidb.Engine.run_testcase engine tc).Minidb.Engine.rs_crash
          with
          | Some c -> Some c.Minidb.Fault.c_bug.Minidb.Fault.bug_id
          | None -> None)
    in
    match bug_id with
    | None ->
      die ("the test case does not crash " ^ Minidb.Profile.name profile)
    | Some bug_id ->
      let out = Fuzz.Reducer.reduce ~profile ~bug_id tc in
      Printf.printf
        "-- reduced for %s: %d -> %d statements (%d oracle runs)\n%s\n"
        bug_id (List.length tc)
        (List.length out.Fuzz.Reducer.r_testcase)
        out.Fuzz.Reducer.r_tries
        (Sqlcore.Sql_printer.testcase out.Fuzz.Reducer.r_testcase)
  in
  let term = Term.(const run $ dialect_arg $ file_arg $ bug_arg) in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Shrink a crashing SQL test case while keeping the same bug.")
    term

let () =
  (* The fuzzing loop allocates short-lived values at a high rate
     (ASTs, sequence nodes, RNG state); the default 2 MiB minor heap
     forces a minor collection every few thousand executions. A 4 MiB
     nursery halves the collections while still fitting in L2/L3 (a
     much larger nursery measures slower: every allocation sweeps cold
     cache lines). Changes no observable behavior. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 512 * 1024 };
  let doc = "LEGO (ICDE'23) sequence-oriented DBMS fuzzing, reproduced." in
  let info = Cmd.info "legofuzz" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fuzz_cmd; compare_cmd; farm_cmd; worker_cmd; resume_cmd;
            report_cmd; bugs_cmd; affinities_cmd; exec_cmd; serve_cmd;
            reduce_cmd ]))
