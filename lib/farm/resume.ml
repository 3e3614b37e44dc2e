(* Resume a campaign from its store: rebuild, preload, continue, persist. *)

type outcome = {
  rs_result : Fuzz.Campaign.result;
  rs_campaign : Store.campaign;
  rs_from_generation : int;
  rs_generation : int;
  rs_epoch : int;
  rs_preloaded_crashes : int;
  rs_preloaded_logic : int;
  rs_executed : int;
  rs_execs_done : int;
  rs_budget : int;
  rs_warnings : string list;
}

let merge_compact_into bitmap compact =
  let tmp = Coverage.Bitmap.create () in
  Coverage.Bitmap.load_compact ~into:tmp compact;
  ignore (Coverage.Bitmap.merge ~into:bitmap tmp)

(* Import order matters: skeletons before affinities, so affinity-driven
   sequence synthesis finds structures to instantiate from the first
   imported pair on. Imports are pure store operations — no executions,
   no RNG draws — so preloading costs nothing against the budget. *)
let preload_fuzzer (sn : Store.snapshot) (fz : Fuzz.Driver.fuzzer) =
  let h = fz.Fuzz.Driver.f_harness in
  merge_compact_into (Fuzz.Harness.virgin h) sn.sn_virgin;
  (match Fuzz.Harness.grammar_virgin h with
   | Some g -> merge_compact_into g sn.sn_grammar
   | None -> ());
  Fuzz.Triage.preload (Fuzz.Harness.triage h) ~crash_keys:sn.sn_crash_keys
    ~logic_keys:sn.sn_logic_keys;
  match fz.Fuzz.Driver.f_exchange with
  | None -> ()
  | Some port ->
    List.iter
      (fun st -> port.Fuzz.Sync.p_import (Fuzz.Sync.Skeleton st))
      sn.sn_skeletons;
    List.iter
      (fun xs -> port.Fuzz.Sync.p_import (Fuzz.Sync.Seed xs))
      sn.sn_seeds;
    List.iter
      (fun (a, b) -> port.Fuzz.Sync.p_import (Fuzz.Sync.Affinity (a, b)))
      sn.sn_affinities

let prime_sync (sn : Store.snapshot) sync =
  Fuzz.Sync.preload ~virgin:sn.sn_virgin ~gram:sn.sn_grammar
    ~crash_keys:sn.sn_crash_keys ~logic_keys:sn.sn_logic_keys
    ~seed_hashes:(List.map (fun (x : Fuzz.Sync.xseed) -> x.xs_cov_hash) sn.sn_seeds)
    ~affinity_keys:
      (List.map
         (fun (a, b) ->
            (Sqlcore.Stmt_type.to_index a, Sqlcore.Stmt_type.to_index b))
         sn.sn_affinities)
    ~skeleton_keys:(List.map Sqlcore.Sql_printer.stmt sn.sn_skeletons)
    sync

(* Fold a finished segment into a new snapshot: prior store entries plus
   every shard's drained exchange exports, union of prior and shard
   virgin maps, and dedup keys extended by the segment's new findings
   (preloaded keys never reappear in cg_crashes/cg_logic, so the append
   cannot duplicate). *)
let capture ~(prior : Store.snapshot) ~campaign ~progress
    (result : Fuzz.Campaign.result) =
  let acc = Store.acc_of_snapshot prior in
  let virgin_map = Coverage.Bitmap.create () in
  Coverage.Bitmap.load_compact ~into:virgin_map prior.sn_virgin;
  let grammar_map = Coverage.Bitmap.create () in
  Coverage.Bitmap.load_compact ~into:grammar_map prior.sn_grammar;
  List.iter
    (fun (sh : Fuzz.Campaign.shard) ->
       let fz = sh.sh_fuzzer in
       (match fz.Fuzz.Driver.f_exchange with
        | Some port -> Store.acc_add_export acc (port.Fuzz.Sync.p_export ())
        | None -> ());
       let h = fz.Fuzz.Driver.f_harness in
       ignore (Coverage.Bitmap.merge ~into:virgin_map (Fuzz.Harness.virgin h));
       match Fuzz.Harness.grammar_virgin h with
       | Some g -> ignore (Coverage.Bitmap.merge ~into:grammar_map g)
       | None -> ())
    result.cg_shards;
  let crash_keys =
    prior.sn_crash_keys
    @ List.map (fun (c, _) -> Fuzz.Triage.stack_key c) result.cg_crashes
  in
  let logic_keys =
    prior.sn_logic_keys
    @ List.map (fun (v, _) -> Oracle.Violation.key v) result.cg_logic
  in
  Store.acc_snapshot acc ~campaign ~progress
    ~virgin:(Coverage.Bitmap.compact virgin_map)
    ~grammar:(Coverage.Bitmap.compact grammar_map)
    ~crash_keys ~logic_keys

let run ?(jobs = 1) ?execs ?sync_every ?checkpoint_every
    ?(sink = Telemetry.Sink.null) ?keep ~dir () =
  match Store.load ~dir with
  | Error warnings ->
    Error
      (Printf.sprintf "cannot load store under %s: %s" dir
         (String.concat "; " warnings))
  | Ok (sn, from_gen, warnings) ->
    let campaign = sn.sn_campaign and progress = sn.sn_progress in
    let remaining, budget =
      match execs with
      | Some n -> (n, max campaign.sc_budget (progress.pr_execs_done + n))
      | None -> (campaign.sc_budget - progress.pr_execs_done, campaign.sc_budget)
    in
    if remaining <= 0 then
      Error
        (Printf.sprintf
           "campaign %S already spent its budget (%d/%d execs); pass a \
            positive exec count to extend"
           campaign.sc_id progress.pr_execs_done campaign.sc_budget)
    else begin
      let campaign = { campaign with sc_budget = budget } in
      let epoch = progress.pr_epoch + 1 in
      let seed = Spec.epoch_seed ~campaign ~epoch in
      match Spec.make ~campaign ~seed with
      | Error e -> Error e
      | Ok base ->
        let make shard_id =
          let fz = base shard_id in
          preload_fuzzer sn fz;
          fz
        in
        Telemetry.Sink.emit sink
          (Telemetry.Event.Meta
             [ ("command", Telemetry.Json.Str "resume");
               ("campaign", Telemetry.Json.Str campaign.sc_id);
               ("fuzzer", Telemetry.Json.Str campaign.sc_fuzzer);
               ("dialect", Telemetry.Json.Str campaign.sc_dialect);
               ("seed", Telemetry.Json.Int campaign.sc_seed);
               ("epoch", Telemetry.Json.Int epoch);
               ("resumed_from", Telemetry.Json.Int from_gen);
               ("execs_done", Telemetry.Json.Int progress.pr_execs_done);
               ("budget", Telemetry.Json.Int budget);
               ("jobs", Telemetry.Json.Int jobs) ]);
        match
          try
            Ok
              (Fuzz.Campaign.run ?sync_every ?checkpoint_every ~sink
                 ~exchange:Fuzz.Sync.exchange_all ~prime_sync:(prime_sync sn)
                 ~jobs ~execs:remaining make)
          with Fuzz.Driver.Stalled msg ->
            Error (Printf.sprintf "campaign %S stalled: %s" campaign.sc_id msg)
        with
        | Error e -> Error e
        | Ok result ->
          let executed = result.cg_snapshot.st_execs in
          let progress' =
            { Store.pr_execs_done = progress.pr_execs_done + executed;
              pr_epoch = epoch }
          in
          let snapshot' = capture ~prior:sn ~campaign ~progress:progress' result in
          let generation = Store.save ?keep ~dir snapshot' in
          Ok
            { rs_result = result; rs_campaign = campaign;
              rs_from_generation = from_gen; rs_generation = generation;
              rs_epoch = epoch;
              rs_preloaded_crashes = List.length sn.sn_crash_keys;
              rs_preloaded_logic = List.length sn.sn_logic_keys;
              rs_executed = executed;
              rs_execs_done = progress.pr_execs_done + executed;
              rs_budget = budget; rs_warnings = warnings }
    end
