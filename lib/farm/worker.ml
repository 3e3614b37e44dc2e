(* One campaign slice — the farm's unit of work — and the worker process
   that serves slices (DESIGN.md §16–17). Both farm backends run a round
   of one campaign through [run_slice]: the in-process domain pool on
   live states it opened at farm start, [legofuzz worker] on states it
   (re)loads from the campaign store. A slice runs the allocated execs,
   snapshots the campaign into a new store generation (the worker's
   gen-NNNNNN.wK namespace, invisible until the coordinator promotes it)
   and returns the round report. Between rounds a worker keeps each
   campaign's fuzzer alive; a manifest-digest probe decides whether the
   store moved under it (another worker promoted news) and only then
   pays for a full reload. *)

let coverage_keys (fz : Fuzz.Driver.fuzzer) =
  let h = fz.Fuzz.Driver.f_harness in
  Fuzz.Harness.branches h
  + (match Fuzz.Harness.grammar_virgin h with
     | Some g -> Coverage.Bitmap.count_nonzero g
     | None -> 0)

type live = {
  lv_campaign : Store.campaign;
  lv_fuzzer : Fuzz.Driver.fuzzer;
  lv_acc : Store.acc;
  lv_prior_execs : int;  (* execs_done carried in from the store *)
  lv_epoch : int;
  mutable lv_keys : int;
  mutable lv_error : string option;
}

let open_campaign ?snapshot (c : Store.campaign) =
  (* A snapshot without history (no execs, epoch 0: a store the process
     coordinator just seeded) is a fresh campaign, so both backends start
     it on the same epoch-0 stream. Anything with history resumes on a
     new epoch stream so it never replays the interrupted epoch's
     decisions. *)
  let prior, epoch =
    match snapshot with
    | Some { Store.sn_progress = { pr_execs_done = e; pr_epoch = p }; _ }
      when e > 0 || p > 0 ->
      (e, p + 1)
    | _ -> (0, 0)
  in
  match Spec.make ~campaign:c ~seed:(Spec.epoch_seed ~campaign:c ~epoch) with
  | Error e -> Error e
  | Ok base ->
    let fz = base 0 in
    Option.iter (fun sn -> Resume.preload_fuzzer sn fz) snapshot;
    Ok
      { lv_campaign = c; lv_fuzzer = fz;
        lv_acc =
          (match snapshot with
           | Some sn -> Store.acc_of_snapshot sn
           | None -> Store.acc_create ());
        lv_prior_execs = prior; lv_epoch = epoch; lv_keys = coverage_keys fz;
        lv_error = None }

(* Built eagerly: slices run on several domains at once, and forcing a
   shared lazy from two domains raises. *)
let empty_compact = Coverage.Bitmap.compact_of_cells []

let no_heartbeat = (max_int, fun ~execs:_ -> ())

let run_slice ?worker ?(heartbeat = no_heartbeat) ~dir lv ~execs ~round =
  let every, beat = heartbeat in
  let fz = lv.lv_fuzzer in
  let h = fz.Fuzz.Driver.f_harness in
  let before = Fuzz.Harness.execs h in
  let keys_before = lv.lv_keys in
  let target = before + execs in
  (* Execute in sub-slices so a heartbeat goes out every [every] execs
     even mid-round. Exceptions (Stalled, engine faults) retire the arm
     instead of killing the farm. *)
  (try
     while Fuzz.Harness.execs h < target && lv.lv_error = None do
       let now = Fuzz.Harness.execs h in
       let next = now + min every (target - now) in
       ignore (Fuzz.Driver.run_until_execs fz ~execs:next);
       beat ~execs:(Fuzz.Harness.execs h - before)
     done
   with
   | Fuzz.Driver.Stalled msg -> lv.lv_error <- Some ("stalled: " ^ msg)
   | exn -> lv.lv_error <- Some (Printexc.to_string exn));
  lv.lv_keys <- coverage_keys fz;
  let execs_done = lv.lv_prior_execs + Fuzz.Harness.execs h in
  (match fz.Fuzz.Driver.f_exchange with
   | Some port -> Store.acc_add_export lv.lv_acc (port.Fuzz.Sync.p_export ())
   | None -> ());
  let tri = Fuzz.Harness.triage h in
  let snapshot =
    Store.acc_snapshot lv.lv_acc ~campaign:lv.lv_campaign
      ~progress:{ Store.pr_execs_done = execs_done; pr_epoch = lv.lv_epoch }
      ~virgin:(Coverage.Bitmap.compact (Fuzz.Harness.virgin h))
      ~grammar:
        (match Fuzz.Harness.grammar_virgin h with
         | Some g -> Coverage.Bitmap.compact g
         | None -> empty_compact)
      ~crash_keys:(Fuzz.Triage.crash_keys tri)
      ~logic_keys:(Fuzz.Triage.logic_keys tri)
  in
  let gen =
    try Store.save ?worker ~dir snapshot
    with Sys_error _ | Unix.Unix_error _ -> 0
  in
  { Transport.rr_campaign = lv.lv_campaign.Store.sc_id; rr_round = round;
    rr_allocated = execs; rr_executed = Fuzz.Harness.execs h - before;
    rr_execs_done = execs_done; rr_branches = Fuzz.Harness.branches h;
    rr_coverage_keys = lv.lv_keys; rr_new_keys = lv.lv_keys - keys_before;
    rr_crashes_total = Fuzz.Triage.total_crashes tri;
    rr_crashes_unique = Fuzz.Triage.unique_count tri;
    rr_logic_unique = Fuzz.Triage.logic_count tri;
    rr_bugs = Fuzz.Triage.bug_ids tri; rr_generation = gen;
    rr_finished = execs_done >= lv.lv_campaign.Store.sc_budget;
    rr_reloads = 0; rr_reload_skipped = 0; rr_error = lv.lv_error }

(* --- the worker process ---------------------------------------------- *)

type t = {
  t_worker : int;
  t_runs_dir : string option;
  t_heartbeat_execs : int;
  t_heartbeat : execs:int -> unit;
  t_states : (string, live * (string * string) list) Hashtbl.t;
      (* each campaign's live state, with the manifest digests of the
         plain generation it descends from — the reload short-circuit
         compares them against the store's newest plain generation *)
}

let default_heartbeat_execs = 500

(* A worker serving slot [worker]; [heartbeat] runs every
   [heartbeat_execs] executions mid-round with the round's running
   exec count. *)
let create ?runs_dir ?(heartbeat_execs = default_heartbeat_execs)
    ?(heartbeat = fun ~execs:_ -> ()) ~worker () =
  { t_worker = worker; t_runs_dir = runs_dir;
    t_heartbeat_execs = max 1 heartbeat_execs; t_heartbeat = heartbeat;
    t_states = Hashtbl.create 4 }

let error_report ~campaign ~execs ~round e =
  { Transport.rr_campaign = campaign; rr_round = round; rr_allocated = execs;
    rr_executed = 0; rr_execs_done = 0; rr_branches = 0; rr_coverage_keys = 0;
    rr_new_keys = 0; rr_crashes_total = 0; rr_crashes_unique = 0;
    rr_logic_unique = 0; rr_bugs = []; rr_generation = 0; rr_finished = false;
    rr_reloads = 0; rr_reload_skipped = 0; rr_error = Some e }

(* Newest plain generation's manifest digests — the store's identity as
   far as a reload is concerned. *)
let newest_digests ~dir =
  match List.rev (Store.generations ~dir) with
  | [] -> None
  | gen :: _ -> Store.manifest_digests (Store.generation_dir ~dir gen)

(* Full reload: parse the newest good generation under its read-mark and
   reopen the campaign from it (config and learned state from disk). *)
let load_live ~dir =
  match Store.load_marked ~dir with
  | Error warns ->
    Error
      (Printf.sprintf "cannot load store under %s: %s" dir
         (String.concat "; " warns))
  | Ok (sn, gen, _warns) ->
    Result.map
      (fun lv ->
         ( lv,
           Option.value ~default:[]
             (Store.manifest_digests (Store.generation_dir ~dir gen)) ))
      (open_campaign ~snapshot:sn sn.Store.sn_campaign)

(* One Run command: reload-or-reuse the campaign state, then
   [run_slice] into the worker's namespace. Never raises: load failures
   come back in [rr_error]. *)
let run_round t ~campaign ~execs ~round =
  let dir = Store.store_dir ?runs_dir:t.t_runs_dir campaign in
  let live, reloads =
    match Hashtbl.find_opt t.t_states campaign, newest_digests ~dir with
    | Some ((lv, d) as state), Some digests
      when lv.lv_error = None && digests = d ->
      (* The store still is what this live fuzzer descends from: skip
         the reload, keep the epoch running. *)
      (Ok state, 0)
    | _ -> (load_live ~dir, 1)
  in
  match live with
  | Error e -> error_report ~campaign ~execs ~round e
  | Ok (lv, digests) ->
    let r =
      run_slice ~worker:t.t_worker
        ~heartbeat:(t.t_heartbeat_execs, t.t_heartbeat) ~dir lv ~execs ~round
    in
    (* After the coordinator promotes gen-N.wK by rename, the plain
       gen-N carries these exact digests — the next round on this
       campaign short-circuits its reload. *)
    let digests =
      if r.rr_generation = 0 then digests
      else
        Option.value ~default:[]
          (Store.manifest_digests
             (Store.worker_generation_dir ~dir ~worker:t.t_worker
                r.rr_generation))
    in
    Hashtbl.replace t.t_states campaign (lv, digests);
    { r with rr_reloads = reloads; rr_reload_skipped = 1 - reloads }

(* The worker protocol loop: Hello, then serve Run commands until
   Shutdown, stdin EOF, or a malformed command (reported as Fatal — the
   coordinator decides what to do with the carcass). stdout carries
   protocol lines only. *)
let serve ?runs_dir ?heartbeat_execs ~worker ic oc =
  let emit m =
    output_string oc (Transport.message_to_line m);
    output_char oc '\n';
    flush oc
  in
  let t =
    create ?runs_dir ?heartbeat_execs
      ~heartbeat:(fun ~execs ->
        emit (Transport.Heartbeat { hb_worker = worker; hb_execs = execs }))
      ~worker ()
  in
  emit (Transport.Hello { h_worker = worker; h_pid = Unix.getpid () });
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line -> (
        match Transport.command_of_line line with
        | Error e ->
          emit (Transport.Fatal (Printf.sprintf "bad command line: %s" e))
        | Ok Transport.Shutdown -> ()
        | Ok (Transport.Run r) ->
          let report =
            run_round t ~campaign:r.rc_campaign ~execs:r.rc_execs
              ~round:r.rc_round
          in
          emit (Transport.Round report);
          loop ())
  in
  loop ()
