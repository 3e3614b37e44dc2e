(* The farm round loop (DESIGN.md §16–17). Each round: deal the budget,
   hand the round's (campaign, execs) jobs to a backend, then fold the
   returned round reports in job order — the fold is the only place that
   updates per-campaign records, rewards the bandit, bumps farm.*
   counters and emits checkpoints. A backend runs every job as one
   {!Worker.run_slice} and reports with the store generation already
   final: the in-process domain pool saves plain generations itself, the
   process backend promotes each worker generation before reporting. *)

type campaign_result = {
  fc_campaign : Store.campaign;
  fc_rounds : int;
  fc_allocated : int;
  fc_executed : int;
  fc_execs_done : int;
  fc_branches : int;
  fc_coverage_keys : int;
  fc_new_keys : int;
  fc_crashes_unique : int;
  fc_logic_unique : int;
  fc_bugs : string list;
  fc_generation : int;
  fc_resumed_from : int option;
  fc_finished : bool;
  fc_error : string option;
}

type result = {
  fr_campaigns : campaign_result list;
  fr_rounds : int;
  fr_allocated : int;
  fr_metrics : Telemetry.Registry.t;
  fr_warnings : string list;
}

let coverage_keys = Worker.coverage_keys

(* One round's deal: the policy's allocation
   over active arms, capped by each arm's remaining budget, with the
   overflow re-dealt to arms that still have spare capacity so the
   round's deal stays whole. *)
let deal_round ~policy ~bandit ~round_budget ~active ~remaining =
  let n = Array.length active in
  let alloc, pulls =
    match policy with
    | Spec.Bandit -> Bandit.allocate bandit ~budget:round_budget ~active
    | Spec.Round_robin ->
      let n_active =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 active
      in
      let alloc = Array.make n 0 and pulls = Array.make n 0 in
      if n_active > 0 then begin
        let base = round_budget / n_active
        and rem = ref (round_budget mod n_active) in
        Array.iteri
          (fun i is_active ->
             if is_active then begin
               alloc.(i) <- base + (if !rem > 0 then 1 else 0);
               if !rem > 0 then decr rem;
               pulls.(i) <- 1
             end)
          active
      end;
      (alloc, pulls)
  in
  let overflow = ref 0 in
  Array.iteri
    (fun i a ->
       if a > 0 then begin
         let cap = max 0 remaining.(i) in
         if a > cap then begin
           overflow := !overflow + (a - cap);
           alloc.(i) <- cap
         end
       end)
    (Array.copy alloc);
  Array.iteri
    (fun i _ ->
       if !overflow > 0 && active.(i) then begin
         let spare = max 0 (remaining.(i) - alloc.(i)) in
         let take = min spare !overflow in
         alloc.(i) <- alloc.(i) + take;
         overflow := !overflow - take
       end)
    alloc;
  (alloc, pulls)

(* Finding counts come back per live fuzzer (preloaded keys excluded); a
   worker reload starts a new one, so farm totals are the closed
   segments plus the live segment's latest report. *)
type findings = { f_total : int; f_crashes : int; f_logic : int }

let no_findings = { f_total = 0; f_crashes = 0; f_logic = 0 }

let add_findings a b =
  { f_total = a.f_total + b.f_total; f_crashes = a.f_crashes + b.f_crashes;
    f_logic = a.f_logic + b.f_logic }

(* The coordinator's view of one campaign, folded from round reports. *)
type crec = {
  c_campaign : Store.campaign;
  c_dir : string;
  c_resumed_from : int option;
  mutable c_execs_done : int;
  mutable c_keys : int;
  mutable c_branches : int;
  mutable c_new_keys : int;
  mutable c_rounds : int;
  mutable c_allocated : int;
  mutable c_executed : int;
  mutable c_closed : findings;
  mutable c_live : findings;
  mutable c_bugs : string list;
  mutable c_generation : int;
  mutable c_error : string option;
}

let crec ?resumed_from ?(generation = 0) ?(keys = 0) ?(branches = 0) ~dir
    ~execs_done c =
  { c_campaign = c; c_dir = dir; c_resumed_from = resumed_from;
    c_execs_done = execs_done; c_keys = keys; c_branches = branches;
    c_new_keys = 0; c_rounds = 0; c_allocated = 0; c_executed = 0;
    c_closed = no_findings; c_live = no_findings; c_bugs = [];
    c_generation = generation; c_error = None }

let remaining c = c.c_campaign.Store.sc_budget - c.c_execs_done
let finished c = remaining c <= 0
let alive c = c.c_error = None && not (finished c)

(* A backend runs one round's jobs and returns their reports in job
   order ([None]: the job could not be served). *)
type backend = {
  b_dispatch :
    round:int -> (int * int) array -> Transport.round_report option array;
  b_usable : unit -> bool;  (* false once no job can be served any more *)
  b_finish : unit -> unit;  (* after the last round *)
}

(* A campaign's newest good store generation at farm start, if any;
   skipped corrupt generations become farm warnings. *)
let load_existing warnings ~dir (c : Store.campaign) =
  let warn w = warnings := (c.sc_id ^ ": " ^ w) :: !warnings in
  if Store.generations ~dir = [] then None
  else
    match Store.load ~dir with
    | Ok (sn, gen, warns) ->
      List.iter warn warns;
      Some (sn, gen)
    | Error warns ->
      List.iter warn warns;
      warn "no valid store generation, starting fresh";
      None

let campaign_ctr metrics c which =
  Telemetry.Registry.counter metrics
    (Printf.sprintf "farm.%s.%s" c.c_campaign.Store.sc_id which)

(* Fold one round report into its campaign's record, counters and
   checkpoint stream; returns the bandit's key delta. *)
let fold_report ~sink ~metrics ~round c ~execs (r : Transport.round_report) =
  let per_ctr = campaign_ctr metrics c in
  let delta = max 0 r.rr_new_keys in
  c.c_rounds <- c.c_rounds + 1;
  c.c_allocated <- c.c_allocated + execs;
  c.c_executed <- c.c_executed + r.rr_executed;
  c.c_execs_done <- r.rr_execs_done;
  c.c_keys <- r.rr_coverage_keys;
  c.c_branches <- r.rr_branches;
  c.c_new_keys <- c.c_new_keys + delta;
  if r.rr_reloads > 0 then c.c_closed <- add_findings c.c_closed c.c_live;
  c.c_live <-
    { f_total = r.rr_crashes_total; f_crashes = r.rr_crashes_unique;
      f_logic = r.rr_logic_unique };
  c.c_bugs <- List.sort_uniq compare (c.c_bugs @ r.rr_bugs);
  if r.rr_generation > 0 then c.c_generation <- r.rr_generation;
  c.c_error <- r.rr_error;
  Telemetry.Registry.incr (per_ctr "rounds");
  Telemetry.Registry.incr ~by:execs (per_ctr "allocated");
  Telemetry.Registry.incr ~by:delta (per_ctr "new_keys");
  let f = add_findings c.c_closed c.c_live in
  Telemetry.Sink.emit sink
    (Telemetry.Event.Checkpoint
       { point =
           { Telemetry.Event.p_series = "farm/" ^ c.c_campaign.Store.sc_id;
             p_iteration = round; p_execs = c.c_execs_done;
             p_branches = c.c_keys; p_crashes_total = f.f_total;
             p_crashes_unique = f.f_crashes; p_bugs = c.c_bugs };
         wall_s = None; execs_per_sec = None });
  delta

let campaign_result c =
  let f = add_findings c.c_closed c.c_live in
  { fc_campaign = c.c_campaign; fc_rounds = c.c_rounds;
    fc_allocated = c.c_allocated; fc_executed = c.c_executed;
    fc_execs_done = c.c_execs_done; fc_branches = c.c_branches;
    fc_coverage_keys = c.c_keys; fc_new_keys = c.c_new_keys;
    fc_crashes_unique = f.f_crashes; fc_logic_unique = f.f_logic;
    fc_bugs = c.c_bugs; fc_generation = c.c_generation;
    fc_resumed_from = c.c_resumed_from; fc_finished = finished c;
    fc_error = c.c_error }

(* The one round loop: until the farm budget is dealt, every campaign is
   finished or dead, or the backend can serve nothing more. *)
let farm ~sink ~metrics ~meta ~workers ~warnings (spec : Spec.t) crecs
    backend =
  let rounds_ctr = Telemetry.Registry.counter metrics "farm.rounds" in
  let alloc_ctr = Telemetry.Registry.counter metrics "farm.allocated" in
  Array.iter
    (fun c ->
       List.iter
         (fun which -> ignore (campaign_ctr metrics c which))
         [ "rounds"; "allocated"; "new_keys" ])
    crecs;
  Telemetry.Sink.emit sink
    (Telemetry.Event.Meta
       ((("command", Telemetry.Json.Str "farm") :: meta)
        @ [ ("campaigns", Telemetry.Json.Int (Array.length crecs));
            ("total_execs", Telemetry.Json.Int spec.fs_total_execs);
            ("round_execs", Telemetry.Json.Int spec.fs_round_execs);
            ("workers", Telemetry.Json.Int workers);
            ("policy",
             Telemetry.Json.Str (Spec.policy_to_string spec.fs_policy)) ]));
  let bandit = Bandit.create ~c:spec.fs_ucb_c ~arms:(Array.length crecs) () in
  let dealt_total = ref 0 and round = ref 0 and progressed = ref true in
  while
    !progressed
    && !dealt_total < spec.fs_total_execs
    && Array.exists alive crecs
    && backend.b_usable ()
  do
    incr round;
    let round_budget =
      min spec.fs_round_execs (spec.fs_total_execs - !dealt_total)
    in
    let alloc, pulls =
      deal_round ~policy:spec.fs_policy ~bandit ~round_budget
        ~active:(Array.map alive crecs)
        ~remaining:(Array.map remaining crecs)
    in
    let jobs =
      Array.to_list (Array.mapi (fun i a -> (i, a)) alloc)
      |> List.filter (fun (_, a) -> a > 0)
      |> Array.of_list
    in
    (* Nothing allocatable (every active arm is out of budget, or the
       whole round's deal overflowed): stop instead of spinning. *)
    progressed := jobs <> [||];
    if !progressed then begin
      let reports = backend.b_dispatch ~round:!round jobs in
      let dealt = ref 0 in
      Array.iteri
        (fun k (i, execs) ->
           Option.iter
             (fun r ->
                let delta =
                  fold_report ~sink ~metrics ~round:!round crecs.(i) ~execs r
                in
                dealt := !dealt + execs;
                match spec.fs_policy with
                | Spec.Bandit ->
                  Bandit.update bandit ~arm:i ~pulls:pulls.(i)
                    ~reward:(float_of_int delta /. float_of_int (max 1 execs))
                | Spec.Round_robin -> ())
             reports.(k))
        jobs;
      dealt_total := !dealt_total + !dealt;
      if !dealt > 0 then begin
        Telemetry.Registry.incr rounds_ctr;
        Telemetry.Registry.incr ~by:!dealt alloc_ctr
      end
    end
  done;
  backend.b_finish ();
  Telemetry.Sink.emit sink
    (Telemetry.Event.Registry_dump { series = "farm"; registry = metrics });
  { fr_campaigns = Array.to_list (Array.map campaign_result crecs);
    fr_rounds = Telemetry.Registry.counter_value metrics "farm.rounds";
    fr_allocated = !dealt_total; fr_metrics = metrics;
    fr_warnings = List.rev !warnings }

(* ===================================================================== *)
(* In-process backend: a fork-join domain pool ({!Reprutil.Pool}) over
   live campaign states opened at farm start (spec config authoritative,
   learned state from the store). Each campaign runs entirely on one
   domain per round. *)

let run ?(sink = Telemetry.Sink.null) ?runs_dir (spec : Spec.t) =
  let warnings = ref [] in
  let rec open_all acc = function
    | [] -> Ok (List.rev acc)
    | (c : Store.campaign) :: rest -> (
        let dir = Store.store_dir ?runs_dir c.sc_id in
        let loaded = load_existing warnings ~dir c in
        match Worker.open_campaign ?snapshot:(Option.map fst loaded) c with
        | Error e -> Error e
        | Ok lv ->
          let cr =
            crec ?resumed_from:(Option.map snd loaded) ~keys:lv.Worker.lv_keys
              ~branches:
                (Fuzz.Harness.branches lv.lv_fuzzer.Fuzz.Driver.f_harness)
              ~dir ~execs_done:lv.lv_prior_execs c
          in
          open_all ((cr, lv) :: acc) rest)
  in
  match open_all [] spec.fs_campaigns with
  | Error e -> Error e
  | Ok opened ->
    let crecs = Array.of_list (List.map fst opened) in
    let lives = Array.of_list (List.map snd opened) in
    let slice i ~execs ~round =
      Worker.run_slice ~dir:crecs.(i).c_dir lives.(i) ~execs ~round
    in
    let dispatch ~round jobs =
      Reprutil.Pool.run ~workers:spec.fs_workers
        (Array.map (fun (i, execs) () -> Some (slice i ~execs ~round)) jobs)
    in
    let metrics = Telemetry.Registry.create () in
    (* Campaigns that never got a round still deserve a generation (the
       initial corpus is real learned state), and every campaign's
       harness metrics fold into the farm registry. *)
    let finish () =
      Array.iteri
        (fun i c ->
           if c.c_generation = 0 then
             c.c_generation <- (slice i ~execs:0 ~round:0).rr_generation;
           Telemetry.Registry.merge ~into:metrics
             (Telemetry.Registry.snapshot
                (Fuzz.Harness.metrics lives.(i).lv_fuzzer.f_harness)))
        crecs
    in
    Ok
      (farm ~sink ~metrics ~meta:[] ~workers:spec.fs_workers ~warnings spec
         crecs
         { b_dispatch = dispatch; b_usable = (fun () -> true);
           b_finish = finish })

(* ===================================================================== *)
(* Process backend (DESIGN.md §17): slices run in spawned worker
   processes speaking the Transport line protocol. The coordinator never
   builds a fuzzer — campaign state lives in the stores; workers persist
   rounds into their generation namespaces and the coordinator promotes
   them under the store lock. A worker that dies, wedges (missed
   heartbeats) or talks garbage is quarantined: killed, its in-flight
   job re-queued, the slot respawned until its restart budget runs
   out — never a farm abort. *)

type wslot = {
  w_id : int;
  w_buf : Buffer.t;
  mutable w_pid : int;
  mutable w_stdin : out_channel option;
  mutable w_fd : Unix.file_descr option;
  mutable w_last : float;  (* last protocol activity *)
  mutable w_job : (int * int) option;  (* (campaign index, execs) *)
  mutable w_affinity : string;  (* last campaign id served *)
  mutable w_restarts : int;
  mutable w_spawns : int;
  mutable w_live : bool;
  mutable w_retired : bool;
}

let default_worker_cmd ?runs_dir () k =
  let base =
    [ Sys.executable_name; "worker"; "--worker-id"; string_of_int k ]
  in
  let rd =
    match runs_dir with Some d -> [ "--runs-dir"; d ] | None -> []
  in
  Array.of_list (base @ rd)

(* Coordinator-side campaign init: make sure the store has a loadable
   generation carrying the spec's (authoritative) config, but build no
   fuzzer — workers do that from the store. *)
let init_store warnings ~runs_dir (c : Store.campaign) =
  let dir = Store.store_dir ?runs_dir c.sc_id in
  match load_existing warnings ~dir c with
  | None ->
    crec ~generation:(Store.save ~dir (Store.empty_snapshot c)) ~dir
      ~execs_done:0 c
  | Some (sn, gen) ->
    let generation =
      if sn.Store.sn_campaign <> c then
        Store.save ~dir { sn with Store.sn_campaign = c }
      else gen
    in
    crec ~resumed_from:gen ~generation ~dir
      ~execs_done:sn.Store.sn_progress.pr_execs_done c

let process_backend ~worker_cmd ~heartbeat_timeout ~max_restarts ~on_heartbeat
    ~metrics ~warnings slots crecs =
  let warn w = warnings := w :: !warnings in
  let counter name = Telemetry.Registry.counter metrics name in
  let wk_ctr k which = counter (Printf.sprintf "farm.worker.%d.%s" k which) in
  ignore (counter "farm.store.reloads");
  ignore (counter "farm.store.reload_skipped");
  Array.iter (fun w -> ignore (wk_ctr w.w_id "rounds")) slots;
  let now () = Unix.gettimeofday () in
  let spawn_slot w =
    let stdin_r, stdin_w = Unix.pipe () in
    let stdout_r, stdout_w = Unix.pipe () in
    Unix.set_close_on_exec stdin_w;
    Unix.set_close_on_exec stdout_r;
    let argv = worker_cmd w.w_id in
    let pid =
      try Some (Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr)
      with Unix.Unix_error _ | Invalid_argument _ -> None
    in
    Unix.close stdin_r;
    Unix.close stdout_w;
    match pid with
    | None ->
      Unix.close stdin_w;
      Unix.close stdout_r;
      w.w_live <- false;
      w.w_retired <- true;
      warn
        (Printf.sprintf "worker %d: cannot spawn %s" w.w_id
           (if Array.length argv > 0 then argv.(0) else "<empty argv>"))
    | Some pid ->
      w.w_pid <- pid;
      w.w_stdin <- Some (Unix.out_channel_of_descr stdin_w);
      w.w_fd <- Some stdout_r;
      Buffer.clear w.w_buf;
      w.w_last <- now ();
      w.w_job <- None;
      w.w_live <- true;
      w.w_spawns <- w.w_spawns + 1
  in
  let close_ends w =
    (match w.w_stdin with
     | Some oc -> (try close_out oc with Sys_error _ -> ())
     | None -> ());
    (match w.w_fd with
     | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    w.w_stdin <- None;
    w.w_fd <- None
  in
  let kill_slot ?(already_dead = false) w =
    close_ends w;
    if w.w_live && not already_dead && w.w_pid > 0 then begin
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    end;
    w.w_live <- false
  in
  (* The round in flight: jobs not yet sent, jobs not yet reported, and
     the reports so far, indexed by campaign. *)
  let round = ref 0 in
  let pending = ref [] in
  let outstanding = ref 0 in
  let reports = ref [||] in
  let fail_slot ?(already_dead = false) w reason =
    (match w.w_job with
     | Some ((i, _) as job) ->
       Store.discard_worker_generations ~dir:crecs.(i).c_dir ~worker:w.w_id;
       pending := !pending @ [ job ];
       w.w_job <- None
     | None -> ());
    w.w_restarts <- w.w_restarts + 1;
    Telemetry.Registry.incr (wk_ctr w.w_id "restarts");
    let retire = w.w_restarts > max_restarts in
    warn
      (Printf.sprintf "worker %d %s; %s" w.w_id reason
         (if retire then "retiring slot" else "restarting"));
    kill_slot ~already_dead w;
    if retire then w.w_retired <- true else spawn_slot w
  in
  let send w ((i, a) as job) =
    match w.w_stdin with
    | None -> false
    | Some oc -> (
        let id = crecs.(i).c_campaign.Store.sc_id in
        try
          output_string oc
            (Transport.command_to_line
               (Transport.Run
                  { rc_campaign = id; rc_execs = a; rc_round = !round }));
          output_char oc '\n';
          flush oc;
          w.w_job <- Some job;
          w.w_last <- now ();
          w.w_affinity <- id;
          true
        with Sys_error _ ->
          fail_slot w "stdin write failed";
          false)
  in
  (* Assignment prefers a job for the campaign the slot served last —
     that's what makes the worker's reload short-circuit hit. *)
  let pick w =
    let rec go acc = function
      | [] -> (
          match List.rev acc with
          | [] -> None
          | j :: rest -> Some (j, rest))
      | ((i, _) as j) :: rest
        when crecs.(i).c_campaign.Store.sc_id = w.w_affinity ->
        Some (j, List.rev_append acc rest)
      | j :: rest -> go (j :: acc) rest
    in
    go [] !pending
  in
  let assign () =
    Array.iter
      (fun w ->
         if w.w_live && not w.w_retired && w.w_job = None && !pending <> []
         then
           match pick w with
           | None -> ()
           | Some (job, rest) ->
             pending := rest;
             if not (send w job) then pending := job :: !pending)
      slots
  in
  (* A reported worker generation becomes final here: promoted into the
     plain namespace (0 when the worker's save or the promotion failed). *)
  let handle_round w (r : Transport.round_report) =
    w.w_last <- now ();
    match w.w_job with
    | None -> ()
    | Some (i, _) ->
      w.w_job <- None;
      let dir = crecs.(i).c_dir in
      let generation =
        if r.rr_generation <= 0 then 0
        else
          match Store.promote ~dir ~worker:w.w_id r.rr_generation with
          | Ok g -> g
          | Error e ->
            warn
              (Printf.sprintf "%s: promote of gen %d.w%d failed: %s"
                 r.rr_campaign r.rr_generation w.w_id e);
            0
      in
      !reports.(i) <- Some { r with rr_generation = generation };
      Telemetry.Registry.incr (wk_ctr w.w_id "rounds");
      Telemetry.Registry.incr ~by:r.rr_executed (wk_ctr w.w_id "execs");
      Telemetry.Registry.incr ~by:r.rr_reloads (counter "farm.store.reloads");
      Telemetry.Registry.incr ~by:r.rr_reload_skipped
        (counter "farm.store.reload_skipped");
      decr outstanding
  in
  let handle_line w line =
    match Transport.message_of_line line with
    | Error e ->
      fail_slot w (Printf.sprintf "sent a malformed control line (%s)" e)
    | Ok (Transport.Hello _) -> w.w_last <- now ()
    | Ok (Transport.Heartbeat _) ->
      w.w_last <- now ();
      on_heartbeat ~worker:w.w_id ~pid:w.w_pid
    | Ok (Transport.Fatal e) -> fail_slot w ("reported fatal: " ^ e)
    | Ok (Transport.Round r) -> handle_round w r
  in
  let drain_lines w =
    let spawns = w.w_spawns in
    let continue_drain = ref true in
    while !continue_drain && w.w_spawns = spawns do
      let s = Buffer.contents w.w_buf in
      match String.index_opt s '\n' with
      | None -> continue_drain := false
      | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear w.w_buf;
        Buffer.add_substring w.w_buf s (i + 1) (String.length s - i - 1);
        handle_line w line
    done
  in
  let scratch = Bytes.create 8192 in
  let read_slot w fd =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> fail_slot w "closed its stdout"
    | len ->
      Buffer.add_subbytes w.w_buf scratch 0 len;
      drain_lines w
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail_slot w "stdout read failed"
  in
  let pump timeout =
    let live =
      Array.to_list slots
      |> List.filter_map (fun w ->
          if w.w_live then
            match w.w_fd with
            | Some fd -> Some (w, fd, w.w_spawns)
            | None -> None
          else None)
    in
    let readable =
      match live with
      | [] ->
        (* Nothing to select on; don't busy-spin while respawns or
           retirements settle. *)
        Unix.sleepf (min timeout 0.02);
        []
      | _ -> (
          match Unix.select (List.map (fun (_, fd, _) -> fd) live) [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
    in
    List.iter
      (fun (w, fd, spawns) ->
         if List.memq fd readable && w.w_spawns = spawns && w.w_live then
           read_slot w fd)
      live;
    Array.iter
      (fun w ->
         if w.w_live then
           match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
           | 0, _ -> ()
           | _, _ -> fail_slot ~already_dead:true w "exited unexpectedly"
           | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
             fail_slot ~already_dead:true w "exited unexpectedly")
      slots;
    Array.iter
      (fun w ->
         if w.w_live && w.w_job <> None
            && now () -. w.w_last > heartbeat_timeout
         then
           fail_slot w
             (Printf.sprintf "missed heartbeats for %.1fs"
                (now () -. w.w_last)))
      slots
  in
  let usable () = Array.exists (fun w -> not w.w_retired) slots in
  let dispatch ~round:r jobs =
    round := r;
    reports := Array.make (Array.length crecs) None;
    pending := Array.to_list jobs;
    outstanding := Array.length jobs;
    while !outstanding > 0 && usable () do
      assign ();
      pump 0.1
    done;
    if !outstanding > 0 then begin
      warn
        (Printf.sprintf
           "farm: all worker slots exhausted with %d round jobs unserved"
           !outstanding);
      pending := [];
      outstanding := 0
    end;
    Array.map (fun (i, _) -> !reports.(i)) jobs
  in
  (* Orderly shutdown: ask, wait briefly, then make sure. Namespace
     hygiene: no unpromoted worker generation survives the farm,
     whatever happened to its worker. *)
  let finish () =
    Array.iter
      (fun w ->
         if w.w_live then (
           match w.w_stdin with
           | Some oc -> (
               try
                 output_string oc
                   (Transport.command_to_line Transport.Shutdown);
                 output_char oc '\n';
                 flush oc;
                 close_out oc;
                 w.w_stdin <- None
               with Sys_error _ -> ())
           | None -> ()))
      slots;
    let deadline = now () +. 5.0 in
    Array.iter
      (fun w ->
         if w.w_live then begin
           let rec wait () =
             match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
             | 0, _ ->
               if now () < deadline then begin
                 Unix.sleepf 0.02;
                 wait ()
               end
               else begin
                 (try Unix.kill w.w_pid Sys.sigkill
                  with Unix.Unix_error _ -> ());
                 (try ignore (Unix.waitpid [] w.w_pid)
                  with Unix.Unix_error _ -> ())
               end
             | _, _ -> ()
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
           in
           wait ();
           close_ends w;
           w.w_live <- false
         end)
      slots;
    Array.iter
      (fun c ->
         Array.iter
           (fun w ->
              Store.discard_worker_generations ~dir:c.c_dir ~worker:w.w_id)
           slots)
      crecs
  in
  Array.iter spawn_slot slots;
  { b_dispatch = dispatch; b_usable = usable; b_finish = finish }

let run_processes ?(sink = Telemetry.Sink.null) ?runs_dir ?worker_cmd
    ?(heartbeat_timeout = 30.) ?(max_restarts = 3)
    ?(on_heartbeat = fun ~worker:_ ~pid:_ -> ()) ~workers (spec : Spec.t) =
  let worker_cmd =
    match worker_cmd with
    | Some f -> f
    | None -> default_worker_cmd ?runs_dir ()
  in
  match
    List.find_map
      (fun (c : Store.campaign) ->
         Result.fold ~ok:(fun _ -> None) ~error:Option.some
           (Spec.make ~campaign:c ~seed:c.sc_seed))
      spec.fs_campaigns
  with
  | Some e -> Error e
  | None ->
    let warnings = ref [] in
    let crecs =
      Array.of_list (List.map (init_store warnings ~runs_dir) spec.fs_campaigns)
    in
    let workers = max 1 workers in
    let slots =
      Array.init workers (fun k ->
          { w_id = k + 1; w_buf = Buffer.create 512; w_pid = 0;
            w_stdin = None; w_fd = None; w_last = 0.; w_job = None;
            w_affinity = ""; w_restarts = 0; w_spawns = 0; w_live = false;
            w_retired = false })
    in
    let metrics = Telemetry.Registry.create () in
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let r =
      Fun.protect
        ~finally:(fun () -> ignore (Sys.signal Sys.sigpipe old_sigpipe))
        (fun () ->
           process_backend ~worker_cmd ~heartbeat_timeout ~max_restarts
             ~on_heartbeat ~metrics ~warnings slots crecs
           |> farm ~sink ~metrics ~workers ~warnings spec crecs
                ~meta:[ ("backend", Telemetry.Json.Str "processes") ])
    in
    if r.fr_rounds = 0 && Array.for_all (fun w -> w.w_retired) slots then
      Error "farm: every worker slot failed before completing a round"
    else Ok r
