type snapshot = {
  st_iteration : int;
  st_execs : int;
  st_branches : int;
  st_total_crashes : int;
  st_unique_crashes : int;
  st_bugs : string list;
}

type annot = { an_wall_s : float; an_execs_per_sec : float }

type checkpoint = { cp_snapshot : snapshot; cp_annot : annot }

type fuzzer = {
  f_name : string;
  f_step : unit -> unit;
  f_harness : Harness.t;
  f_corpus : unit -> Sqlcore.Ast.testcase list;
  f_exchange : Sync.port option;
}

exception Stalled of string

let default_max_stall = 4096

let snapshot f ~iteration =
  let tri = Harness.triage f.f_harness in
  { st_iteration = iteration;
    st_execs = Harness.execs f.f_harness;
    st_branches = Harness.branches f.f_harness;
    st_total_crashes = Triage.total_crashes tri;
    st_unique_crashes = Triage.unique_count tri;
    st_bugs = Triage.bug_ids tri }

let annotate ~start ~execs =
  let wall = Telemetry.Span.now_s () -. start in
  { an_wall_s = wall;
    an_execs_per_sec =
      (if wall > 0.0 then float_of_int execs /. wall else 0.0) }

let checkpoint ?(start = Telemetry.Span.now_s ()) f ~iteration =
  let snap = snapshot f ~iteration in
  { cp_snapshot = snap; cp_annot = annotate ~start ~execs:snap.st_execs }

let run_until_execs ?(checkpoint_every = 0) ?(on_checkpoint = fun _ -> ())
    ?(max_stall = default_max_stall) f ~execs =
  let start = Telemetry.Span.now_s () in
  let i = ref 0 in
  let last_cp = ref 0 in
  let stalled = ref 0 in
  while Harness.execs f.f_harness < execs do
    incr i;
    let before = Harness.execs f.f_harness in
    f.f_step ();
    let e = Harness.execs f.f_harness in
    (* A step that performs zero executions makes no progress toward the
       exec budget; a fuzzer stuck that way (empty corpus, stuck seed —
       the paper's C3 anecdote) would previously livelock this loop. *)
    if e = before then begin
      incr stalled;
      if !stalled >= max_stall then
        raise
          (Stalled
             (Printf.sprintf
                "%s performed no executions in %d consecutive steps \
                 (stuck at %d of %d budgeted execs): empty corpus or \
                 stuck seed?"
                f.f_name max_stall e execs))
    end
    else stalled := 0;
    (* The returned snapshot is the final checkpoint: when a step lands on
       or overshoots the budget, don't also fire [on_checkpoint] at the
       same exec count. *)
    if
      checkpoint_every > 0
      && e - !last_cp >= checkpoint_every
      && e < execs
    then begin
      last_cp := e;
      on_checkpoint (checkpoint ~start f ~iteration:!i)
    end
  done;
  snapshot f ~iteration:!i
