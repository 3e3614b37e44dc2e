open Sqlcore
module Rng = Reprutil.Rng

(* Interleaving-schedule fuzzing on the multi-session server layer.

   A schedule assigns K typed sequences (corpus seeds or Algorithm 3
   output) to K sessions and fixes a total order over their statements.
   Each schedule runs once, serially on a fresh pool; crash triage and
   the isolation oracle read that one outcome. A new finding whose full
   schedule, replayed on another fresh pool, does not reproduce the
   same bug id or violation key is counted in
   [schedule.replay_mismatch], which must stay 0.

   Three generators, cycled per schedule:
   - round_robin: the unbiased baseline, one statement per session in
     turn.
   - txn_biased: wraps bare sequences in BEGIN..COMMIT and biases
     switch points into open-transaction windows — the generator that
     reaches the seeded lost-update/dirty-read races from the plain
     corpus.
   - spliced: affinity-guided cross-session splice points — prefer
     switching to the session whose next statement type is affine with
     the type just executed, LEGO's affinity signal lifted across
     session boundaries. *)

type t = {
  sc_kind : string;
  sc_steps : (int * Ast.stmt) array;  (* (session, stmt), total order *)
}

let mk kind order =
  { sc_kind = kind; sc_steps = Array.of_list (List.rev order) }

(* --- generators ------------------------------------------------------ *)

let round_robin seqs =
  let seqs = Array.of_list (List.map Array.of_list seqs) in
  let k = Array.length seqs in
  let pos = Array.make k 0 in
  let order = ref [] in
  let remaining = ref (Array.fold_left (fun a s -> a + Array.length s) 0 seqs) in
  let i = ref 0 in
  while !remaining > 0 do
    let s = !i mod k in
    if pos.(s) < Array.length seqs.(s) then begin
      order := (s, seqs.(s).(pos.(s))) :: !order;
      pos.(s) <- pos.(s) + 1;
      decr remaining
    end;
    incr i
  done;
  mk "round_robin" !order

let has_txn_stmt tc =
  List.exists
    (function Ast.S_begin | Ast.S_commit | Ast.S_rollback -> true | _ -> false)
    tc

let wrap_txn tc =
  if has_txn_stmt tc then tc else (Ast.S_begin :: tc) @ [ Ast.S_commit ]

(* Statically track whether each session's emitted trace has an open
   transaction, and while any has, prefer scheduling OTHER sessions —
   stretching the open-txn window across foreign statements, which is
   exactly when the [other_txn_dirty] predicates can fire. *)
let txn_biased rng seqs =
  let seqs = Array.of_list (List.map (fun tc -> Array.of_list (wrap_txn tc)) seqs) in
  let k = Array.length seqs in
  let pos = Array.make k 0 in
  let open_txn = Array.make k false in
  let order = ref [] in
  let remaining () =
    let r = ref [] in
    for s = k - 1 downto 0 do
      if pos.(s) < Array.length seqs.(s) then r := s :: !r
    done;
    !r
  in
  let rec loop () =
    match remaining () with
    | [] -> ()
    | cands ->
      let closed = List.filter (fun s -> not open_txn.(s)) cands in
      let any_open = List.exists (fun s -> open_txn.(s)) cands in
      let pick =
        if any_open && closed <> [] && Rng.ratio rng 3 4 then
          Rng.choose rng closed
        else Rng.choose rng cands
      in
      let stmt = seqs.(pick).(pos.(pick)) in
      pos.(pick) <- pos.(pick) + 1;
      (match stmt with
       | Ast.S_begin -> open_txn.(pick) <- true
       | Ast.S_commit | Ast.S_rollback -> open_txn.(pick) <- false
       | _ -> ());
      order := (pick, stmt) :: !order;
      loop ()
  in
  loop ();
  mk "txn_biased" !order

(* Affinity mined from corpus adjacency: (a, b) is affine when some
   sequence executes b directly after a — the corpus-level shadow of
   LEGO's Algorithm 2 scores, dependency-free for this layer. *)
let adjacency_affinity corpus =
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun tc ->
       let tys = List.map Ast.type_of_stmt tc in
       let rec walk = function
         | a :: (b :: _ as rest) ->
           Hashtbl.replace pairs (a, b) ();
           walk rest
         | _ -> ()
       in
       walk tys)
    corpus;
  fun a b -> Hashtbl.mem pairs (a, b)

let spliced rng ~affine seqs =
  let seqs = Array.of_list (List.map Array.of_list seqs) in
  let k = Array.length seqs in
  let pos = Array.make k 0 in
  let order = ref [] in
  let last_ty = ref None in
  let remaining () =
    let r = ref [] in
    for s = k - 1 downto 0 do
      if pos.(s) < Array.length seqs.(s) then r := s :: !r
    done;
    !r
  in
  let rec loop () =
    match remaining () with
    | [] -> ()
    | cands ->
      let affines =
        match !last_ty with
        | None -> []
        | Some prev ->
          List.filter
            (fun s ->
               affine prev (Ast.type_of_stmt seqs.(s).(pos.(s))))
            cands
      in
      let pick =
        if affines <> [] && Rng.ratio rng 2 3 then Rng.choose rng affines
        else Rng.choose rng cands
      in
      let stmt = seqs.(pick).(pos.(pick)) in
      pos.(pick) <- pos.(pick) + 1;
      last_ty := Some (Ast.type_of_stmt stmt);
      order := (pick, stmt) :: !order;
      loop ()
  in
  loop ();
  mk "spliced" !order

(* --- campaign -------------------------------------------------------- *)

type result = {
  sr_triage : Triage.t;
  sr_schedules : int;
  sr_steps : int;
  sr_replay_mismatch : int;
  sr_crash_repros : (string * (int * Ast.stmt) array) list;
      (* bug_id -> 1-minimal schedule, first-found order *)
  sr_violation_repros : (string * (int * Ast.stmt) array) list;
      (* violation key -> shrunk schedule *)
}

let count metrics name by =
  match metrics with
  | None -> ()
  | Some m ->
    if by > 0 then
      Telemetry.Registry.incr ~by (Telemetry.Registry.counter m name)

(* Serial replay of [steps] on a virgin pool; the interestingness
   oracles for minimization. *)
let serial_outcome ~sessions ~profile steps =
  let pool = Server.Session_pool.create ~sessions ~profile () in
  Server.Session_pool.run_serial pool (Array.of_list steps)

let crashes_with ~sessions ~profile ~bug_id steps =
  match (serial_outcome ~sessions ~profile steps).o_crash with
  | Some (_, c) -> c.Minidb.Fault.c_bug.Minidb.Fault.bug_id = bug_id
  | None -> false

let violates_with ~sessions ~profile ~key steps =
  let out = serial_outcome ~sessions ~profile steps in
  out.o_crash = None
  && (match
        Oracle.Isolation.check ~profile
          ~steps:(Array.of_list steps) ~observed:out.o_fingerprint ()
      with
      | Some v -> String.equal (Oracle.Violation.key v) key
      | None -> false)

let pick_seqs rng k corpus =
  let arr = Array.of_list corpus in
  List.init k (fun _ -> Rng.choose_arr rng arr)

let generate rng ~kind ~affine seqs =
  match kind mod 3 with
  | 0 -> round_robin seqs
  | 1 -> txn_biased rng seqs
  | _ -> spliced rng ~affine seqs

(* Replays allowed per minimization. *)
let max_tries = 512

let campaign ?metrics ~profile ~sessions ~schedules ~seed ~corpus () =
  if corpus = [] then invalid_arg "Schedule.campaign: empty corpus";
  let triage = Triage.create () in
  let affine = adjacency_affinity corpus in
  let rng = Rng.create seed in
  let steps_total = ref 0 in
  let mismatches = ref 0 in
  let crash_repros = ref [] in
  let violation_repros = ref [] in
  for _m = 1 to schedules do
    let srng = Rng.split rng in
    let seqs = pick_seqs srng sessions corpus in
    let kind = Rng.int srng 3 in
    let sched = generate srng ~kind ~affine seqs in
    let steps = sched.sc_steps in
    count metrics "schedule.generated" 1;
    count metrics ("schedule.kind." ^ sched.sc_kind) 1;
    steps_total := !steps_total + Array.length steps;
    count metrics "schedule.steps" (Array.length steps);
    (* One run on a fresh pool, never through the harness's
       prefix-snapshot cache, so the cache.* counters exclude the
       schedule phase. *)
    let out =
      Server.Session_pool.run_serial
        (Server.Session_pool.create ?metrics ~sessions ~profile ())
        steps
    in
    (* A new finding is reduced from its full schedule; the reducer's
       first predicate call replays that schedule on a fresh pool. A
       finding the replay does not reproduce is a mismatch and keeps
       its unreduced schedule. *)
    let shrink pred =
      match Reducer.reduce_poly ~pred ~max_tries (Array.to_list steps) with
      | Some reduced -> Array.of_list reduced
      | None ->
        incr mismatches;
        count metrics "schedule.replay_mismatch" 1;
        steps
    in
    let tc = List.map snd (Array.to_list steps) in
    match out.o_crash with
    | Some (_, crash) ->
      count metrics "schedule.crashes" 1;
      if Triage.record triage ~testcase:tc crash then begin
        let bug_id = crash.Minidb.Fault.c_bug.Minidb.Fault.bug_id in
        count metrics ("schedule.found." ^ bug_id) 1;
        let repro = shrink (crashes_with ~sessions ~profile ~bug_id) in
        crash_repros := (bug_id, repro) :: !crash_repros
      end
    | None ->
      count metrics "oracle.isolation.checks" 1;
      (match
         Oracle.Isolation.check ~profile ~steps
           ~observed:out.o_fingerprint ()
       with
       | Some v ->
         count metrics "oracle.isolation.violations" 1;
         count metrics "schedule.violations" 1;
         if Triage.record_logic triage ~testcase:tc v then begin
           let key = Oracle.Violation.key v in
           let repro = shrink (violates_with ~sessions ~profile ~key) in
           violation_repros := (key, repro) :: !violation_repros
         end
       | None -> ())
  done;
  { sr_triage = triage;
    sr_schedules = schedules;
    sr_steps = !steps_total;
    sr_replay_mismatch = !mismatches;
    sr_crash_repros = List.rev !crash_repros;
    sr_violation_repros = List.rev !violation_repros }

let render_steps steps =
  String.concat "\n"
    (List.map
       (fun (sid, stmt) ->
          Printf.sprintf "s%d> %s" sid (Sql_printer.stmt stmt))
       (Array.to_list steps))
