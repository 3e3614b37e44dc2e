(* Server-layer tests: typed wire responses, per-session state and
   window isolation, cross-session fault predicates, the
   schedule-replay determinism contract (a schedule replayed on fresh
   pools is outcome-equal, under both snapshot regimes) and the serve
   REPL's transcript. *)

open Sqlcore
module Pool = Server.Session_pool
module Wire = Server.Wire
module Prop = Reprutil.Prop

let parse = Sqlparser.Parser.parse_testcase_exn

let stmt sql = List.hd (parse sql)

let profile = Dialects.Registry.pg_sim

(* Fault-free twin: schedules on it exercise wire/session mechanics
   without the seeded concurrency bugs firing. *)
let clean_profile = Minidb.Profile.without_bugs profile

let mk_pool ?(profile = profile) ?metrics n =
  Pool.create ?metrics ~sessions:n ~profile ()

(* --- wire protocol -------------------------------------------------- *)

let test_wire_responses () =
  let pool = mk_pool ~profile:clean_profile 1 in
  let r = Pool.exec pool ~session:0 (stmt "CREATE TABLE t (a INT, b TEXT)") in
  (match r with
   | Wire.Execute_result { rows_affected = 0; last_insert_rowid = -1 } -> ()
   | r -> Alcotest.failf "CREATE: unexpected %s" (Wire.render r));
  let r = Pool.exec pool ~session:0 (stmt "INSERT INTO t VALUES (7, 'x')") in
  (match r with
   | Wire.Execute_result { rows_affected = 1; last_insert_rowid = 0 } -> ()
   | r -> Alcotest.failf "INSERT: unexpected %s" (Wire.render r));
  let r = Pool.exec pool ~session:0 (stmt "INSERT INTO t VALUES (8, 'y')") in
  (match r with
   | Wire.Execute_result { rows_affected = 1; last_insert_rowid = 1 } -> ()
   | r -> Alcotest.failf "second INSERT: unexpected %s" (Wire.render r));
  let r = Pool.exec pool ~session:0 (stmt "SELECT a, b FROM t ORDER BY a") in
  (match r with
   | Wire.Data { columns = [ "a"; "b" ]; rows = [ r1; r2 ] } ->
     Alcotest.(check string) "row 1" "7|'x'"
       (String.concat "|"
          (List.map Wire.render_data (Array.to_list r1)));
     Alcotest.(check string) "row 2" "8|'y'"
       (String.concat "|"
          (List.map Wire.render_data (Array.to_list r2)))
   | r -> Alcotest.failf "SELECT: unexpected %s" (Wire.render r));
  match Pool.exec pool ~session:0 (stmt "SELECT a FROM missing") with
  | Wire.Error { code = "NO_SUCH_TABLE"; _ } -> ()
  | r -> Alcotest.failf "error mapping: unexpected %s" (Wire.render r)

(* A real renders exactly: the shortest decimal that reads back to the
   same float, apart from any integer's text, with NaN and the
   infinities spelled out. *)
let test_wire_real_round_trip () =
  let render f = Wire.render_data (Wire.Real f) in
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (render f))
    [ (1.5, "1.5"); (6.0, "6.0"); (0.1, "0.1"); (-0.0, "-0.0"); (0.0, "0.0");
      (1e300, "1e+300"); (Float.nan, "nan"); (Float.infinity, "inf");
      (Float.neg_infinity, "-inf"); (Float.succ 0.0, "5e-324") ];
  let values =
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 0.1; -0.1;
      1e300; -1e300; Float.succ 0.0; Float.pred Float.min_float;
      Float.min_float; Float.max_float; 1.0 /. 3.0; 2.0 /. 3.0; 1.5; 100.0;
      123456789.125; Float.pi; Float.epsilon; 1.0 +. Float.epsilon ]
  in
  List.iter
    (fun f ->
       let s = render f in
       let back = float_of_string s in
       if Float.is_nan f then
         Alcotest.(check bool) (s ^ " reads back as NaN") true
           (Float.is_nan back)
       else if Int64.bits_of_float back <> Int64.bits_of_float f then
         Alcotest.failf "%s reads back as %h, not %h" s back f;
       Alcotest.(check bool) (s ^ " is not an integer's text") true
         (s <> Wire.render_data (Wire.Int (int_of_float f))))
    values;
  let texts = List.map render values in
  Alcotest.(check int) "distinct floats, distinct texts"
    (List.length values)
    (List.length (List.sort_uniq compare texts))

(* --- per-session state ---------------------------------------------- *)

let test_txn_state_per_session () =
  let pool = mk_pool ~profile:clean_profile 2 in
  ignore (Pool.exec pool ~session:0 (stmt "CREATE TABLE t (a INT)"));
  ignore (Pool.exec pool ~session:0 (stmt "BEGIN"));
  let cat () = Minidb.Engine.catalog (Pool.engine pool) in
  Alcotest.(check bool) "s0 in txn" true (cat ()).Minidb.Catalog.in_txn;
  ignore (Pool.exec pool ~session:1 (stmt "SELECT a FROM t"));
  Alcotest.(check bool) "s1 not in txn" false (cat ()).Minidb.Catalog.in_txn;
  Alcotest.(check (list int)) "s0 parked" [ 0 ]
    (Minidb.Catalog.parked_sessions (cat ()));
  (* session vars are connection state *)
  ignore (Pool.exec pool ~session:1 (stmt "SET x = 1"));
  ignore (Pool.exec pool ~session:0 (stmt "SELECT a FROM t"));
  Alcotest.(check bool) "s1's @x invisible to s0" false
    (Hashtbl.mem (cat ()).Minidb.Catalog.session_vars "x");
  ignore (Pool.exec pool ~session:1 (stmt "SELECT a FROM t"));
  Alcotest.(check bool) "s1's @x restored on attach" true
    (Hashtbl.mem (cat ()).Minidb.Catalog.session_vars "x")

(* Satellite: the sliding window tracks the session, not the shared
   store. A bug keyed on the CREATE TABLE -> INSERT window must fire
   when ONE session runs both, and must NOT when the pair only exists
   in the interleaved cross-session stream. *)
let window_bug =
  { Minidb.Fault.bug_id = "WIN-PAIR";
    identifier = "TEST-1";
    component = "Test";
    kind = Minidb.Fault.Segv;
    cond = Minidb.Fault.Ends_with [ Stmt_type.Create_table; Stmt_type.Insert ] }

let window_profile =
  Minidb.Profile.make ~name:"WinTest" ~flavor:Minidb.Profile.Pg
    ~types:Dialects.Type_sets.pg ~bugs:[ window_bug ]

let test_window_tracks_session () =
  let fires steps =
    let pool = Pool.create ~sessions:2 ~profile:window_profile () in
    (Pool.run_serial pool steps).Pool.o_crash <> None
  in
  let create = stmt "CREATE TABLE t (a INT)" in
  let insert = stmt "INSERT INTO t VALUES (1)" in
  Alcotest.(check bool) "same session: window pair fires" true
    (fires [| (0, create); (0, insert) |]);
  Alcotest.(check bool) "split across sessions: must not fire" false
    (fires [| (0, create); (1, insert) |])

(* --- cross-session fault predicates ---------------------------------- *)

let run_steps ?(sessions = 2) ?(profile = profile) steps =
  let pool = Pool.create ~sessions ~profile () in
  Pool.run_serial pool (Array.of_list steps)

let dirty_read_steps =
  [ (0, stmt "CREATE TABLE t (a INT)");
    (0, stmt "BEGIN");
    (0, stmt "INSERT INTO t VALUES (1)");
    (1, stmt "BEGIN");
    (1, stmt "SELECT a FROM t") ]

let test_concurrency_bugs_fire_interleaved () =
  (match (run_steps dirty_read_steps).Pool.o_crash with
   | Some (_, c) ->
     Alcotest.(check string) "dirty read bug" "CC-DIRTY-READ"
       c.Minidb.Fault.c_bug.Minidb.Fault.bug_id
   | None -> Alcotest.fail "CC-DIRTY-READ did not fire");
  let lost_update =
    [ (0, stmt "CREATE TABLE t (a INT)");
      (0, stmt "INSERT INTO t VALUES (1)");
      (0, stmt "BEGIN");
      (0, stmt "UPDATE t SET a = 5");
      (1, stmt "UPDATE t SET a = 9") ]
  in
  match (run_steps lost_update).Pool.o_crash with
  | Some (_, c) ->
    Alcotest.(check string) "lost update bug" "CC-LOST-UPDATE"
      c.Minidb.Fault.c_bug.Minidb.Fault.bug_id
  | None -> Alcotest.fail "CC-LOST-UPDATE did not fire"

let test_concurrency_bugs_silent_single_session () =
  (* the same statement streams collapsed onto one session: the
     other_* predicates can never be true *)
  let collapse steps = List.map (fun (_, s) -> (0, s)) steps in
  Alcotest.(check bool) "dirty-read stream, one session" true
    ((run_steps ~sessions:1 (collapse dirty_read_steps)).Pool.o_crash = None);
  (* and a plain engine (no pool, no fault hook) answers false to the
     other_* predicates by construction *)
  let engine = Minidb.Engine.create ~profile () in
  let stats =
    Minidb.Engine.run_testcase engine (List.map snd dirty_read_steps)
  in
  Alcotest.(check bool) "plain engine never fires CC bugs" true
    (stats.Minidb.Engine.rs_crash = None)

(* --- satellite: approx_bytes prices parked sessions ------------------ *)

let test_approx_bytes_counts_parked () =
  let pool = mk_pool ~profile:clean_profile 3 in
  ignore (Pool.exec pool ~session:0 (stmt "CREATE TABLE t (a INT)"));
  ignore (Pool.exec pool ~session:0 (stmt "INSERT INTO t VALUES (1)"));
  let cat = Minidb.Engine.catalog (Pool.engine pool) in
  let before = Minidb.Catalog.approx_bytes cat in
  (* open transactions in sessions 1 and 2, then park them by
     switching back to 0: their views carry whole-catalog snapshots *)
  ignore (Pool.exec pool ~session:1 (stmt "BEGIN"));
  ignore (Pool.exec pool ~session:2 (stmt "BEGIN"));
  ignore (Pool.exec pool ~session:0 (stmt "SELECT a FROM t"));
  Alcotest.(check (list int)) "two parked" [ 1; 2 ]
    (Minidb.Catalog.parked_sessions cat);
  let after = Minidb.Catalog.approx_bytes cat in
  Alcotest.(check bool)
    (Printf.sprintf "parked txn snapshots priced (%d > %d)" after before)
    true (after > before)

(* --- schedule-replay determinism (1000-case property) ---------------- *)

let crash_key (c : Minidb.Fault.crash) =
  c.c_bug.bug_id ^ ":" ^ String.concat "<" c.c_stack

(* Replies, executed count, crash identity (bug id + stack) and final
   fingerprint all agree. *)
let outcome_equal (a : Pool.outcome) (b : Pool.outcome) =
  a.o_replies = b.o_replies
  && a.o_executed = b.o_executed
  && String.equal a.o_fingerprint b.o_fingerprint
  && (match a.o_crash, b.o_crash with
      | None, None -> true
      | Some (ia, ca), Some (ib, cb) ->
        ia = ib && String.equal (crash_key ca) (crash_key cb)
      | _ -> false)

(* Small closed statement pool; programs are lists of (session, stmt
   index) pairs. Crashes, SQL errors and transaction interleavings are
   all reachable, and the seeded concurrency bugs can fire — outcomes
   (including crash identity) must still agree between two runs of the
   schedule on fresh pools, under both snapshot regimes. *)
let stmt_pool =
  Array.of_list
    (List.map stmt
       [ "CREATE TABLE t (a INT, b TEXT)";
         "INSERT INTO t VALUES (1, 'x')";
         "INSERT INTO t VALUES (2, 'y')";
         "UPDATE t SET a = a + 1";
         "DELETE FROM t WHERE a = 2";
         "SELECT a, b FROM t ORDER BY a";
         "BEGIN";
         "COMMIT";
         "ROLLBACK";
         "CREATE INDEX i ON t (a)";
         "DROP TABLE t";
         "SET v = 3" ])

let steps_arb =
  Prop.map
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (fun (sid, s) ->
              Printf.sprintf "s%d:%s" sid (Sql_printer.stmt s))
           steps))
    (fun raw ->
       List.map (fun (sid, i) -> (sid, stmt_pool.(i))) raw)
    (Prop.list ~max_len:14
       (Prop.pair (Prop.int_range 0 2) (Prop.int_range 0 11)))

let replay_equal cow steps =
  Minidb.Catalog.set_copy_on_write cow;
  Fun.protect
    ~finally:(fun () -> Minidb.Catalog.set_copy_on_write true)
    (fun () ->
       let steps = Array.of_list steps in
       let run () =
         Pool.run_serial (Pool.create ~sessions:3 ~profile ()) steps
       in
       outcome_equal (run ()) (run ()))

let test_replay_equal_cow_on () =
  Prop.check ~count:700 ~name:"serial replay outcome-equal (cow on)"
    steps_arb
    (replay_equal true)

let test_replay_equal_cow_off () =
  Prop.check ~count:300 ~name:"serial replay outcome-equal (cow off)"
    steps_arb
    (replay_equal false)

(* --- serve REPL --------------------------------------------------------- *)

(* dune runs the suite from the build directory, so the binary sits one
   level up. *)
let legofuzz = "../bin/legofuzz.exe"

(* One REPL session, pinned line for line: session 1 sees session 0's
   uncommitted row, an unknown session is refused without running its
   SQL, and \q quits at the next prompt. *)
let test_serve_transcript () =
  let input = Filename.temp_file "serve" ".in" in
  let output = Filename.temp_file "serve" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove input; Sys.remove output)
    (fun () ->
       Out_channel.with_open_text input (fun oc ->
         List.iter
           (fun l -> output_string oc (l ^ "\n"))
           [ "CREATE TABLE t (a INT)"; "BEGIN"; "INSERT INTO t VALUES (1)";
             "@1 SELECT a FROM t"; "@7 SELECT 1"; "@0 COMMIT"; "\\q" ]);
       let code =
         Sys.command
           (Printf.sprintf "%s serve < %s > %s" (Filename.quote legofuzz)
              (Filename.quote input) (Filename.quote output))
       in
       Alcotest.(check int) "exit status" 0 code;
       Alcotest.(check (list string)) "transcript"
         [ "legofuzz serve: PostgreSQL, 4 session(s). \"@N SQL\" runs SQL \
            on session N, \"@N\" switches; \\q quits.";
           "s0> ok affected=0 last_rowid=-1";
           "s0> ok affected=0 last_rowid=-1";
           "s0> ok affected=1 last_rowid=0";
           "s0> data 1 [a] 1";
           "s1> no such session 7 (0..3)";
           "s1> ok affected=0 last_rowid=-1";
           "s0> " ]
         (String.split_on_char '\n'
            (In_channel.with_open_bin output In_channel.input_all)))

let suite =
  [ Alcotest.test_case "wire responses" `Quick test_wire_responses;
    Alcotest.test_case "wire reals round-trip" `Quick
      test_wire_real_round_trip;
    Alcotest.test_case "txn state per session" `Quick
      test_txn_state_per_session;
    Alcotest.test_case "window tracks session" `Quick
      test_window_tracks_session;
    Alcotest.test_case "concurrency bugs fire interleaved" `Quick
      test_concurrency_bugs_fire_interleaved;
    Alcotest.test_case "concurrency bugs silent single-session" `Quick
      test_concurrency_bugs_silent_single_session;
    Alcotest.test_case "approx_bytes counts parked sessions" `Quick
      test_approx_bytes_counts_parked;
    Alcotest.test_case "replay outcome-equal, cow on (700 cases)" `Slow
      test_replay_equal_cow_on;
    Alcotest.test_case "replay outcome-equal, cow off (300 cases)" `Slow
      test_replay_equal_cow_off;
    Alcotest.test_case "serve transcript" `Quick test_serve_transcript ]
