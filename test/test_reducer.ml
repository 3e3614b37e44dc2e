(* Tests for crash test-case reduction. *)

open Sqlcore
module R = Fuzz.Reducer

let parse = Sqlparser.Parser.parse_testcase_exn

(* a profile with one bug triggered by VACUUM -> CHECKPOINT *)
let bug =
  { Minidb.Fault.bug_id = "RED-1"; identifier = "TEST"; component = "Storage";
    kind = Minidb.Fault.Segv;
    cond =
      Minidb.Fault.Subseq [ Stmt_type.Vacuum; Stmt_type.Checkpoint ] }

let profile =
  Minidb.Profile.make ~name:"red" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all ~bugs:[ bug ]

let test_oracle () =
  Alcotest.(check bool) "crashing case detected" true
    (R.crashes_with ~profile ~bug_id:"RED-1" (parse "VACUUM; CHECKPOINT;"));
  Alcotest.(check bool) "wrong id rejected" false
    (R.crashes_with ~profile ~bug_id:"OTHER" (parse "VACUUM; CHECKPOINT;"));
  Alcotest.(check bool) "benign case rejected" false
    (R.crashes_with ~profile ~bug_id:"RED-1" (parse "SELECT 1;"))

let test_reduce_drops_junk () =
  let noisy =
    parse
      "CREATE TABLE junk1 (a INT);\n\
       INSERT INTO junk1 VALUES (12345);\n\
       SELECT * FROM junk1;\n\
       VACUUM;\n\
       CHECKPOINT;\n\
       SELECT 99;\n\
       DROP TABLE junk1;"
  in
  let out = R.reduce ~profile ~bug_id:"RED-1" noisy in
  Alcotest.(check int) "reduced to the two essential statements" 2
    (List.length out.R.r_testcase);
  Alcotest.(check int) "five removed" 5 out.R.r_removed;
  Alcotest.(check (list string)) "the right two"
    [ "VACUUM"; "CHECKPOINT" ]
    (List.map Stmt_type.name (Ast.type_sequence out.R.r_testcase));
  Alcotest.(check bool) "still crashes" true
    (R.crashes_with ~profile ~bug_id:"RED-1" out.R.r_testcase)

let test_reduce_one_minimal () =
  let out =
    R.reduce ~profile ~bug_id:"RED-1" (parse "VACUUM; CHECKPOINT;")
  in
  Alcotest.(check int) "already minimal" 0 out.R.r_removed

let test_reduce_non_crashing_unchanged () =
  let tc = parse "SELECT 1; SELECT 2;" in
  let out = R.reduce ~profile ~bug_id:"RED-1" tc in
  Alcotest.(check bool) "unchanged" true (out.R.r_testcase = tc)

let test_reduce_simplifies_literals () =
  (* bug requires a feature of the final statement, so its literal content
     is free to shrink *)
  let fbug =
    { Minidb.Fault.bug_id = "RED-2"; identifier = "TEST2";
      component = "Optimizer"; kind = Minidb.Fault.Af;
      cond =
        Minidb.Fault.All
          [ Minidb.Fault.Subseq [ Stmt_type.Insert; Stmt_type.Select ];
            Minidb.Fault.Stmt_has Minidb.Fault.F_order_by ] }
  in
  let p2 =
    Minidb.Profile.make ~name:"red2" ~flavor:Minidb.Profile.Pg
      ~types:Stmt_type.all ~bugs:[ fbug ]
  in
  let noisy =
    parse
      "CREATE TABLE t (a INT, b TEXT);\n\
       INSERT INTO t VALUES (22471185, 'noisy string');\n\
       SELECT a FROM t WHERE a <> 777 ORDER BY a DESC;"
  in
  let out = R.reduce ~profile:p2 ~bug_id:"RED-2" noisy in
  Alcotest.(check bool) "still crashes" true
    (R.crashes_with ~profile:p2 ~bug_id:"RED-2" out.R.r_testcase);
  let text = Sql_printer.testcase out.R.r_testcase in
  Alcotest.(check bool) "big constant gone" true
    (not
       (let re = "22471185" in
        let n = String.length text and m = String.length re in
        let rec loop i =
          i + m <= n && (String.sub text i m = re || loop (i + 1))
        in
        loop 0))

(* property: whatever benign noise surrounds the crashing pair, the
   reducer lands on exactly [VACUUM; CHECKPOINT] — the strongest form of
   1-minimality for this bug — while the result keeps crashing. (The
   pair must stay adjacent: Fault.Subseq matches a contiguous window
   run, so interleaved junk would defuse the bug, not obscure it.) *)
let test_prop_reduce_one_minimal () =
  let junk = Reprutil.Prop.list ~max_len:6 (Reprutil.Prop.int_range 0 99) in
  let selects ns = List.map (Printf.sprintf "SELECT %d") ns in
  Reprutil.Prop.check ~count:300 ~name:"reducer 1-minimality"
    (Reprutil.Prop.pair junk junk)
    (fun (before, after) ->
       let tc =
         parse
           (String.concat "; "
              (selects before @ [ "VACUUM"; "CHECKPOINT" ] @ selects after))
       in
       let out = R.reduce ~profile ~bug_id:"RED-1" tc in
       R.crashes_with ~profile ~bug_id:"RED-1" out.R.r_testcase
       && List.map Stmt_type.name (Ast.type_sequence out.R.r_testcase)
          = [ "VACUUM"; "CHECKPOINT" ]
       && out.R.r_removed = List.length before + List.length after)

(* property: the reducer never spends more predicate executions than its
   budget allows (+1 for the uncounted final revalidation), and a
   truncated reduction still preserves the crash *)
let test_prop_reduce_never_exceeds_budget () =
  let junk = Reprutil.Prop.list ~max_len:8 (Reprutil.Prop.int_range 0 99) in
  Reprutil.Prop.check ~count:300 ~name:"reducer budget"
    (Reprutil.Prop.pair (Reprutil.Prop.int_range 1 16) junk)
    (fun (max_tries, ns) ->
       let tc =
         parse
           (String.concat "; "
              (List.map (Printf.sprintf "SELECT %d") ns
               @ [ "VACUUM"; "CHECKPOINT" ]))
       in
       let out = R.reduce ~profile ~max_tries ~bug_id:"RED-1" tc in
       out.R.r_tries <= max_tries + 1
       && R.crashes_with ~profile ~bug_id:"RED-1" out.R.r_testcase)

let test_reduce_respects_budget () =
  let noisy =
    parse
      (String.concat ";"
         (List.init 10 (fun i -> Printf.sprintf "SELECT %d" i))
       ^ "; VACUUM; CHECKPOINT")
  in
  let out = R.reduce ~profile ~max_tries:3 ~bug_id:"RED-1" noisy in
  Alcotest.(check bool) "bounded tries" true (out.R.r_tries <= 4);
  Alcotest.(check bool) "result still crashes" true
    (R.crashes_with ~profile ~bug_id:"RED-1" out.R.r_testcase)

(* reduce_poly answers whether its input reproduces: None when the
   input fails the predicate, and a one-element input that satisfies it
   comes back as itself (no deletion can apply). *)
let test_reduce_poly_option () =
  let has_seven = List.mem 7 in
  Alcotest.(check (option (list int))) "failing input" None
    (R.reduce_poly ~pred:has_seven [ 1; 2; 3 ]);
  Alcotest.(check (option (list int))) "one satisfying element" (Some [ 7 ])
    (R.reduce_poly ~pred:has_seven [ 7 ]);
  Alcotest.(check (option (list int))) "shrinks to the witness" (Some [ 7 ])
    (R.reduce_poly ~pred:has_seven [ 1; 7; 3 ])

let suite =
  [ ("oracle", `Quick, test_oracle);
    ("reduce_poly: None unless the input reproduces", `Quick,
     test_reduce_poly_option);
    ("drops junk", `Quick, test_reduce_drops_junk);
    ("one-minimal", `Quick, test_reduce_one_minimal);
    ("non-crashing unchanged", `Quick, test_reduce_non_crashing_unchanged);
    ("simplifies literals", `Quick, test_reduce_simplifies_literals);
    ("respects budget", `Quick, test_reduce_respects_budget);
    ("1-minimality (300 cases)", `Quick, test_prop_reduce_one_minimal);
    ("budget bound (300 cases)", `Quick,
     test_prop_reduce_never_exceeds_budget) ]
