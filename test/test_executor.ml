(* Semantics tests for the MiniDB engine: every statement family, plus the
   paper's Figure 2 order-sensitivity example. Uses a bug-free profile so
   injected faults cannot interfere. *)

open Sqlcore
module E = Minidb.Engine
module Prop = Reprutil.Prop

let clean_profile =
  Minidb.Profile.make ~name:"clean" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all ~bugs:[]

let fresh () =
  E.create ~profile:clean_profile ~cov:(Coverage.Bitmap.create ()) ()

let run_sql eng sql =
  let tc = Sqlparser.Parser.parse_testcase_exn sql in
  List.map (fun s -> E.exec_stmt eng s) tc

let last_result eng sql =
  match List.rev (run_sql eng sql) with
  | E.Ok_result r :: _ -> r
  | E.Sql_failed e :: _ ->
    Alcotest.fail ("sql failed: " ^ Minidb.Errors.message e)
  | [] -> Alcotest.fail "no statements"

let last_error eng sql =
  match List.rev (run_sql eng sql) with
  | E.Sql_failed e :: _ -> e
  | E.Ok_result _ :: _ -> Alcotest.fail "expected an error"
  | [] -> Alcotest.fail "no statements"

let rows_of = function
  | Minidb.Executor.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let affected = function
  | Minidb.Executor.Affected n -> n
  | _ -> Alcotest.fail "expected affected-count"

let int_cell rows i j =
  match List.nth_opt rows i with
  | Some row when j < Array.length row -> (
      match row.(j) with
      | Storage.Value.Int n -> n
      | v -> Alcotest.fail ("not an int: " ^ Storage.Value.to_display v))
  | _ -> Alcotest.fail "row out of range"

(* ---------------- DDL ---------------- *)

let test_create_insert_select () =
  let eng = fresh () in
  let r =
    last_result eng
      "CREATE TABLE t (a INT, b INT);\n\
       INSERT INTO t VALUES (1, 10), (2, 20);\n\
       SELECT b FROM t ORDER BY a DESC;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  Alcotest.(check int) "desc order" 20 (int_cell rows 0 0)

let test_duplicate_table () =
  let eng = fresh () in
  (match last_error eng "CREATE TABLE t (a INT); CREATE TABLE t (a INT);" with
   | Minidb.Errors.Duplicate_object _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  (* IF NOT EXISTS is a no-op, not an error *)
  match last_result eng "CREATE TABLE IF NOT EXISTS t (a INT);" with
  | Minidb.Executor.Done _ -> ()
  | _ -> Alcotest.fail "expected Done"

let test_fig2_order_sensitivity () =
  (* Paper Fig. 2: same statements, different orders, different results. *)
  let q1 = fresh () in
  let r1 =
    last_result q1
      "CREATE TABLE t1 (a INT, b VARCHAR(100));\n\
       INSERT INTO t1 VALUES (1, 'name1');\n\
       INSERT INTO t1 VALUES (3, 'name1');\n\
       SELECT * FROM t1 ORDER BY a DESC;"
  in
  Alcotest.(check int) "Q1 sees sorted data" 2 (List.length (rows_of r1));
  Alcotest.(check int) "Q1 first is 3" 3 (int_cell (rows_of r1) 0 0);
  let q2 = fresh () in
  let results =
    run_sql q2
      "CREATE TABLE t1 (a INT, b VARCHAR(100));\n\
       SELECT * FROM t1 ORDER BY a DESC;\n\
       INSERT INTO t1 VALUES (1, 'name1');\n\
       INSERT INTO t1 VALUES (3, 'name1');"
  in
  (match List.nth results 1 with
   | E.Ok_result r -> Alcotest.(check int) "Q2 empty" 0 (List.length (rows_of r))
   | E.Sql_failed e -> Alcotest.fail (Minidb.Errors.message e))

let test_alter_table_variants () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  ignore (run_sql eng "ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'x';");
  let r = last_result eng "SELECT b FROM t;" in
  Alcotest.(check bool) "default backfilled" true
    ((List.hd (rows_of r)).(0) = Storage.Value.Text "x");
  ignore (run_sql eng "ALTER TABLE t RENAME COLUMN b TO c;");
  (match last_error eng "SELECT b FROM t;" with
   | Minidb.Errors.No_such_column _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  ignore (run_sql eng "ALTER TABLE t RENAME TO u;");
  let r = last_result eng "SELECT c FROM u;" in
  Alcotest.(check int) "renamed table readable" 1 (List.length (rows_of r));
  (match last_error eng "ALTER TABLE u DROP COLUMN zzz;" with
   | Minidb.Errors.No_such_column _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e))

let test_drop_cascades () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE INDEX i ON t (a);\n\
        CREATE TRIGGER tr AFTER INSERT ON t FOR EACH ROW INSERT INTO t \
        VALUES (1);\n\
        DROP TABLE t;");
  (* the index died with the table: recreating it must fail on the table *)
  match last_error eng "CREATE INDEX i ON t (a);" with
  | Minidb.Errors.No_such_table _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_views () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        INSERT INTO t VALUES (1), (5), (9);\n\
        CREATE VIEW v AS SELECT a FROM t WHERE a > 2;");
  let r = last_result eng "SELECT * FROM v ORDER BY a ASC;" in
  Alcotest.(check int) "view filters" 2 (List.length (rows_of r));
  (* views are live: new data shows up *)
  ignore (run_sql eng "INSERT INTO t VALUES (7);");
  let r = last_result eng "SELECT * FROM v;" in
  Alcotest.(check int) "view live" 3 (List.length (rows_of r))

let test_materialized_view_staleness () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        INSERT INTO t VALUES (1);\n\
        CREATE MATERIALIZED VIEW mv AS SELECT a FROM t;");
  ignore (run_sql eng "INSERT INTO t VALUES (2);");
  let r = last_result eng "SELECT * FROM mv;" in
  Alcotest.(check int) "stale cache" 1 (List.length (rows_of r));
  ignore (run_sql eng "REFRESH MATERIALIZED VIEW mv;");
  let r = last_result eng "SELECT * FROM mv;" in
  Alcotest.(check int) "refreshed" 2 (List.length (rows_of r))

let test_sequences_ddl () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE SEQUENCE sq START WITH 3 INCREMENT BY 2;");
  (match last_error eng "CREATE SEQUENCE sq START WITH 0 INCREMENT BY 1;" with
   | Minidb.Errors.Duplicate_object _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  ignore (run_sql eng "ALTER SEQUENCE sq INCREMENT BY 5; DROP SEQUENCE sq;");
  match last_error eng "ALTER SEQUENCE sq INCREMENT BY 5;" with
  | Minidb.Errors.No_such_object _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

(* ---------------- DML ---------------- *)

let test_insert_not_null () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT NOT NULL, b INT);");
  (match last_error eng "INSERT INTO t VALUES (NULL, 1);" with
   | Minidb.Errors.Constraint_violation _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  (* IGNORE skips the bad row but keeps the good one *)
  let r =
    last_result eng "INSERT IGNORE INTO t VALUES (NULL, 1), (2, 2);"
  in
  Alcotest.(check int) "one inserted" 1 (affected r)

let test_insert_unique_and_replace () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT PRIMARY KEY, b INT);\n\
        INSERT INTO t VALUES (1, 10);");
  (match last_error eng "INSERT INTO t VALUES (1, 20);" with
   | Minidb.Errors.Constraint_violation _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  (* REPLACE displaces the conflicting row *)
  ignore (run_sql eng "REPLACE INTO t VALUES (1, 30);");
  let r = last_result eng "SELECT b FROM t;" in
  Alcotest.(check int) "one row" 1 (List.length (rows_of r));
  Alcotest.(check int) "replaced value" 30 (int_cell (rows_of r) 0 0)

let test_insert_defaults_and_columns () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT, b INT DEFAULT 42, c TEXT);\n\
        INSERT INTO t (a) VALUES (1);");
  let r = last_result eng "SELECT b, c FROM t;" in
  Alcotest.(check int) "default applied" 42 (int_cell (rows_of r) 0 0);
  Alcotest.(check bool) "missing col null" true
    ((List.hd (rows_of r)).(1) = Storage.Value.Null)

let test_insert_select () =
  let eng = fresh () in
  let r =
    last_result eng
      "CREATE TABLE a (x INT);\n\
       CREATE TABLE b (x INT);\n\
       INSERT INTO a VALUES (1), (2), (3);\n\
       INSERT INTO b SELECT x FROM a WHERE x > 1;"
  in
  Alcotest.(check int) "two copied" 2 (affected r)

let test_update_where_limit () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT, b INT);\n\
        INSERT INTO t VALUES (1, 0), (2, 0), (3, 0);");
  let r = last_result eng "UPDATE t SET b = 1 WHERE a > 1;" in
  Alcotest.(check int) "two updated" 2 (affected r);
  let r = last_result eng "UPDATE t SET b = 9 LIMIT 1;" in
  Alcotest.(check int) "limit respected" 1 (affected r)

let test_delete () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3);");
  let r = last_result eng "DELETE FROM t WHERE a = 2;" in
  Alcotest.(check int) "one gone" 1 (affected r);
  let r = last_result eng "DELETE FROM t;" in
  Alcotest.(check int) "rest gone" 2 (affected r)

let test_copy_and_load () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT, b TEXT);");
  let r = last_result eng "COPY t FROM STDIN (1, 'x'), (2, 'y');" in
  Alcotest.(check int) "copied in" 2 (affected r);
  let r = last_result eng "COPY t TO STDOUT;" in
  Alcotest.(check int) "copied out" 2 (List.length (rows_of r));
  (* LOAD DATA is lenient: bad rows are skipped *)
  let r = last_result eng "LOAD DATA INTO t VALUES (3, 'z'), (4, 'w', 99);" in
  Alcotest.(check int) "lenient load" 1 (affected r)

(* ---------------- queries ---------------- *)

let test_aggregates () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (g INT, v INT);\n\
        INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (2, NULL);");
  let r =
    last_result eng
      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER \
       BY g ASC;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  Alcotest.(check int) "count g1" 2 (int_cell rows 0 1);
  Alcotest.(check int) "sum g1" 30 (int_cell rows 0 2);
  Alcotest.(check int) "count g2 includes null row" 2 (int_cell rows 1 1);
  Alcotest.(check int) "sum g2 skips null" 30 (int_cell rows 1 2)

let test_count_on_empty () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT);");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "zero not empty-set" 0 (int_cell (rows_of r) 0 0)

let test_having () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (g INT);\n\
        INSERT INTO t VALUES (1), (1), (1), (2);");
  let r =
    last_result eng "SELECT g FROM t GROUP BY g HAVING (COUNT(*) > 2);"
  in
  Alcotest.(check int) "one surviving group" 1 (List.length (rows_of r));
  Alcotest.(check int) "the right one" 1 (int_cell (rows_of r) 0 0)

let test_distinct_agg () =
  let eng = fresh () in
  ignore
    (run_sql eng "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(1),(2);");
  let r = last_result eng "SELECT COUNT(DISTINCT a) FROM t;" in
  Alcotest.(check int) "distinct count" 2 (int_cell (rows_of r) 0 0)

let test_window_row_number () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (30), (10), (20);");
  let r =
    last_result eng
      "SELECT a, ROW_NUMBER() OVER (ORDER BY a ASC) FROM t ORDER BY a ASC;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "rn of smallest" 1 (int_cell rows 0 1);
  Alcotest.(check int) "rn of largest" 3 (int_cell rows 2 1)

let test_window_lead_lag () =
  let eng = fresh () in
  ignore
    (run_sql eng "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(2),(3);");
  let r =
    last_result eng
      "SELECT a, LEAD(a) OVER (ORDER BY a ASC) FROM t ORDER BY a ASC;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "lead of 1 is 2" 2 (int_cell rows 0 1);
  Alcotest.(check bool) "lead of last is null" true
    ((List.nth rows 2).(1) = Storage.Value.Null)

(* Window functions against a naive reference: for every row, filter
   its partition, stable-sort it, and read the answer off the sorted
   list. The value pool mixes NULL, ties, and values that display alike
   but compare apart (Int 1 / Text '1') or compare equal but differ in
   type (Int 1 / Float 1.0). The same query with its keys wrapped in a
   CASE goes through the per-row path and must agree too. *)
module V = Storage.Value

let win_pool =
  [| ("NULL", V.Null); ("1", V.Int 1); ("'1'", V.Text "1"); ("2", V.Int 2);
     ("'a'", V.Text "a"); ("1.0", V.Float 1.0) |]

let window_reference rows ~partitioned ~desc ~k ~b =
  let n = Array.length rows in
  let cmp a b =
    let _, oa = rows.(a) and _, ob = rows.(b) in
    let c = V.compare_total oa ob in
    if desc then -c else c
  in
  List.init n (fun i ->
      let part =
        List.filter
          (fun j ->
             (not partitioned)
             || V.compare_total (fst rows.(j)) (fst rows.(i)) = 0)
          (List.init n Fun.id)
      in
      let sorted = List.stable_sort cmp part in
      let len = List.length sorted in
      let pos =
        let rec find p = function
          | x :: _ when x = i -> p
          | _ :: tl -> find (p + 1) tl
          | [] -> assert false
        in
        find 0 sorted
      in
      let before = List.filter (fun j -> cmp j i < 0) sorted in
      let shown =
        List.sort_uniq compare
          (List.map (fun j -> V.to_display (snd rows.(j))) before)
      in
      let at p = if p >= 0 && p < len then Some (List.nth sorted p) else None in
      [| V.Int i; V.Int (pos + 1); V.Int (List.length before + 1);
         V.Int (List.length shown + 1);
         (match at (pos + k) with Some j -> V.Int j | None -> V.Null);
         (match at (pos - k) with Some j -> V.Int j | None -> V.Int (-1));
         V.Int ((pos * b / len) + 1) |])

let window_sql rows ~partitioned ~desc ~k ~b ~wrap =
  let key c =
    if wrap then Printf.sprintf "CASE WHEN TRUE THEN %s END" c else c
  in
  let over =
    Printf.sprintf "OVER (%sORDER BY %s %s)"
      (if partitioned then "PARTITION BY " ^ key "column1" ^ " " else "")
      (key "column2")
      (if desc then "DESC" else "ASC")
  in
  Printf.sprintf
    "SELECT column3, ROW_NUMBER() %s, RANK() %s, DENSE_RANK() %s, \
     LEAD(column3, %d) %s, LAG(column3, %d, -1) %s, NTILE(%d) %s \
     FROM (VALUES %s) AS v;"
    over over over k over k over b over
    (String.concat ", "
       (List.mapi
          (fun i (p, o) ->
             Printf.sprintf "(%s, %s, %d)" (fst win_pool.(p))
               (fst win_pool.(o)) i)
          rows))

let prop_window_reference () =
  let pool = Array.length win_pool - 1 in
  let arb =
    Prop.pair
      (Prop.list ~max_len:9
         (Prop.pair (Prop.int_range 0 pool) (Prop.int_range 0 pool)))
      (Prop.pair (Prop.pair Prop.bool Prop.bool)
         (Prop.pair (Prop.int_range 0 3) (Prop.int_range 1 4)))
  in
  Prop.check ~count:300 ~name:"window functions = naive reference" arb
    (fun (rows, ((partitioned, desc), (k, b))) ->
       rows = []
       ||
       let values =
         Array.of_list
           (List.map (fun (p, o) -> (snd win_pool.(p), snd win_pool.(o))) rows)
       in
       let expected = window_reference values ~partitioned ~desc ~k ~b in
       let same got =
         List.length got = List.length expected
         && List.for_all2
              (fun g e ->
                 Array.length g = Array.length e && Array.for_all2 V.equal g e)
              got expected
       in
       List.for_all
         (fun wrap ->
            same
              (rows_of
                 (last_result (fresh ())
                    (window_sql rows ~partitioned ~desc ~k ~b ~wrap))))
         [ false; true ])

let test_window_unknown_order_column () =
  let run rows =
    run_sql (fresh ())
      (Printf.sprintf
         "SELECT ROW_NUMBER() OVER (PARTITION BY column1 ORDER BY nosuch) \
          FROM (VALUES %s) AS v;"
         rows)
  in
  let failed = function
    | [ E.Sql_failed (Minidb.Errors.No_such_column "nosuch") ] -> true
    | _ -> false
  in
  Alcotest.(check bool) "singleton partitions never sort" false
    (failed (run "(1), (2), (3)"));
  Alcotest.(check bool) "a two-row partition sorts and raises" true
    (failed (run "(1), (2), (2)"));
  Alcotest.(check bool) "unknown partition column raises" true
    (match
       run_sql (fresh ())
         "SELECT ROW_NUMBER() OVER (PARTITION BY nosuch) \
          FROM (VALUES (1)) AS v;"
     with
     | [ E.Sql_failed (Minidb.Errors.No_such_column "nosuch") ] -> true
     | _ -> false)

let test_joins () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE a (x INT); CREATE TABLE b (y INT);\n\
        INSERT INTO a VALUES (1), (2);\n\
        INSERT INTO b VALUES (2), (3);");
  let r = last_result eng "SELECT * FROM a JOIN b ON (a.x = b.y);" in
  Alcotest.(check int) "inner one match" 1 (List.length (rows_of r));
  let r = last_result eng "SELECT * FROM a CROSS JOIN b;" in
  Alcotest.(check int) "cross product" 4 (List.length (rows_of r));
  let r =
    last_result eng
      "SELECT x, y FROM a LEFT JOIN b ON (a.x = b.y) ORDER BY x ASC;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "left keeps all" 2 (List.length rows);
  Alcotest.(check bool) "unmatched padded with null" true
    ((List.hd rows).(1) = Storage.Value.Null)

let test_subqueries () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3);");
  let r =
    last_result eng "SELECT a FROM t WHERE (a > (SELECT MIN(a) FROM t));"
  in
  Alcotest.(check int) "scalar subquery" 2 (List.length (rows_of r));
  let r =
    last_result eng "SELECT 1 WHERE (EXISTS (SELECT * FROM t WHERE a = 2));"
  in
  Alcotest.(check int) "exists true" 1 (List.length (rows_of r));
  let r =
    last_result eng
      "SELECT 1 WHERE (NOT EXISTS (SELECT * FROM t WHERE a = 99));"
  in
  Alcotest.(check int) "not exists true" 1 (List.length (rows_of r))

let test_set_operations () =
  let eng = fresh () in
  let r = last_result eng "SELECT 1 UNION SELECT 1 UNION SELECT 2;" in
  Alcotest.(check int) "union dedupes" 2 (List.length (rows_of r));
  let r = last_result eng "SELECT 1 UNION ALL SELECT 1;" in
  Alcotest.(check int) "union all keeps" 2 (List.length (rows_of r));
  let r = last_result eng "SELECT 1 INTERSECT SELECT 2;" in
  Alcotest.(check int) "intersect empty" 0 (List.length (rows_of r));
  let r =
    last_result eng "VALUES (1), (2), (3) EXCEPT VALUES (2);"
  in
  Alcotest.(check int) "except" 2 (List.length (rows_of r))

let test_with_cte () =
  let eng = fresh () in
  ignore
    (run_sql eng "CREATE TABLE t (a INT); INSERT INTO t VALUES (5), (6);");
  let r =
    last_result eng
      "WITH big AS (SELECT a FROM t WHERE a > 5) SELECT * FROM big;"
  in
  Alcotest.(check int) "cte rows" 1 (List.length (rows_of r))

let test_with_dml_executes () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT);");
  ignore
    (run_sql eng "WITH w AS (INSERT INTO t VALUES (1)) SELECT 1;");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "dml in with ran" 1 (int_cell (rows_of r) 0 0)

let test_order_by_desc_nulls () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (2), (NULL), (1);");
  let r = last_result eng "SELECT a FROM t ORDER BY a ASC;" in
  Alcotest.(check bool) "nulls first in total order" true
    ((List.hd (rows_of r)).(0) = Storage.Value.Null)

let test_limit_offset () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(2),(3),(4);");
  let r =
    last_result eng "SELECT a FROM t ORDER BY a ASC LIMIT 2 OFFSET 1;"
  in
  let rows = rows_of r in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  Alcotest.(check int) "offset applied" 2 (int_cell rows 0 0)

(* ---------------- rules and triggers ---------------- *)

let test_instead_rule_rewrites_insert () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE RULE r AS ON INSERT TO t DO INSTEAD NOTHING;\n\
        INSERT INTO t VALUES (1);");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "insert swallowed" 0 (int_cell (rows_of r) 0 0)

let test_trigger_fires () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE TABLE log (x INT);\n\
        CREATE TRIGGER tr AFTER INSERT ON t FOR EACH ROW INSERT INTO log \
        VALUES (1);\n\
        INSERT INTO t VALUES (10), (20);");
  let r = last_result eng "SELECT COUNT(*) FROM log;" in
  Alcotest.(check int) "fired per row" 2 (int_cell (rows_of r) 0 0)

let test_trigger_recursion_bounded () =
  let eng = fresh () in
  (* self-inserting trigger must be stopped by the depth limit *)
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE TRIGGER tr AFTER INSERT ON t FOR EACH ROW INSERT INTO t \
        VALUES (1);\n\
        INSERT INTO t VALUES (0);");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check bool) "bounded" true (int_cell (rows_of r) 0 0 < 64)

(* ---------------- transactions ---------------- *)

let test_rollback_restores () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);\n\
        BEGIN; INSERT INTO t VALUES (2); ROLLBACK;");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "rolled back" 1 (int_cell (rows_of r) 0 0)

let test_commit_keeps () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        BEGIN; INSERT INTO t VALUES (1); COMMIT;");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "committed" 1 (int_cell (rows_of r) 0 0)

let test_savepoints () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        BEGIN;\n\
        INSERT INTO t VALUES (1);\n\
        SAVEPOINT sp;\n\
        INSERT INTO t VALUES (2);\n\
        ROLLBACK TO SAVEPOINT sp;");
  let r = last_result eng "SELECT COUNT(*) FROM t;" in
  Alcotest.(check int) "partial rollback" 1 (int_cell (rows_of r) 0 0)

let test_nested_begin_errors () =
  let eng = fresh () in
  match last_error eng "BEGIN; BEGIN;" with
  | Minidb.Errors.Semantic _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_savepoint_outside_txn () =
  let eng = fresh () in
  match last_error eng "SAVEPOINT sp;" with
  | Minidb.Errors.Semantic _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

(* ---------------- locks, DCL, session ---------------- *)

let test_read_lock_blocks_write () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT); LOCK TABLES t READ;");
  (match last_error eng "INSERT INTO t VALUES (1);" with
   | Minidb.Errors.Semantic _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  ignore (run_sql eng "UNLOCK TABLES;");
  let r = last_result eng "INSERT INTO t VALUES (1);" in
  Alcotest.(check int) "unblocked" 1 (affected r)

let test_privileges () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);\n\
        CREATE USER u IDENTIFIED BY 'pw';\n\
        SET ROLE u;");
  (match last_error eng "SELECT * FROM t;" with
   | Minidb.Errors.Permission_denied _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  ignore (run_sql eng "SET ROLE root; GRANT SELECT ON t TO u; SET ROLE u;");
  let r = last_result eng "SELECT * FROM t;" in
  Alcotest.(check int) "granted" 1 (List.length (rows_of r));
  (* write still denied *)
  match last_error eng "INSERT INTO t VALUES (2);" with
  | Minidb.Errors.Permission_denied _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_prepared_statements () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (9);\n\
        PREPARE p AS SELECT a FROM t;");
  let r = last_result eng "EXECUTE p;" in
  Alcotest.(check int) "prepared ran" 1 (List.length (rows_of r));
  ignore (run_sql eng "DEALLOCATE p;");
  match last_error eng "EXECUTE p;" with
  | Minidb.Errors.No_such_object _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_notify_listen () =
  let eng = fresh () in
  ignore (run_sql eng "LISTEN chan; NOTIFY chan, 'hello';");
  let cat = E.catalog eng in
  Alcotest.(check int) "queued" 1 (List.length cat.Minidb.Catalog.notify_queue)

let test_handler_cursor () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);\n\
        HANDLER t OPEN;");
  let r = last_result eng "HANDLER t READ FIRST;" in
  Alcotest.(check int) "first row" 1 (int_cell (rows_of r) 0 0);
  let r = last_result eng "HANDLER t READ NEXT;" in
  Alcotest.(check int) "next row" 2 (int_cell (rows_of r) 0 0);
  let r = last_result eng "HANDLER t READ NEXT;" in
  Alcotest.(check int) "exhausted" 0 (List.length (rows_of r));
  ignore (run_sql eng "HANDLER t CLOSE;");
  match last_error eng "HANDLER t READ NEXT;" with
  | Minidb.Errors.Semantic _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_discard_temp () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TEMPORARY TABLE tmp (a INT);\n\
        CREATE TABLE keep (a INT);\n\
        DISCARD TEMP;");
  (match last_error eng "SELECT * FROM tmp;" with
   | Minidb.Errors.No_such_table _ -> ()
   | e -> Alcotest.fail (Minidb.Errors.message e));
  let r = last_result eng "SELECT COUNT(*) FROM keep;" in
  Alcotest.(check int) "non-temp kept" 0 (int_cell (rows_of r) 0 0)

let test_analyze_enables_index_scan () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE INDEX i ON t (a);\n\
        INSERT INTO t VALUES (1), (2), (3);");
  let plan_before = last_result eng "EXPLAIN SELECT * FROM t WHERE a = 2;" in
  ignore (run_sql eng "ANALYZE t;");
  let plan_after = last_result eng "EXPLAIN SELECT * FROM t WHERE a = 2;" in
  let text r =
    String.concat "\n"
      (List.map (fun row -> Storage.Value.to_display row.(0)) (rows_of r))
  in
  Alcotest.(check bool) "seq scan before analyze" true
    (String.length (text plan_before) > 0
     && not
          (String.length (text plan_before) >= 10
           && String.sub (text plan_before) 0 10 = "Index Scan"));
  Alcotest.(check bool) "index scan after analyze" true
    (String.length (text plan_after) >= 10
     && String.sub (text plan_after) 0 10 = "Index Scan");
  (* and the query still works *)
  let r = last_result eng "SELECT * FROM t WHERE a = 2;" in
  Alcotest.(check int) "index scan result" 1 (List.length (rows_of r))

(* ---------------- limits & engine gate ---------------- *)

(* Characterisation, not a specification: an index answers as of the
   last statement boundary that recorded its table, so a trigger that
   reads its own table through an index while a multi-row INSERT or an
   UPDATE is under way misses the rows that statement already wrote. A
   sequential scan would see them. *)
let test_trigger_reads_stale_index () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT, b INT);\n\
        CREATE TABLE log (n INT);\n\
        CREATE INDEX ix ON t (a);\n\
        INSERT INTO t VALUES (1, 0);\n\
        ANALYZE t;\n\
        CREATE TRIGGER ti AFTER INSERT ON t FOR EACH ROW \
        INSERT INTO log SELECT COUNT(*) FROM t WHERE a = 2;\n\
        INSERT INTO t VALUES (2, 0), (2, 0), (2, 0);");
  let counts sql =
    List.map (fun r -> int_cell [ r ] 0 0) (rows_of (last_result eng sql))
  in
  Alcotest.(check (list int)) "insert trigger sees the pre-statement index"
    [ 0; 0; 0 ] (counts "SELECT n FROM log;");
  Alcotest.(check (list int)) "the next statement sees all rows" [ 3 ]
    (counts "SELECT COUNT(*) FROM t WHERE a = 2;");
  ignore
    (run_sql eng
       "DELETE FROM log;\n\
        CREATE TRIGGER tu AFTER UPDATE ON t FOR EACH ROW \
        INSERT INTO log SELECT COUNT(*) FROM t WHERE a = 5;\n\
        UPDATE t SET a = 5 WHERE b = 0;");
  Alcotest.(check (list int)) "update trigger sees the pre-statement index"
    [ 0; 0; 0; 0 ] (counts "SELECT n FROM log;");
  Alcotest.(check (list int)) "after the update" [ 4 ]
    (counts "SELECT COUNT(*) FROM t WHERE a = 5;");
  Alcotest.(check (list int)) "a sequential scan sees the rows as written"
    [ 4 ] (counts "SELECT COUNT(*) FROM t WHERE b = 0;")

let test_row_limit () =
  let eng =
    E.create ~limits:Minidb.Limits.tiny ~profile:clean_profile
      ~cov:(Coverage.Bitmap.create ()) ()
  in
  ignore (run_sql eng "CREATE TABLE t (a INT);");
  match
    last_error eng
      "INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9);"
  with
  | Minidb.Errors.Limit_exceeded _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

let test_statement_budget () =
  let eng =
    E.create ~limits:Minidb.Limits.tiny ~profile:clean_profile
      ~cov:(Coverage.Bitmap.create ()) ()
  in
  let tc =
    Sqlparser.Parser.parse_testcase_exn
      (String.concat ";" (List.init 20 (fun _ -> "SELECT 1")))
  in
  let stats = E.run_testcase eng tc in
  Alcotest.(check int) "capped at limit" 8 stats.E.rs_executed

let test_profile_gate () =
  (* MySQL-sim rejects NOTIFY: not in its statement-type inventory *)
  let eng =
    E.create ~profile:Dialects.Registry.mysql_sim
      ~cov:(Coverage.Bitmap.create ()) ()
  in
  match run_sql eng "NOTIFY chan;" with
  | [ E.Sql_failed (Minidb.Errors.Not_supported _) ] -> ()
  | _ -> Alcotest.fail "expected Not_supported"

let test_window_tracking () =
  let eng = fresh () in
  ignore (run_sql eng "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  Alcotest.(check (list string)) "window"
    [ "CREATE TABLE"; "INSERT" ]
    (List.map Stmt_type.name (E.window eng))

let test_self_referencing_view_safe () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE t (a INT);\n\
        CREATE VIEW v AS SELECT * FROM v2;\n\
        CREATE VIEW v2 AS SELECT * FROM v;");
  (* cyclic views must error out, not loop forever *)
  match last_error eng "SELECT * FROM v;" with
  | Minidb.Errors.Limit_exceeded _ | Minidb.Errors.No_such_table _ -> ()
  | e -> Alcotest.fail (Minidb.Errors.message e)

(* DISTINCT must dedup what UNION dedups: Int 1 and Float 1.0 tie under
   the engine's total order, and so do 0.0 and -0.0. *)
let test_distinct_numeric_ties () =
  let eng = fresh () in
  ignore
    (run_sql eng
       "CREATE TABLE a (x INT); CREATE TABLE b (x FLOAT);\n\
        INSERT INTO a VALUES (1); INSERT INTO b VALUES (1.0);");
  let count sql = List.length (rows_of (last_result eng sql)) in
  Alcotest.(check int) "UNION" 1
    (count "SELECT x FROM a UNION SELECT x FROM b;");
  Alcotest.(check int) "DISTINCT over UNION ALL" 1
    (count
       "SELECT DISTINCT * FROM (SELECT x FROM a UNION ALL SELECT x FROM b) \
        AS s;");
  ignore
    (run_sql eng
       "CREATE TABLE z (x FLOAT); INSERT INTO z VALUES (0.0), (-1.0 * 0.0);");
  Alcotest.(check int) "signed zeros" 1 (count "SELECT DISTINCT x FROM z;")

(* ---------------- row-path characterisation ---------------- *)

(* Statement shapes pinned as the engine ran them before a rewrite of
   their code path: first the row paths that stopped allocating per
   row, then one shape per executor stage boundary (depth guards, join
   loop, FROM row binding, DML prologue, table-driven DDL). One line per
   statement (rows, affected count, or error message) plus the coverage
   cells the shape leaves behind, so a change in results, errors, probe
   keys or hit counts fails here. Results over eight rows are pinned as
   a row count and a digest. test/golden/exec-shapes.sql holds the
   stage-boundary shapes for the dialect profiles. *)

let parse_stmts = Sqlparser.Parser.parse_testcase_exn

(* A SELECT with LIMIT/OFFSET values the parser cannot express. *)
let bounded ?limit ?offset sql =
  match parse_stmts sql with
  | [ Ast.S_select (Ast.Q_select s) ] ->
    Ast.S_select (Ast.Q_select { s with limit; offset })
  | _ -> invalid_arg sql

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let show_value = function
  | V.Null -> "N"
  | V.Int n -> string_of_int n
  | V.Float f -> Printf.sprintf "%h" f
  | V.Text s -> "'" ^ s ^ "'"
  | V.Bool b -> string_of_bool b

let show_status = function
  | E.Ok_result (Minidb.Executor.Rows (headers, rows)) ->
    let lines =
      List.map
        (fun r -> String.concat "|" (Array.to_list (Array.map show_value r)))
        rows
    in
    let n = List.length rows in
    if n <= 8 then
      Printf.sprintf "%s: %s" (String.concat "," headers)
        (String.concat "; " lines)
    else
      Printf.sprintf "%s: %d rows %s" (String.concat "," headers) n
        (short_digest (String.concat "\n" lines))
  | E.Ok_result (Minidb.Executor.Affected n) -> Printf.sprintf "affected %d" n
  | E.Ok_result (Minidb.Executor.Done m) -> "done " ^ m
  | E.Sql_failed e -> "error " ^ Minidb.Errors.message e

let transcript stmts =
  let cov = Coverage.Bitmap.create () in
  let eng = E.create ~profile:clean_profile ~cov () in
  let lines = List.map (fun s -> show_status (E.exec_stmt eng s)) stmts in
  let cells = Coverage.Bitmap.(compact_cells (compact cov)) in
  lines
  @ [ Printf.sprintf "cells %d %s" (List.length cells)
        (short_digest
           (String.concat ";"
              (List.map (fun (i, v) -> Printf.sprintf "%d:%d" i v) cells))) ]

let row_path_shapes =
  [ ( "AFTER self-insert cascade",
      parse_stmts
        "CREATE TABLE t (a INT, b TEXT);\n\
         CREATE TRIGGER tr AFTER INSERT ON t FOR EACH ROW INSERT INTO t \
         SELECT a + 1, b FROM t ORDER BY a DESC;\n\
         INSERT INTO t VALUES (1, 'x');\n\
         SELECT * FROM t ORDER BY a, b;\n\
         SELECT COUNT(*), MAX(a), MIN(a) FROM t;\n\
         INSERT INTO t VALUES (2, 'y');" );
    ( "BEFORE self-insert cascade",
      parse_stmts
        "CREATE TABLE u (a INT, b INT);\n\
         CREATE TRIGGER tb BEFORE INSERT ON u FOR EACH ROW INSERT INTO u \
         SELECT a * 2, b + a FROM u WHERE a > 0;\n\
         INSERT INTO u VALUES (1, 1);\n\
         INSERT INTO u VALUES (3, 0), (5, 2);\n\
         SELECT * FROM u ORDER BY b DESC, a;\n\
         SELECT COUNT(*), MAX(a), SUM(b) FROM u;" );
    ( "INSERT SELECT coercion failure",
      parse_stmts
        "CREATE TABLE src (y INT);\n\
         INSERT INTO src VALUES (1999), (9999), (2001);\n\
         CREATE TABLE dst (y YEAR);\n\
         INSERT INTO dst SELECT y FROM src;\n\
         SELECT * FROM dst;\n\
         INSERT IGNORE INTO dst SELECT y FROM src;\n\
         SELECT * FROM dst;\n\
         INSERT INTO dst VALUES (2010), (3000), (2011);\n\
         INSERT IGNORE INTO dst VALUES (2012), (3000), (2013);\n\
         SELECT * FROM dst ORDER BY y DESC;" );
    ( "self joins",
      parse_stmts
        "CREATE TABLE p (id INT, parent INT);\n\
         INSERT INTO p VALUES (1, NULL), (2, 1), (3, 1), (4, 9);\n\
         SELECT x.id, y.id FROM p AS x LEFT JOIN p AS y ON x.parent = y.id \
         ORDER BY x.id;\n\
         SELECT x.id, y.id FROM p AS x RIGHT JOIN p AS y ON x.parent = y.id \
         ORDER BY y.id DESC, x.id;\n\
         SELECT COUNT(*) FROM p AS x JOIN p AS y ON x.id < y.id;" );
    ( "star projections",
      parse_stmts
        "CREATE TABLE s (a INT, b TEXT);\n\
         INSERT INTO s VALUES (1, 'one'), (2, 'two');\n\
         SELECT * FROM s;\n\
         SELECT s.* FROM s;\n\
         SELECT *, a FROM s;\n\
         SELECT y.* FROM s AS x JOIN s AS y ON x.a < y.a;\n\
         SELECT * FROM s AS x JOIN s AS y ON x.a = y.a;\n\
         SELECT q.* FROM s;\n\
         SELECT *;" );
    ( "multi-key ORDER BY",
      parse_stmts
        "CREATE TABLE m (a INT, b TEXT, c FLOAT);\n\
         INSERT INTO m VALUES (2, 'b', 1.5), (1, 'b', NULL), (2, 'a', 0.5), \
         (NULL, 'c', 2.5), (1, NULL, 1.5), (3, 'a', NULL);\n\
         SELECT a, b FROM m ORDER BY b DESC, a;\n\
         SELECT a, b, c FROM m ORDER BY c, a DESC, b DESC;\n\
         SELECT b FROM m ORDER BY a DESC, c;" );
    ( "OFFSET and LIMIT bounds",
      parse_stmts
        "CREATE TABLE o (a INT);\n\
         INSERT INTO o VALUES (5), (3), (4), (1), (2);"
      @ [ bounded ~limit:0 "SELECT a FROM o ORDER BY a";
          bounded ~limit:(-1) "SELECT a FROM o ORDER BY a";
          bounded ~offset:(-2) "SELECT a FROM o ORDER BY a";
          bounded ~offset:(-1) ~limit:2 "SELECT a FROM o";
          bounded ~offset:0 ~limit:0 "SELECT a FROM o";
          bounded ~offset:4 ~limit:10 "SELECT a FROM o ORDER BY a DESC";
          bounded ~offset:9 "SELECT a FROM o";
          bounded ~limit:9 "SELECT a FROM o" ] );
    ( "DISTINCT with ORDER BY",
      parse_stmts
        "CREATE TABLE d (a INT, b TEXT);\n\
         INSERT INTO d VALUES (1, 'x'), (2, 'y'), (1, 'x'), (3, 'x'), \
         (2, 'z'), (NULL, 'x'), (NULL, 'x');\n\
         SELECT DISTINCT b FROM d ORDER BY b DESC;\n\
         SELECT DISTINCT a, b FROM d ORDER BY a DESC, b;\n\
         SELECT DISTINCT b FROM d ORDER BY a;\n\
         SELECT DISTINCT a FROM d;" );
    ( "CREATE of every kind, twice",
      parse_stmts
        "CREATE TABLE ck (a INT PRIMARY KEY, b TEXT);\n\
         CREATE TABLE ck (a INT);\n\
         CREATE TABLE IF NOT EXISTS ck (a INT);\n\
         INSERT INTO ck VALUES (1, 'x'), (2, 'x');\n\
         CREATE TEMPORARY TABLE ckt (x INT);\n\
         CREATE TEMPORARY TABLE ckt (x INT);\n\
         CREATE TABLE ckd (a INT, a INT);\n\
         CREATE INDEX cki ON ck (b);\n\
         CREATE INDEX cki ON ck (b);\n\
         CREATE INDEX ckj ON ck (nosuch);\n\
         CREATE INDEX ckk ON nosuch (a);\n\
         CREATE UNIQUE INDEX cku ON ck (a);\n\
         CREATE UNIQUE INDEX cku ON ck (a);\n\
         CREATE UNIQUE INDEX ckub ON ck (b);\n\
         CREATE VIEW ckv AS SELECT a FROM ck;\n\
         CREATE VIEW ckv AS SELECT a FROM ck;\n\
         CREATE VIEW ck AS SELECT 1;\n\
         CREATE TABLE ckv (a INT);\n\
         CREATE MATERIALIZED VIEW ckm AS SELECT b FROM ck;\n\
         CREATE MATERIALIZED VIEW ckm AS SELECT b FROM ck;\n\
         CREATE TRIGGER cktr AFTER INSERT ON ck FOR EACH ROW DELETE FROM \
         ckt;\n\
         CREATE TRIGGER cktr AFTER INSERT ON ck FOR EACH ROW DELETE FROM \
         ckt;\n\
         CREATE TRIGGER cktr2 AFTER INSERT ON nosuch FOR EACH ROW DELETE \
         FROM ckt;\n\
         CREATE TRIGGER cktr3 BEFORE UPDATE ON ck FOR EACH ROW BEGIN DELETE \
         FROM ckt; SELECT 1; END;\n\
         CREATE RULE ckr AS ON INSERT TO ck DO NOTHING;\n\
         CREATE RULE ckr AS ON INSERT TO ck DO NOTHING;\n\
         CREATE RULE ckr2 AS ON DELETE TO nosuch DO NOTHING;\n\
         CREATE RULE ckri AS ON DELETE TO ck DO INSTEAD NOTHING;\n\
         CREATE SEQUENCE cks START WITH 5 INCREMENT BY 2;\n\
         CREATE SEQUENCE cks START WITH 5 INCREMENT BY 2;\n\
         CREATE SEQUENCE cks0 START WITH 1 INCREMENT BY 0;\n\
         CREATE SCHEMA cksc;\n\
         CREATE SCHEMA cksc;\n\
         CREATE DATABASE ckdb;\n\
         CREATE DATABASE ckdb;\n\
         CREATE USER cku1 IDENTIFIED BY 'p';\n\
         CREATE USER cku1 IDENTIFIED BY 'p';\n\
         SHOW TABLES;\n\
         SHOW STATUS;" );
    ( "DROP of every kind: present, absent and IF EXISTS",
      parse_stmts
        "CREATE TABLE dk (a INT, b INT);\n\
         CREATE INDEX dki ON dk (a);\n\
         CREATE VIEW dkv AS SELECT a FROM dk;\n\
         CREATE TRIGGER dktr AFTER INSERT ON dk FOR EACH ROW DELETE FROM dk \
         WHERE a < 0;\n\
         CREATE RULE dkr AS ON UPDATE TO dk DO NOTHING;\n\
         CREATE SEQUENCE dks START WITH 1 INCREMENT BY 1;\n\
         CREATE SCHEMA dksc;\n\
         CREATE DATABASE dkdb;\n\
         CREATE USER dku IDENTIFIED BY 'p';\n\
         DROP INDEX dki;\n\
         DROP INDEX dki;\n\
         DROP INDEX IF EXISTS dki;\n\
         DROP VIEW dkv;\n\
         DROP VIEW dkv;\n\
         DROP VIEW IF EXISTS dkv;\n\
         DROP TRIGGER dktr;\n\
         DROP TRIGGER dktr;\n\
         DROP TRIGGER IF EXISTS dktr;\n\
         DROP RULE dkr ON dk;\n\
         DROP RULE dkr ON dk;\n\
         DROP RULE IF EXISTS dkr ON dk;\n\
         DROP SEQUENCE dks;\n\
         DROP SEQUENCE dks;\n\
         DROP SEQUENCE IF EXISTS dks;\n\
         DROP SCHEMA dksc;\n\
         DROP SCHEMA dksc;\n\
         DROP SCHEMA IF EXISTS dksc;\n\
         DROP DATABASE dkdb;\n\
         DROP DATABASE dkdb;\n\
         DROP DATABASE IF EXISTS dkdb;\n\
         DROP USER dku;\n\
         DROP USER dku;\n\
         DROP USER IF EXISTS dku;\n\
         DROP TABLE dk;\n\
         DROP TABLE dk;\n\
         DROP TABLE IF EXISTS dk;\n\
         SHOW TABLES;" );
    ( "DROP TABLE cascading to an index, a trigger and a rule",
      parse_stmts
        "CREATE TABLE ct (a INT, b INT);\n\
         CREATE TABLE cto (a INT);\n\
         CREATE INDEX cti ON ct (a);\n\
         CREATE INDEX cti2 ON ct (b);\n\
         CREATE INDEX ctoi ON cto (a);\n\
         CREATE TRIGGER cttr AFTER INSERT ON ct FOR EACH ROW INSERT INTO \
         cto VALUES (1);\n\
         CREATE TRIGGER ctotr AFTER INSERT ON cto FOR EACH ROW DELETE FROM \
         cto WHERE a > 5;\n\
         CREATE RULE ctr AS ON DELETE TO ct DO INSTEAD NOTHING;\n\
         CREATE RULE ctor AS ON UPDATE TO cto DO NOTHING;\n\
         HANDLER ct OPEN;\n\
         INSERT INTO ct VALUES (1, 2);\n\
         LOCK TABLES ct READ;\n\
         DROP TABLE ct;\n\
         SHOW STATUS;\n\
         DROP INDEX cti;\n\
         DROP TRIGGER cttr;\n\
         DROP RULE ctr ON ct;\n\
         HANDLER ct READ FIRST;\n\
         INSERT INTO ct VALUES (1, 2);\n\
         INSERT INTO cto VALUES (7);\n\
         SELECT * FROM cto;\n\
         DROP TABLE cto;\n\
         CREATE TABLE ctn (a INT);\n\
         DROP TABLE ctn;\n\
         UNLOCK TABLES;" );
    ( "DROP of the current database and of root",
      parse_stmts
        "CREATE DATABASE cdb;\n\
         USE cdb;\n\
         DROP DATABASE cdb;\n\
         DROP DATABASE main;\n\
         USE main;\n\
         DROP DATABASE cdb;\n\
         USE cdb;\n\
         DROP USER root;\n\
         DROP USER IF EXISTS root;\n\
         CREATE USER cdu IDENTIFIED BY 'p';\n\
         SET ROLE cdu;\n\
         DROP USER cdu;\n\
         SHOW STATUS;\n\
         DROP USER cdu;" );
    ( "RENAME TABLE and ALTER RENAME TO with dependents",
      parse_stmts
        "CREATE TABLE ra (x INT UNIQUE, y INT);\n\
         CREATE TABLE rlog (n INT);\n\
         CREATE INDEX rai ON ra (y);\n\
         CREATE TRIGGER rat AFTER INSERT ON ra FOR EACH ROW INSERT INTO \
         rlog VALUES (1);\n\
         CREATE TRIGGER rbt BEFORE UPDATE ON ra FOR EACH ROW INSERT INTO \
         rlog VALUES (2);\n\
         CREATE RULE rar AS ON DELETE TO ra DO INSTEAD INSERT INTO rlog \
         VALUES (3);\n\
         CREATE RULE rau AS ON UPDATE TO ra DO INSERT INTO rlog VALUES \
         (4);\n\
         RENAME TABLE ra TO rb;\n\
         INSERT INTO rb VALUES (1, 10), (2, 20);\n\
         UPDATE rb SET y = 11 WHERE x = 1;\n\
         DELETE FROM rb;\n\
         ANALYZE;\n\
         SELECT * FROM rb WHERE y = 11;\n\
         SELECT n, COUNT(*) FROM rlog GROUP BY n ORDER BY n;\n\
         ALTER TABLE rb RENAME TO rc;\n\
         INSERT INTO rc VALUES (3, 30);\n\
         INSERT INTO rc VALUES (3, 31);\n\
         UPDATE rc SET y = 32 WHERE x = 3;\n\
         DELETE FROM rc WHERE x = 3;\n\
         SELECT * FROM rc WHERE y = 32;\n\
         SELECT n, COUNT(*) FROM rlog GROUP BY n ORDER BY n;\n\
         RENAME TABLE rc TO rlog;\n\
         ALTER TABLE rc RENAME TO rlog;\n\
         RENAME TABLE rc TO rd, rnosuch TO re;\n\
         SELECT * FROM rd;\n\
         DROP TRIGGER rat;\n\
         DROP RULE rar ON rd;\n\
         DROP INDEX rai;\n\
         DROP TABLE rd;\n\
         SHOW TABLES;" );
    ( "UPDATE and DELETE with WHERE and LIMIT",
      parse_stmts
        "CREATE TABLE ul (a INT, b INT NOT NULL, c INT UNIQUE);\n\
         CREATE TABLE ullog (n INT);\n\
         CREATE TRIGGER ult BEFORE UPDATE ON ul FOR EACH ROW INSERT INTO \
         ullog VALUES (1);\n\
         CREATE TRIGGER uld AFTER DELETE ON ul FOR EACH ROW INSERT INTO \
         ullog VALUES (2);\n\
         INSERT INTO ul VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), \
         (5, 5, 5), (6, 6, 6);\n\
         UPDATE ul SET b = b + 10 WHERE a > 1 LIMIT 2;\n\
         UPDATE ul SET b = 0 LIMIT 0;\n\
         UPDATE ul SET b = b + 100 LIMIT 3;\n\
         UPDATE ul SET b = 1 WHERE a > 100 LIMIT 2;\n\
         UPDATE ul SET b = 1 WHERE nosuch = 1 LIMIT 2;\n\
         UPDATE ul SET nosuch = 1 WHERE a = 1;\n\
         UPDATE ul SET b = NULL WHERE a = 6 LIMIT 1;\n\
         UPDATE ul SET c = 1 WHERE a = 2 LIMIT 1;\n\
         UPDATE ul SET b = 'x' WHERE a = 2;\n\
         UPDATE ul SET b = b + 1 WHERE a IN (5, 6);\n\
         SELECT * FROM ul ORDER BY a;\n\
         DELETE FROM ul WHERE a > 2 LIMIT 2;\n\
         DELETE FROM ul LIMIT 0;\n\
         DELETE FROM ul WHERE a > 100;\n\
         DELETE FROM ul WHERE nosuch = 1;\n\
         DELETE FROM ul LIMIT 1;\n\
         SELECT * FROM ul ORDER BY a;\n\
         SELECT n, COUNT(*) FROM ullog GROUP BY n ORDER BY n;\n\
         DELETE FROM ul;\n\
         DELETE FROM ul;\n\
         UPDATE nosuch SET a = 1;\n\
         DELETE FROM nosuch;\n\
         LOCK TABLES ul READ;\n\
         UPDATE ul SET a = 1;\n\
         DELETE FROM ul;\n\
         INSERT INTO ul VALUES (7, 7, 7);\n\
         UNLOCK TABLES;" );
    ( "view and subquery row padding",
      parse_stmts
        "CREATE TABLE vp (a INT, b INT);\n\
         INSERT INTO vp VALUES (1, 2), (3, 4);\n\
         CREATE VIEW vpn AS SELECT a FROM vp UNION ALL SELECT a, b FROM \
         vp;\n\
         CREATE VIEW vpw AS SELECT a, b FROM vp UNION ALL SELECT a FROM \
         vp;\n\
         SELECT * FROM vpn;\n\
         SELECT * FROM vpw;\n\
         SELECT vpw.b FROM vpw;\n\
         SELECT * FROM (SELECT a FROM vp UNION ALL SELECT a, b FROM vp) AS \
         s;\n\
         SELECT * FROM (SELECT a, b FROM vp UNION ALL SELECT b FROM vp) AS \
         s;\n\
         SELECT s.column2 FROM (VALUES (1, 2), (3)) AS s;\n\
         WITH c AS (SELECT a FROM vp UNION ALL SELECT a, b FROM vp) SELECT \
         * FROM c;\n\
         WITH c AS (SELECT a, b FROM vp UNION ALL SELECT b FROM vp) SELECT \
         * FROM c;\n\
         CREATE MATERIALIZED VIEW vpm AS SELECT * FROM vp;\n\
         SELECT * FROM vpm;\n\
         ALTER TABLE vp ADD COLUMN c INT DEFAULT 7;\n\
         SELECT * FROM vpm;\n\
         REFRESH MATERIALIZED VIEW vpm;\n\
         SELECT * FROM vpm;\n\
         CREATE MATERIALIZED VIEW vpe AS SELECT * FROM vp WHERE a > 100;\n\
         SELECT * FROM vpe;\n\
         CREATE VIEW vps AS SELECT * FROM vps;\n\
         SELECT * FROM vps;\n\
         CREATE VIEW vpx AS SELECT * FROM vpy;\n\
         CREATE VIEW vpy AS SELECT * FROM vpx;\n\
         SELECT * FROM vpx;\n\
         SELECT vpx.* FROM vpx;\n\
         SELECT * FROM vp AS x JOIN vps AS y ON 1 = 1;\n\
         TABLE vp;\n\
         COPY vp TO STDOUT;\n\
         COPY (SELECT * FROM vpn) TO STDOUT;" );
    ( "LEFT, RIGHT and CROSS joins with an empty side",
      parse_stmts
        "CREATE TABLE jl (a INT);\n\
         CREATE TABLE je (b INT);\n\
         INSERT INTO jl VALUES (1), (2);\n\
         SELECT * FROM jl LEFT JOIN je ON jl.a = je.b;\n\
         SELECT * FROM je LEFT JOIN jl ON jl.a = je.b;\n\
         SELECT * FROM jl RIGHT JOIN je ON jl.a = je.b;\n\
         SELECT * FROM je RIGHT JOIN jl ON jl.a = je.b;\n\
         SELECT * FROM jl CROSS JOIN je;\n\
         SELECT * FROM je CROSS JOIN jl;\n\
         SELECT * FROM jl JOIN je ON jl.a = je.b;\n\
         SELECT * FROM je JOIN jl ON 1 = 1;\n\
         SELECT * FROM jl AS x CROSS JOIN jl AS y;\n\
         SELECT * FROM jl AS x JOIN jl AS y ON x.a <= y.a;\n\
         SELECT * FROM jl AS x LEFT JOIN jl AS y ON x.a < y.a;\n\
         SELECT * FROM jl AS x RIGHT JOIN jl AS y ON x.a < y.a;\n\
         SELECT * FROM (jl AS x LEFT JOIN je ON x.a = je.b) RIGHT JOIN jl \
         AS z ON z.a = x.a;\n\
         SELECT * FROM jl AS z LEFT JOIN (jl AS x JOIN je ON x.a = je.b) ON \
         z.a = x.a;\n\
         SELECT * FROM jl LEFT JOIN (SELECT b, b + 1 AS c FROM je) AS s ON \
         jl.a = s.b;\n\
         SELECT * FROM (SELECT a FROM jl) AS s RIGHT JOIN je ON s.a = \
         je.b;\n\
         SELECT * FROM jl LEFT JOIN je ON nosuch = 1;\n\
         SELECT * FROM jl RIGHT JOIN jl AS y ON nosuch = 1;\n\
         SELECT * FROM jl LEFT JOIN je ON je.b = 1 RIGHT JOIN jl AS w ON \
         w.a = 2;\n\
         INSERT INTO jl SELECT a + 2 FROM jl;\n\
         INSERT INTO jl SELECT a + 4 FROM jl;\n\
         INSERT INTO jl SELECT a + 8 FROM jl;\n\
         INSERT INTO jl SELECT a + 16 FROM jl;\n\
         INSERT INTO jl SELECT a + 32 FROM jl;\n\
         INSERT INTO jl SELECT a + 64 FROM jl;\n\
         INSERT INTO jl SELECT a + 128 FROM jl;\n\
         SELECT COUNT(*) FROM jl AS x CROSS JOIN jl AS y;\n\
         SELECT COUNT(*) FROM jl AS x LEFT JOIN jl AS y ON x.a = y.a;\n\
         SELECT COUNT(*) FROM jl AS x RIGHT JOIN je ON x.a = je.b;\n\
         SELECT COUNT(*) FROM jl AS x JOIN jl AS y ON x.a = y.a;" );
    ( "DISCARD ALL and DISCARD TEMP",
      parse_stmts
        "CREATE TABLE dp (a INT);\n\
         CREATE TEMPORARY TABLE dpt (a INT);\n\
         CREATE TEMPORARY TABLE dpu (a INT);\n\
         PREPARE dpp AS SELECT 1;\n\
         LISTEN dpch;\n\
         DISCARD PLANS;\n\
         DISCARD TEMP;\n\
         SHOW TABLES;\n\
         DISCARD TEMP;\n\
         CREATE TEMPORARY TABLE dpt (a INT);\n\
         DISCARD ALL;\n\
         SHOW TABLES;\n\
         EXECUTE dpp;\n\
         NOTIFY dpch;\n\
         DISCARD ALL;" );
    ( "HANDLER READ past the end",
      parse_stmts
        "CREATE TABLE hr (a INT, b TEXT);\n\
         INSERT INTO hr VALUES (1, 'one'), (2, 'two');\n\
         HANDLER hr READ FIRST;\n\
         HANDLER hr OPEN;\n\
         HANDLER hr OPEN;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER hr READ FIRST;\n\
         DELETE FROM hr WHERE a = 1;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER hr CLOSE;\n\
         HANDLER hr CLOSE;\n\
         HANDLER hr READ NEXT;\n\
         HANDLER nosuch OPEN;" );
    ( "trigger and INSTEAD-rule depth limits",
      parse_stmts
        "CREATE TABLE dt (a INT);\n\
         CREATE TRIGGER dtt AFTER INSERT ON dt FOR EACH ROW INSERT INTO dt \
         SELECT a + 1 FROM dt WHERE a < 100 LIMIT 1;\n\
         INSERT INTO dt VALUES (1);\n\
         SELECT a FROM dt ORDER BY a;\n\
         CREATE TABLE dr (a INT);\n\
         CREATE RULE dri AS ON INSERT TO dr DO INSTEAD INSERT INTO dr \
         VALUES (1);\n\
         INSERT INTO dr VALUES (0);\n\
         CREATE RULE dru AS ON UPDATE TO dr DO INSTEAD UPDATE dr SET a = \
         2;\n\
         UPDATE dr SET a = 1;\n\
         CREATE RULE drd AS ON DELETE TO dr DO INSTEAD DELETE FROM dr;\n\
         DELETE FROM dr;\n\
         SELECT COUNT(*) FROM dr;" );
    ( "a self-recursive EXECUTE",
      parse_stmts
        "CREATE TABLE xe (a INT);\n\
         PREPARE xp AS INSERT INTO xe VALUES (1);\n\
         PREPARE xq AS EXECUTE xp;\n\
         EXECUTE xnosuch;\n\
         CREATE RULE xer AS ON INSERT TO xe DO INSTEAD EXECUTE xp;\n\
         EXECUTE xp;\n\
         SELECT COUNT(*) FROM xe;\n\
         DROP RULE xer ON xe;\n\
         CREATE RULE xea AS ON INSERT TO xe DO EXECUTE xp;\n\
         EXECUTE xp;\n\
         INSERT INTO xe VALUES (2);\n\
         SELECT COUNT(*) FROM xe;\n\
         DROP RULE xea ON xe;\n\
         CREATE TRIGGER xet AFTER DELETE ON xe FOR EACH ROW INSERT INTO xe \
         VALUES (3);\n\
         PREPARE xd AS DELETE FROM xe WHERE a = 1;\n\
         EXECUTE xd;\n\
         SELECT a, COUNT(*) FROM xe GROUP BY a ORDER BY a;\n\
         DEALLOCATE xd;\n\
         DEALLOCATE xd;" );
    ( "rules inside WITH, and non-INSTEAD rules",
      parse_stmts
        "CREATE TABLE dn (a INT);\n\
         CREATE RULE dnr AS ON INSERT TO dn DO INSTEAD NOTIFY dch;\n\
         LISTEN dch;\n\
         INSERT INTO dn VALUES (1);\n\
         WITH w AS (INSERT INTO dn VALUES (2)) SELECT 1;\n\
         WITH w AS (UPDATE dn SET a = 3) DELETE FROM dn;\n\
         CREATE TABLE da (a INT);\n\
         CREATE RULE dar AS ON INSERT TO da DO INSERT INTO da VALUES (9);\n\
         INSERT INTO da VALUES (1);\n\
         SELECT a, COUNT(*) FROM da GROUP BY a ORDER BY a;\n\
         CREATE RULE dan AS ON INSERT TO dn DO NOTIFY dch;\n\
         CREATE RULE danx AS ON INSERT TO da DO NOTIFY dch;\n\
         INSERT INTO da VALUES (2);\n\
         SELECT COUNT(*) FROM da;" ) ]

let row_path_pins =
  [ ( "AFTER self-insert cascade",
      [ "done table created";
        "done trigger created";
        "error resource limit exceeded: table rows";
        "a,b: 2048 rows 5ce2839b5279";
        "expr,expr,expr: 2048|14|1";
        "error resource limit exceeded: table rows";
        "cells 52 1a896ec8cdcb" ] );
    ( "BEFORE self-insert cascade",
      [ "done table created";
        "done trigger created";
        "affected 1";
        "error resource limit exceeded: table rows";
        "a,b: 2048 rows 6f66c3d8833b";
        "expr,expr,expr: 2048|768|93608";
        "cells 55 04149f9a5bfa" ] );
    ( "INSERT SELECT coercion failure",
      [ "done table created";
        "affected 3";
        "done table created";
        "error type error: year value 9999 out of range";
        "y: 1999";
        "affected 2";
        "y: 1999; 1999; 2001";
        "error type error: year value 3000 out of range";
        "affected 2";
        "y: 2013; 2012; 2010; 2001; 1999; 1999";
        "cells 32 a14380f5a1f3" ] );
    ( "self joins",
      [ "done table created";
        "affected 4";
        "id,id: 1|N; 2|1; 3|1; 4|N";
        "id,id: N|4; N|3; N|2; 2|1; 3|1";
        "expr: 6";
        "cells 30 ea6cf228854d" ] );
    ( "star projections",
      [ "done table created";
        "affected 2";
        "a,b: 1|'one'; 2|'two'";
        "a,b: 1|'one'; 2|'two'";
        "a,b,a: 1|'one'|1; 2|'two'|2";
        "a,b: 2|'two'";
        "a,b,a,b: 1|'one'|1|'one'; 2|'two'|2|'two'";
        "error no such table: q";
        "star: ";
        "cells 22 9bc33b7d267a" ] );
    ( "multi-key ORDER BY",
      [ "done table created";
        "affected 6";
        "a,b: N|'c'; 1|'b'; 2|'b'; 2|'a'; 3|'a'; 1|N";
        "a,b,c: 3|'a'|N; 1|'b'|N; 2|'a'|0x1p-1; 2|'b'|0x1.8p+0; \
         1|N|0x1.8p+0; N|'c'|0x1.4p+1";
        "b: 'a'; 'a'; 'b'; 'b'; N; 'c'";
        "cells 20 71b74fec1d83" ] );
    ( "OFFSET and LIMIT bounds",
      [ "done table created";
        "affected 5";
        "a: ";
        "a: ";
        "a: 1; 2; 3; 4; 5";
        "a: 5; 3";
        "a: ";
        "a: 1";
        "a: ";
        "a: 5; 3; 4; 1; 2";
        "cells 20 645ca15e5f84" ] );
    ( "DISTINCT with ORDER BY",
      [ "done table created";
        "affected 7";
        "b: 'z'; 'y'; 'x'";
        "a,b: 3|'x'; 2|'y'; 2|'z'; 1|'x'; N|'x'";
        "b: 'x'; 'y'; 'z'";
        "a: 1; 2; 3; N";
        "cells 23 cf040d300eda" ] );
    ( "CREATE of every kind, twice",
      [ "done table created";
        "error table already exists: ck";
        "done table exists, skipped";
        "affected 2";
        "done table created";
        "error table already exists: ckt";
        "error semantic error: duplicate column name";
        "done index created";
        "error index already exists: cki";
        "error no such column: nosuch";
        "error no such table: nosuch";
        "done index created";
        "error index already exists: cku";
        "error constraint violation: duplicate key while building index";
        "done view created";
        "error view already exists: ckv";
        "error view already exists: ck";
        "error table already exists: ckv";
        "done view created";
        "error view already exists: ckm";
        "done trigger created";
        "error trigger already exists: cktr";
        "error no such table: nosuch";
        "error semantic error: trigger body must be DML";
        "done rule created";
        "error rule already exists: ckr";
        "error no such table: nosuch";
        "done rule created";
        "done sequence created";
        "error sequence already exists: cks";
        "error semantic error: zero sequence step";
        "done schema created";
        "error schema already exists: cksc";
        "done database created";
        "error database already exists: ckdb";
        "done user created";
        "error user already exists: cku1";
        "Tables: 'ck'; 'ckm'; 'ckt'; 'ckv'";
        "Variable_name,Value: 'tables'|2; 'objects'|10; 'in_txn'|false";
        "cells 98 910f8de9c755" ] );
    ( "DROP of every kind: present, absent and IF EXISTS",
      [ "done table created";
        "done index created";
        "done view created";
        "done trigger created";
        "done rule created";
        "done sequence created";
        "done schema created";
        "done database created";
        "done user created";
        "done index dropped";
        "error no such index: dki";
        "done index does not exist, skipped";
        "done view dropped";
        "error no such view: dkv";
        "done view does not exist, skipped";
        "done trigger dropped";
        "error no such trigger: dktr";
        "done trigger does not exist, skipped";
        "done rule dropped";
        "error no such rule: dkr";
        "done rule does not exist, skipped";
        "done sequence dropped";
        "error no such sequence: dks";
        "done sequence does not exist, skipped";
        "done schema dropped";
        "error no such schema: dksc";
        "done schema does not exist, skipped";
        "done database dropped";
        "error no such database: dkdb";
        "done database does not exist, skipped";
        "done user dropped";
        "error no such user: dku";
        "done user does not exist, skipped";
        "done table dropped";
        "error no such table: dk";
        "done table does not exist, skipped";
        "Tables: ";
        "cells 83 dcff72e39af7" ] );
    ( "DROP TABLE cascading to an index, a trigger and a rule",
      [ "done table created";
        "done table created";
        "done index created";
        "done index created";
        "done index created";
        "done trigger created";
        "done trigger created";
        "done rule created";
        "done rule created";
        "done handler open";
        "affected 1";
        "done locked";
        "done table dropped";
        "Variable_name,Value: 'tables'|1; 'objects'|4; 'in_txn'|false";
        "error no such index: cti";
        "error no such trigger: cttr";
        "error no such rule: ctr";
        "error semantic error: handler not open";
        "error no such table: ct";
        "affected 1";
        "a: 1";
        "done table dropped";
        "done table created";
        "done table dropped";
        "done unlocked";
        "cells 75 9c8def562c06" ] );
    ( "DROP of the current database and of root",
      [ "done database created";
        "done database changed";
        "error semantic error: cannot drop the current database";
        "done database dropped";
        "error no such database: main";
        "error semantic error: cannot drop the current database";
        "done database changed";
        "error semantic error: cannot drop root";
        "error semantic error: cannot drop root";
        "done user created";
        "done role set";
        "done user dropped";
        "Variable_name,Value: 'tables'|0; 'objects'|0; 'in_txn'|false";
        "error no such user: cdu";
        "cells 33 5199a5d09f89" ] );
    ( "RENAME TABLE and ALTER RENAME TO with dependents",
      [ "done table created";
        "done table created";
        "done index created";
        "done trigger created";
        "done trigger created";
        "done rule created";
        "done rule created";
        "done renamed";
        "affected 2";
        "affected 1";
        "affected 1";
        "done analyzed";
        "x,y: 1|11";
        "n,expr: 1|2; 2|1; 3|1";
        "done table altered";
        "affected 1";
        "error constraint violation: UNIQUE constraint";
        "affected 1";
        "affected 1";
        "x,y: 3|32";
        "n,expr: 1|3; 2|2; 3|2";
        "error table already exists: rlog";
        "error table already exists: rlog";
        "error no such table: rnosuch";
        "x,y: 1|11; 2|20; 3|32";
        "done trigger dropped";
        "done rule dropped";
        "done index dropped";
        "done table dropped";
        "Tables: 'rlog'";
        "cells 90 b203e8bebe62" ] );
    ( "UPDATE and DELETE with WHERE and LIMIT",
      [ "done table created";
        "done table created";
        "done trigger created";
        "done trigger created";
        "affected 6";
        "affected 2";
        "affected 0";
        "affected 3";
        "affected 0";
        "error no such column: nosuch";
        "error no such column: nosuch";
        "error constraint violation: NOT NULL constraint";
        "error constraint violation: UNIQUE constraint";
        "affected 1";
        "affected 2";
        "a,b,c: 1|101|1; 2|0|2; 3|113|3; 4|4|4; 5|6|5; 6|7|6";
        "affected 2";
        "affected 0";
        "affected 0";
        "error no such column: nosuch";
        "affected 1";
        "a,b,c: 2|0|2; 5|6|5; 6|7|6";
        "n,expr: 1|8; 2|2";
        "affected 3";
        "affected 0";
        "error no such table: nosuch";
        "error no such table: nosuch";
        "done locked";
        "error semantic error: table ul is READ locked";
        "error semantic error: table ul is READ locked";
        "error semantic error: table ul is READ locked";
        "done unlocked";
        "cells 71 ddb93491956a" ] );
    ( "view and subquery row padding",
      [ "done table created";
        "affected 2";
        "done view created";
        "done view created";
        "a: 1; 3; 1; 3";
        "a,b: 1|2; 3|4; 1|N; 3|N";
        "b: 2; 4; N; N";
        "a: 1; 3; 1; 3";
        "a,b: 1|2; 3|4; 2|N; 4|N";
        "column2: 2; N";
        "a: 1; 3; 1|2; 3|4";
        "a,b: 1|2; 3|4; 2; 4";
        "done view created";
        "a,b: 1|2; 3|4";
        "done table altered";
        "a,b,c: 1|2|N; 3|4|N";
        "done materialized view refreshed";
        "a,b,c: 1|2|7; 3|4|7";
        "done view created";
        "a,b,c: ";
        "done view created";
        "error resource limit exceeded: view nesting depth";
        "done view created";
        "done view created";
        "error resource limit exceeded: view nesting depth";
        "error resource limit exceeded: view nesting depth";
        "error resource limit exceeded: view nesting depth";
        "a,b,c: 1|2|7; 3|4|7";
        "a,b,c: 1|2|7; 3|4|7";
        "a: 1; 3; 1; 3";
        "cells 64 0ee50d3687d5" ] );
    ( "LEFT, RIGHT and CROSS joins with an empty side",
      [ "done table created";
        "done table created";
        "affected 2";
        "a,b: 1|N; 2|N";
        "b,a: ";
        "a,b: ";
        "b,a: N|1; N|2";
        "a,b: ";
        "b,a: ";
        "a,b: ";
        "b,a: ";
        "a,a: 1|1; 1|2; 2|1; 2|2";
        "a,a: 1|1; 1|2; 2|2";
        "a,a: 1|2; 2|N";
        "a,a: N|1; 1|2";
        "a,b,a: 1|N|1; 2|N|2";
        "a,a,b: 1|N|N; 2|N|N";
        "a,b,c: 1|N|N; 2|N|N";
        "a,b: ";
        "a,b: 1|N; 2|N";
        "error no such column: nosuch";
        "a,b,a: N|N|1; 1|N|2; 2|N|2";
        "affected 2";
        "affected 4";
        "affected 8";
        "affected 16";
        "affected 32";
        "affected 64";
        "affected 128";
        "error resource limit exceeded: join size";
        "error resource limit exceeded: join size";
        "expr: 0";
        "error resource limit exceeded: join size";
        "cells 65 f84eb5e9ee07" ] );
    ( "DISCARD ALL and DISCARD TEMP",
      [ "done table created";
        "done table created";
        "done table created";
        "done prepared";
        "done listening";
        "done discarded";
        "done discarded";
        "Tables: 'dp'";
        "done discarded";
        "done table created";
        "done discarded";
        "Tables: 'dp'";
        "error no such prepared statement: dpp";
        "done notified";
        "done discarded";
        "cells 34 a2fef37e7762" ] );
    ( "HANDLER READ past the end",
      [ "done table created";
        "affected 2";
        "error semantic error: handler not open";
        "done handler open";
        "error semantic error: handler already open";
        "a,b: 1|'one'";
        "a,b: 2|'two'";
        "a,b: ";
        "a,b: ";
        "a,b: 1|'one'";
        "affected 1";
        "a,b: ";
        "done handler closed";
        "error semantic error: handler not open";
        "error semantic error: handler not open";
        "error no such table: nosuch";
        "cells 32 d3163f3cfbe6" ] );
    ( "trigger and INSTEAD-rule depth limits",
      [ "done table created";
        "done trigger created";
        "affected 1";
        "a: 1; 2; 2; 2; 2";
        "done table created";
        "done rule created";
        "affected 0";
        "done rule created";
        "affected 0";
        "done rule created";
        "affected 0";
        "expr: 0";
        "cells 58 be4c1549ed76" ] );
    ( "a self-recursive EXECUTE",
      [ "done table created";
        "done prepared";
        "error semantic error: nested PREPARE";
        "error no such prepared statement: xnosuch";
        "done rule created";
        "affected 0";
        "expr: 0";
        "done rule dropped";
        "done rule created";
        "affected 1";
        "affected 1";
        "expr: 6";
        "done rule dropped";
        "done trigger created";
        "done prepared";
        "affected 5";
        "a,expr: 2|1; 3|1";
        "done deallocated";
        "error no such prepared statement: xd";
        "cells 72 3b6d658c16bf" ] );
    ( "rules inside WITH, and non-INSTEAD rules",
      [ "done table created";
        "done rule created";
        "done listening";
        "affected 0";
        "expr: 1";
        "affected 0";
        "done table created";
        "done rule created";
        "affected 1";
        "a,expr: 1|1; 9|4";
        "done rule created";
        "done rule created";
        "affected 1";
        "expr: 10";
        "cells 46 f73608e73016" ] ) ]

let test_row_path_characterisation () =
  List.iter2
    (fun (name, stmts) (pinned_name, pinned) ->
       Alcotest.(check string) "shape order" pinned_name name;
       Alcotest.(check (list string)) name pinned (transcript stmts))
    row_path_shapes row_path_pins

(* ---------------- dialect transcripts ---------------- *)

(* [legofuzz exec -d D] over the committed shape files must reproduce
   their committed transcripts, recorded with earlier builds: the
   stage-boundary shapes, and trigger DDL run from rule actions and
   EXECUTE in the middle of a trigger cascade, where later rows must see
   the changed trigger table. dune runs the suite from the build
   directory, so the binary sits one level up. *)
let test_dialect_transcripts () =
  let out = Filename.temp_file "exec" ".txt" in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
       List.iter
         (fun (shapes, golden) ->
            List.iter
              (fun d ->
                 let code =
                   Sys.command
                     (Printf.sprintf "../bin/legofuzz.exe exec -d %s %s > %s"
                        d (Filename.quote shapes) (Filename.quote out))
                 in
                 Alcotest.(check int) (d ^ " exit status") 0 code;
                 Alcotest.(check string)
                   (Printf.sprintf "%s on %s" shapes d)
                   (read (Printf.sprintf golden d))
                   (read out))
              [ "postgresql"; "mysql"; "mariadb"; "comdb2" ])
         [ ("golden/exec-shapes.sql", "golden/exec-%s.txt");
           ("golden/exec-triggers.sql", "golden/exec-triggers-%s.txt") ])

let suite =
  [ ("create/insert/select", `Quick, test_create_insert_select);
    ("duplicate table", `Quick, test_duplicate_table);
    ("fig2 order sensitivity", `Quick, test_fig2_order_sensitivity);
    ("alter table variants", `Quick, test_alter_table_variants);
    ("drop cascades", `Quick, test_drop_cascades);
    ("views", `Quick, test_views);
    ("materialized view staleness", `Quick, test_materialized_view_staleness);
    ("sequence ddl", `Quick, test_sequences_ddl);
    ("insert not null", `Quick, test_insert_not_null);
    ("insert unique / replace", `Quick, test_insert_unique_and_replace);
    ("insert defaults", `Quick, test_insert_defaults_and_columns);
    ("insert select", `Quick, test_insert_select);
    ("update where/limit", `Quick, test_update_where_limit);
    ("delete", `Quick, test_delete);
    ("copy and load", `Quick, test_copy_and_load);
    ("aggregates", `Quick, test_aggregates);
    ("count on empty", `Quick, test_count_on_empty);
    ("having", `Quick, test_having);
    ("distinct aggregate", `Quick, test_distinct_agg);
    ("window row_number", `Quick, test_window_row_number);
    ("window lead/lag", `Quick, test_window_lead_lag);
    ("window = naive reference (300 cases)", `Quick, prop_window_reference);
    ("window unknown order column", `Quick, test_window_unknown_order_column);
    ("joins", `Quick, test_joins);
    ("subqueries", `Quick, test_subqueries);
    ("set operations", `Quick, test_set_operations);
    ("with cte", `Quick, test_with_cte);
    ("with dml executes", `Quick, test_with_dml_executes);
    ("order by null placement", `Quick, test_order_by_desc_nulls);
    ("limit offset", `Quick, test_limit_offset);
    ("instead rule", `Quick, test_instead_rule_rewrites_insert);
    ("trigger fires", `Quick, test_trigger_fires);
    ("trigger recursion bounded", `Quick, test_trigger_recursion_bounded);
    ("rollback restores", `Quick, test_rollback_restores);
    ("commit keeps", `Quick, test_commit_keeps);
    ("savepoints", `Quick, test_savepoints);
    ("nested begin errors", `Quick, test_nested_begin_errors);
    ("savepoint outside txn", `Quick, test_savepoint_outside_txn);
    ("read lock blocks write", `Quick, test_read_lock_blocks_write);
    ("privileges", `Quick, test_privileges);
    ("prepared statements", `Quick, test_prepared_statements);
    ("notify/listen", `Quick, test_notify_listen);
    ("handler cursor", `Quick, test_handler_cursor);
    ("discard temp", `Quick, test_discard_temp);
    ("analyze enables index scan", `Quick, test_analyze_enables_index_scan);
    ("trigger reads stale index", `Quick, test_trigger_reads_stale_index);
    ("row limit", `Quick, test_row_limit);
    ("statement budget", `Quick, test_statement_budget);
    ("profile gate", `Quick, test_profile_gate);
    ("window tracking", `Quick, test_window_tracking);
    ("self-referencing view safe", `Quick, test_self_referencing_view_safe);
    ("row-path characterisation", `Quick, test_row_path_characterisation);
    ("distinct numeric ties", `Quick, test_distinct_numeric_ties);
    ("dialect transcripts pinned", `Quick, test_dialect_transcripts) ]
