(* Lexer and parser tests, including print->parse round-trips over every
   statement type via the generator. *)

open Sqlcore
module P = Sqlparser.Parser
module L = Sqlparser.Lexer

let parse_ok sql =
  match P.parse_stmt sql with
  | Ok s -> s
  | Error msg -> Alcotest.fail (sql ^ " -> " ^ msg)

let roundtrip sql =
  let s = parse_ok sql in
  let printed = Sql_printer.stmt s in
  let s2 = parse_ok printed in
  Alcotest.(check bool) ("roundtrip: " ^ sql) true (s = s2)

let test_lexer_tokens () =
  let toks = L.tokenize "SELECT a, 'it''s' FROM t1 WHERE x <> 1.5e2;" in
  Alcotest.(check int) "token count" 12 (Array.length toks);
  Alcotest.(check bool) "keyword" true (toks.(0) = L.KW "SELECT");
  Alcotest.(check bool) "ident lowercased" true (toks.(1) = L.IDENT "a");
  Alcotest.(check bool) "string escape" true (toks.(3) = L.STRING "it's");
  Alcotest.(check bool) "float exponent" true (toks.(9) = L.FLOAT 150.0);
  Alcotest.(check bool) "ends with EOF" true
    (toks.(Array.length toks - 1) = L.EOF)

let test_lexer_comments () =
  let toks = L.tokenize "SELECT 1 -- trailing comment\n, 2" in
  Alcotest.(check int) "comment skipped" 5 (Array.length toks)

let test_lexer_error () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (L.tokenize "SELECT 'oops");
       false
     with L.Lex_error _ -> true)

let test_parse_statement_forms () =
  (* one textual form per statement family, checking the mapped type *)
  let cases =
    [ ("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(3))",
       Stmt_type.Create_table);
      ("CREATE TEMPORARY TABLE t (a INT)", Stmt_type.Create_temp_table);
      ("CREATE UNIQUE INDEX i ON t (a, b)", Stmt_type.Create_unique_index);
      ("CREATE MATERIALIZED VIEW v AS SELECT 1",
       Stmt_type.Create_materialized_view);
      ("CREATE TRIGGER tr AFTER UPDATE ON t FOR EACH ROW INSERT INTO t \
        VALUES (1)",
       Stmt_type.Create_trigger);
      ("CREATE RULE r AS ON INSERT TO t DO INSTEAD NOTIFY chan",
       Stmt_type.Create_rule);
      ("CREATE SEQUENCE sq START WITH 5 INCREMENT BY -2",
       Stmt_type.Create_sequence);
      ("CREATE USER u IDENTIFIED BY 'pw'", Stmt_type.Create_user);
      ("DROP TABLE IF EXISTS t", Stmt_type.Drop_table);
      ("DROP RULE r ON t", Stmt_type.Drop_rule);
      ("ALTER TABLE t ADD COLUMN c INT DEFAULT 0",
       Stmt_type.Alter_table_add_column);
      ("ALTER TABLE t RENAME COLUMN a TO b",
       Stmt_type.Alter_table_rename_column);
      ("ALTER TABLE t ALTER COLUMN a TYPE TEXT",
       Stmt_type.Alter_table_alter_type);
      ("RENAME TABLE a TO b, c TO d", Stmt_type.Rename_table);
      ("TRUNCATE t", Stmt_type.Truncate);
      ("COMMENT ON TABLE t IS 'hello'", Stmt_type.Comment_on);
      ("INSERT IGNORE INTO t (a, b) VALUES (1, 2), (3, 4)",
       Stmt_type.Insert);
      ("INSERT INTO t SELECT * FROM u", Stmt_type.Insert_select);
      ("REPLACE INTO t VALUES (1)", Stmt_type.Replace_into);
      ("UPDATE t SET a = 1, b = (a + 1) WHERE a > 0 LIMIT 3",
       Stmt_type.Update);
      ("DELETE FROM t WHERE a IS NOT NULL", Stmt_type.Delete);
      ("COPY (SELECT 1) TO STDOUT CSV HEADER", Stmt_type.Copy_to);
      ("COPY t FROM STDIN (1, 'x'), (2, 'y')", Stmt_type.Copy_from);
      ("LOAD DATA INTO t VALUES (1, 2)", Stmt_type.Load_data);
      ("SELECT DISTINCT a FROM t GROUP BY a HAVING (COUNT(*) > 1) ORDER \
        BY a DESC LIMIT 5 OFFSET 2",
       Stmt_type.Select);
      ("SELECT 1 UNION ALL SELECT 2", Stmt_type.Select_union);
      ("SELECT 1 INTERSECT SELECT 2", Stmt_type.Select_intersect);
      ("SELECT 1 EXCEPT SELECT 2", Stmt_type.Select_except);
      ("WITH c AS (SELECT 1) SELECT * FROM c", Stmt_type.With_select);
      ("WITH c AS (INSERT INTO t VALUES (0)) DELETE FROM t",
       Stmt_type.With_dml);
      ("VALUES (1, 'a'), (2, 'b')", Stmt_type.Values_stmt);
      ("TABLE t", Stmt_type.Table_stmt);
      ("EXPLAIN SELECT * FROM t", Stmt_type.Explain);
      ("DESCRIBE t", Stmt_type.Describe);
      ("SHOW COLUMNS FROM t", Stmt_type.Show_columns);
      ("GRANT SELECT, INSERT ON t TO u", Stmt_type.Grant);
      ("REVOKE ALL ON t FROM u", Stmt_type.Revoke);
      ("SET ROLE u", Stmt_type.Set_role);
      ("BEGIN", Stmt_type.Begin_txn);
      ("ROLLBACK TO SAVEPOINT sp", Stmt_type.Rollback_to_savepoint);
      ("RELEASE SAVEPOINT sp", Stmt_type.Release_savepoint);
      ("SET TRANSACTION ISOLATION LEVEL REPEATABLE READ",
       Stmt_type.Set_transaction);
      ("LOCK TABLES a READ, b WRITE", Stmt_type.Lock_tables);
      ("SET GLOBAL x = 1", Stmt_type.Set_global_var);
      ("SET x = 'v'", Stmt_type.Set_var);
      ("SET NAMES utf8", Stmt_type.Set_names);
      ("PRAGMA foreign_keys = 1", Stmt_type.Pragma);
      ("VACUUM t", Stmt_type.Vacuum);
      ("ANALYZE", Stmt_type.Analyze);
      ("FLUSH PRIVILEGES", Stmt_type.Flush);
      ("OPTIMIZE TABLE t", Stmt_type.Optimize_table);
      ("NOTIFY chan, 'payload'", Stmt_type.Notify);
      ("DISCARD PLANS", Stmt_type.Discard);
      ("PREPARE p AS SELECT 1", Stmt_type.Prepare_stmt);
      ("EXECUTE p", Stmt_type.Execute_stmt);
      ("HANDLER t READ NEXT", Stmt_type.Handler_read);
      ("ALTER SYSTEM major_freeze", Stmt_type.Alter_system);
      ("REFRESH MATERIALIZED VIEW v", Stmt_type.Refresh_matview);
      ("KILL 7", Stmt_type.Kill_query);
      ("CLUSTER t", Stmt_type.Cluster) ]
  in
  List.iter
    (fun (sql, expected) ->
       let s = parse_ok sql in
       Alcotest.(check string) sql
         (Stmt_type.name expected)
         (Stmt_type.name (Ast.type_of_stmt s)))
    cases

let test_expression_precedence () =
  match P.parse_expr "1 + 2 * 3" with
  | Ok (Ast.Binop (Ast.Add, Ast.Lit (Ast.L_int 1), Ast.Binop (Ast.Mul, _, _)))
    -> ()
  | Ok e -> Alcotest.fail ("wrong tree: " ^ Sql_printer.expr e)
  | Error msg -> Alcotest.fail msg

let test_logic_precedence () =
  match P.parse_expr "a = 1 OR b = 2 AND c = 3" with
  | Ok (Ast.Binop (Ast.Or, _, Ast.Binop (Ast.And, _, _))) -> ()
  | Ok e -> Alcotest.fail ("wrong tree: " ^ Sql_printer.expr e)
  | Error msg -> Alcotest.fail msg

let test_not_exists () =
  match P.parse_expr "NOT EXISTS (SELECT 1)" with
  | Ok (Ast.Exists (_, true)) -> ()
  | Ok e -> Alcotest.fail ("wrong tree: " ^ Sql_printer.expr e)
  | Error msg -> Alcotest.fail msg

let test_window_over () =
  let s =
    parse_ok
      "SELECT LEAD(a, 2) OVER (PARTITION BY b ORDER BY a DESC ROWS BETWEEN \
       1 PRECEDING AND UNBOUNDED FOLLOWING) FROM t"
  in
  Alcotest.(check bool) "has window" true (Ast_util.has_window_fn s)

let test_parse_testcase_multi () =
  match P.parse_testcase "SELECT 1; SELECT 2;; SELECT 3" with
  | Ok tc -> Alcotest.(check int) "three stmts" 3 (List.length tc)
  | Error msg -> Alcotest.fail msg

let test_parse_empty () =
  match P.parse_testcase "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty"
  | Error msg -> Alcotest.fail msg

let test_parse_errors () =
  List.iter
    (fun sql ->
       match P.parse_stmt sql with
       | Ok _ -> Alcotest.fail ("should not parse: " ^ sql)
       | Error _ -> ())
    [ "SELECT FROM WHERE"; "CREATE TABLE"; "INSERT t VALUES (1)";
      "SELECT 1 FROM"; "DROP"; "GRANT ON t TO u"; "WITH x SELECT 1" ]

let test_fig7_testcase_parses () =
  (* the paper's Figure 7 test case, verbatim structure *)
  let sql =
    "CREATE TABLE v0 (v4 INT, v3 INT UNIQUE, v2 INT, v1 INT UNIQUE);\n\
     CREATE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY compression;\n\
     COPY (SELECT 32 EXCEPT SELECT (v3 + 16) FROM v0) TO STDOUT CSV HEADER;\n\
     WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = 48;"
  in
  match P.parse_testcase sql with
  | Ok tc ->
    Alcotest.(check (list string)) "type sequence"
      [ "CREATE TABLE"; "CREATE RULE"; "COPY TO"; "WITH DML" ]
      (List.map Stmt_type.name (Ast.type_sequence tc))
  | Error msg -> Alcotest.fail msg

let test_handwritten_roundtrips () =
  List.iter roundtrip
    [ "SELECT (a + 1) AS x, t.* FROM t AS u WHERE ((a > 1) AND (b IS NULL))";
      "SELECT CASE WHEN (a = 1) THEN 'one' ELSE 'many' END FROM t";
      "INSERT INTO t VALUES ((1 + 2), CAST('3' AS INT), NULL)";
      "SELECT * FROM a JOIN b ON (a.x = b.y) LEFT JOIN c ON TRUE";
      "SELECT COUNT(DISTINCT a), GROUP_CONCAT(b) FROM t GROUP BY c";
      "SELECT * FROM (SELECT a FROM t) AS sub WHERE (a IN (1, 2, 3))";
      "WITH w AS (UPDATE t SET a = 1) INSERT INTO t VALUES (2)";
      "SELECT ROW_NUMBER() OVER (ORDER BY a ASC) FROM t";
      "INSERT IGNORE INTO t VALUES ()" ]

(* Property: the generator's statements all print to parseable SQL that
   round-trips structurally — for every one of the 94 statement types,
   against a two-column table and against a table whose last column was
   dropped (its INSERTs print [VALUES ()]). *)
let generator_schemas =
  [ [ "CREATE TABLE g1 (c1 INT, c2 TEXT)" ];
    [ "CREATE TABLE g0 (c1 INT)"; "ALTER TABLE g0 DROP COLUMN c1" ] ]

let prop_generator_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip on generated statements"
    ~count:500
    QCheck.(pair small_nat (int_bound (Stmt_type.count - 1)))
    (fun (seed, ty_idx) ->
       List.for_all
         (fun ddl ->
            let rng = Reprutil.Rng.create (seed + 1) in
            let schema = Lego.Sym_schema.empty () in
            (* give the generator something to reference *)
            List.iter
              (fun sql -> Lego.Sym_schema.apply schema (P.parse_stmt_exn sql))
              ddl;
            let ty = Stmt_type.of_index ty_idx in
            let stmt = Lego.Generator.stmt rng schema ty in
            let printed = Sql_printer.stmt stmt in
            match P.parse_stmt printed with
            | Error msg ->
              QCheck.Test.fail_reportf "parse failed: %s\n%s" msg printed
            | Ok reparsed ->
              reparsed = stmt
              || QCheck.Test.fail_reportf "roundtrip mismatch:\n%s\n%s"
                   printed (Sql_printer.stmt reparsed))
         generator_schemas)

(* Grammar recording must be a pure function of the SQL text: parsing
   the same input twice into fresh grammar bitmaps yields cell-identical
   maps with equal rule/pair counts — the determinism the cross-shard
   grammar-map union relies on (DESIGN.md §15). Exercised over generated
   statements of every type, 1000 cases. *)
let grammar_digest sql =
  let g = Coverage.Bitmap.create () in
  match P.parse_testcase ~grammar:g sql with
  | Error msg -> `Parse_error msg
  | Ok _ ->
    `Parsed
      (Coverage.Bitmap.hash g, Coverage.Grammar.rules g,
       Coverage.Grammar.pairs g)

let test_grammar_bitmap_deterministic () =
  Reprutil.Prop.check ~count:1000
    ~name:"parse-twice grammar-bitmap determinism"
    Reprutil.Prop.(
      pair (int_range 1 1_000_000) (int_range 0 (Stmt_type.count - 1)))
    (fun (seed, ty_idx) ->
       let rng = Reprutil.Rng.create seed in
       let schema = Lego.Sym_schema.empty () in
       Lego.Sym_schema.apply schema
         (P.parse_stmt_exn "CREATE TABLE g1 (c1 INT, c2 TEXT)");
       let stmt =
         Lego.Generator.stmt rng schema (Stmt_type.of_index ty_idx)
       in
       let sql = Sql_printer.testcase [ stmt ] in
       match (grammar_digest sql, grammar_digest sql) with
       | `Parsed (h1, r1, p1), `Parsed (h2, r2, p2) ->
         (* identical map, nonzero counts: the instrumentation fired *)
         h1 = h2 && r1 = r2 && p1 = p2 && r1 > 0 && p1 > 0
       | `Parse_error _, `Parse_error _ ->
         false (* generated statements always print to parseable SQL *)
       | _ -> false)

let test_grammar_off_is_plain_parse () =
  (* parses with and without a grammar map agree on the AST *)
  let sql = "SELECT a, COUNT(*) FROM t WHERE a > 1 GROUP BY a ORDER BY a" in
  let g = Coverage.Bitmap.create () in
  let with_g = P.parse_testcase ~grammar:g sql in
  let without = P.parse_testcase sql in
  Alcotest.(check bool) "same AST" true (with_g = without);
  Alcotest.(check bool) "grammar map populated" true
    (Coverage.Bitmap.count_nonzero g > 0)

(* Every outcome [Parse_pin] computes must equal the committed line: the
   printed testcase or exact error text (with its token index) and the
   grammar-map digest. On a mismatch the current outcomes are written to
   parse-outcomes.actual beside the test binary for diffing. *)
let test_parse_outcomes_pinned () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let actual = Parse_pin.outcomes ~shapes:(read "golden/exec-shapes.sql") in
  let expected =
    String.split_on_char '\n' (read "golden/parse-outcomes.txt")
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "at least 5000 inputs" true
    (List.length actual >= 5000);
  if List.map snd actual <> expected then begin
    Out_channel.with_open_bin "parse-outcomes.actual" (fun oc ->
        List.iter (fun (_, l) -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | (input, a) :: xs, e :: ys ->
        if a = e then first_diff (i + 1) (xs, ys) else (i, input, a, e)
      | (input, a) :: _, [] -> (i, input, a, "<missing>")
      | [], _ -> (i, "<none>", "<missing>", "<extra lines>")
    in
    let i, input, a, e = first_diff 1 (actual, expected) in
    Alcotest.failf "line %d differs on input %S\nexpected: %s\nactual:   %s"
      i input e a
  end

let suite =
  [ ("lexer tokens", `Quick, test_lexer_tokens);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer error", `Quick, test_lexer_error);
    ("statement forms", `Quick, test_parse_statement_forms);
    ("expression precedence", `Quick, test_expression_precedence);
    ("logic precedence", `Quick, test_logic_precedence);
    ("not exists", `Quick, test_not_exists);
    ("window over", `Quick, test_window_over);
    ("testcase multi", `Quick, test_parse_testcase_multi);
    ("empty input", `Quick, test_parse_empty);
    ("parse errors", `Quick, test_parse_errors);
    ("fig7 testcase parses", `Quick, test_fig7_testcase_parses);
    ("handwritten roundtrips", `Quick, test_handwritten_roundtrips);
    ("grammar bitmap deterministic (1000 cases)", `Quick,
     test_grammar_bitmap_deterministic);
    ("grammar off is plain parse", `Quick, test_grammar_off_is_plain_parse);
    ("parse outcomes pinned", `Quick, test_parse_outcomes_pinned);
    QCheck_alcotest.to_alcotest prop_generator_roundtrip ]
