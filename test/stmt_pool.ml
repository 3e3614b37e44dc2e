(* A pool of statements for the traversal and fault-check properties:
   the shared seed corpus, hand-written statements that reach every
   statement feature and every nesting the traversals recurse through,
   and generator output for every statement type. *)

open Sqlcore

let handwritten =
  [ "SELECT a FROM t ORDER BY a ASC LIMIT 3 OFFSET 2";
    "SELECT DISTINCT a, COUNT(*) FROM t JOIN u ON (t.x = u.y) WHERE (a > 0) \
     GROUP BY a HAVING (COUNT(*) > 1) ORDER BY a DESC LIMIT 5 OFFSET 1";
    "SELECT RANK() OVER (PARTITION BY a ORDER BY b ASC), SUM(c) FROM t";
    "SELECT a FROM (SELECT a, b FROM t WHERE (b > 2) LIMIT 4 OFFSET 1) AS s \
     WHERE (a IN (1, 2, 3))";
    "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE (u.b = t.a) \
     ORDER BY b ASC LIMIT 1 OFFSET 1)";
    "SELECT (SELECT MAX(b) FROM u), CASE WHEN (a > 1) THEN 'x' ELSE 'y' END \
     FROM t";
    "SELECT a FROM t UNION SELECT b FROM u ORDER BY a ASC";
    "SELECT a FROM t INTERSECT SELECT a FROM t WHERE (a BETWEEN 1 AND 5)";
    "SELECT a FROM t EXCEPT SELECT b FROM u WHERE (b LIKE 'x%')";
    "VALUES (1, 2), (3, (4 + 5))";
    "INSERT IGNORE INTO t VALUES (1, 2)";
    "INSERT INTO t SELECT a, b FROM u WHERE (a > 1) LIMIT 2 OFFSET 1";
    "REPLACE INTO t VALUES (1, (2 * 3))";
    "UPDATE t SET a = (a + 1), b = CAST(c AS INT) WHERE (b IS NULL)";
    "DELETE FROM t WHERE (a = (SELECT MIN(b) FROM u))";
    "WITH c AS (SELECT a FROM t WHERE (a > 1)) SELECT a FROM c ORDER BY a \
     ASC LIMIT 1 OFFSET 1";
    "WITH c AS (SELECT a FROM t) INSERT INTO u SELECT a, a FROM c";
    "WITH c AS (SELECT a FROM t) UPDATE u SET b = 1 WHERE (b > 0)";
    "WITH c AS (SELECT a FROM t) DELETE FROM u WHERE (b > 0)";
    "CREATE VIEW v AS SELECT a, COUNT(*) FROM t GROUP BY a";
    "CREATE TRIGGER tr AFTER INSERT ON t FOR EACH ROW BEGIN INSERT INTO u \
     VALUES (1, 2); UPDATE u SET b = (b + 1) WHERE (b > 0); END";
    "CREATE RULE r AS ON INSERT TO t DO NOTIFY ch";
    "CREATE RULE r AS ON UPDATE TO t DO INSTEAD DELETE FROM u WHERE (b IN \
     (SELECT a FROM t))";
    "EXPLAIN SELECT a FROM t WHERE (a > 1) LIMIT 1 OFFSET 1";
    "PREPARE p AS SELECT a FROM t WHERE (a = 1)";
    "DO (1 + 2)";
    "COPY (SELECT a FROM t WHERE (a > 0)) TO STDOUT";
    "COPY t TO STDOUT";
    "TABLE t";
    "DESCRIBE t";
    "LOCK TABLES t READ, u WRITE";
    "TRUNCATE TABLE t" ]

let corpus = List.concat_map Fuzz.Corpus.initial Dialects.Registry.all

let generated =
  let schema = Lego.Sym_schema.of_testcase (List.hd corpus) in
  List.concat_map
    (fun seed ->
       let rng = Reprutil.Rng.create seed in
       List.map (fun ty -> Lego.Generator.stmt rng schema ty) Stmt_type.all)
    [ 1; 2; 3; 4; 5; 6 ]

let handwritten_stmts =
  Array.of_list (List.map Sqlparser.Parser.parse_stmt_exn handwritten)

let all = Array.of_list (List.concat corpus @ generated)

(* A statement picked by [seed], hand-written half the time, put
   through up to three conventional mutations (window functions
   included). *)
let draw seed =
  let rng = Reprutil.Rng.create seed in
  let stmt =
    Reprutil.Rng.choose_arr rng
      (if Reprutil.Rng.bool rng then handwritten_stmts else all)
  in
  let schema = Lego.Sym_schema.of_testcase [ stmt ] in
  let rec mutate n s =
    if n = 0 then s
    else mutate (n - 1) (Lego.Conventional.mutate_stmt rng schema s)
  in
  mutate (Reprutil.Rng.int rng 4) stmt

let arb =
  Reprutil.Prop.map ~print:Sql_printer.stmt draw
    (Reprutil.Prop.int_range 0 1_000_000)
