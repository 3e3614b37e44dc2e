(* Exact-form tests for the SQL printer, and structural tests for
   Ast_util's traversals. *)

open Sqlcore
module P = Sqlparser.Parser

let print_of sql = Sql_printer.stmt (P.parse_stmt_exn sql)

let test_printer_exact_forms () =
  (* normalized canonical output for a few statements *)
  List.iter
    (fun (input, expected) ->
       Alcotest.(check string) input expected (print_of input))
    [ ("select   1", "SELECT 1");
      ("select a from t where a>1 order by a",
       "SELECT a FROM t WHERE (a > 1) ORDER BY a ASC");
      ("truncate t", "TRUNCATE TABLE t");
      ("insert into t values(1)", "INSERT INTO t VALUES (1)");
      ("rollback to savepoint s", "ROLLBACK TO SAVEPOINT s");
      ("select 'it''s'", "SELECT 'it''s'");
      ("select count ( * ) from t", "SELECT COUNT(*) FROM t");
      ("delete from t limit 2", "DELETE FROM t LIMIT 2") ]

let test_float_literals_keep_a_dot () =
  Alcotest.(check string) "whole float" "SELECT 2.0"
    (print_of "SELECT 2.0");
  Alcotest.(check string) "fraction survives" "SELECT 0.5"
    (print_of "SELECT 0.5")

let test_testcase_joins_with_semicolons () =
  let tc = P.parse_testcase_exn "SELECT 1; SELECT 2" in
  Alcotest.(check string) "joined" "SELECT 1;\nSELECT 2;"
    (Sql_printer.testcase tc);
  Alcotest.(check string) "empty" "" (Sql_printer.testcase [])

let test_escape_in_strings () =
  let s = Ast.S_notify { channel = "c"; payload = Some "a'b" } in
  Alcotest.(check string) "escaped payload" "NOTIFY c, 'a''b'"
    (Sql_printer.stmt s)

(* --- Ast_util -------------------------------------------------------- *)

let test_tables_read_written () =
  let s =
    P.parse_stmt_exn
      "INSERT INTO target SELECT a FROM src1 JOIN src2 ON TRUE WHERE \
       (EXISTS (SELECT 1 FROM src3))"
  in
  Alcotest.(check (list string)) "reads" [ "src1"; "src2"; "src3" ]
    (List.sort compare (Ast_util.tables_read s));
  Alcotest.(check (list string)) "writes" [ "target" ]
    (Ast_util.tables_written s)

let test_tables_in_with () =
  let s =
    P.parse_stmt_exn
      "WITH w AS (INSERT INTO t1 VALUES (1)) DELETE FROM t2 WHERE (a IN \
       (SELECT a FROM t3))"
  in
  Alcotest.(check (list string)) "writes both" [ "t1"; "t2" ]
    (List.sort compare (Ast_util.tables_written s));
  Alcotest.(check (list string)) "reads subquery" [ "t3" ]
    (Ast_util.tables_read s)

let test_map_table_refs () =
  let s = P.parse_stmt_exn "SELECT t.a FROM t WHERE (t.b > 0)" in
  let renamed =
    Ast_util.map_table_refs (fun n -> if n = "t" then "u" else n) s
  in
  Alcotest.(check string) "all refs renamed"
    "SELECT u.a FROM u WHERE (u.b > 0)"
    (Sql_printer.stmt renamed)

let test_map_exprs_bottom_up () =
  let s = P.parse_stmt_exn "SELECT 1 + 2" in
  (* constant-fold adds via a bottom-up rewrite *)
  let folded =
    Ast_util.map_exprs
      (function
        | Ast.Binop (Ast.Add, Ast.Lit (Ast.L_int a), Ast.Lit (Ast.L_int b))
          -> Ast.Lit (Ast.L_int (a + b))
        | e -> e)
      s
  in
  Alcotest.(check string) "folded" "SELECT 3" (Sql_printer.stmt folded)

let test_fold_exprs_counts () =
  let s = P.parse_stmt_exn "SELECT a + 1 FROM t WHERE b = 2" in
  let lits =
    Ast_util.fold_exprs
      (fun acc e -> match e with Ast.Lit _ -> acc + 1 | _ -> acc)
      0 s
  in
  Alcotest.(check int) "two literals" 2 lits

let test_feature_detectors () =
  let s =
    P.parse_stmt_exn
      "SELECT RANK() OVER (ORDER BY a ASC), (SELECT MAX(b) FROM u) FROM t"
  in
  Alcotest.(check bool) "window" true (Ast_util.has_window_fn s);
  Alcotest.(check bool) "subquery" true (Ast_util.has_subquery s);
  Alcotest.(check bool) "aggregate (inside subquery)" true
    (Ast_util.has_aggregate s);
  let plain = P.parse_stmt_exn "SELECT a FROM t" in
  Alcotest.(check bool) "no window" false (Ast_util.has_window_fn plain);
  Alcotest.(check bool) "no subquery" false (Ast_util.has_subquery plain)

let test_objects_created () =
  Alcotest.(check (list (pair string string))) "table"
    [ ("table", "t") ]
    (Ast_util.objects_created (P.parse_stmt_exn "CREATE TABLE t (a INT)"));
  Alcotest.(check (list (pair string string))) "temp table"
    [ ("temp_table", "t") ]
    (Ast_util.objects_created
       (P.parse_stmt_exn "CREATE TEMPORARY TABLE t (a INT)"));
  Alcotest.(check (list (pair string string))) "view"
    [ ("view", "v") ]
    (Ast_util.objects_created (P.parse_stmt_exn "CREATE VIEW v AS SELECT 1"))

let test_column_refs () =
  let s = P.parse_stmt_exn "SELECT a, t.b FROM t WHERE c > 1" in
  let refs = Ast_util.column_refs s in
  Alcotest.(check int) "three refs" 3 (List.length refs);
  Alcotest.(check bool) "qualified captured" true
    (List.mem (Some "t", "b") refs)

let test_stmt_size_monotone () =
  let small = P.parse_stmt_exn "SELECT 1" in
  let big =
    P.parse_stmt_exn
      "SELECT a + b * c FROM t JOIN u ON (t.x = u.y) WHERE (a IN (1,2,3)) \
       GROUP BY a HAVING (COUNT(*) > 2) ORDER BY a ASC"
  in
  Alcotest.(check bool) "bigger statement bigger size" true
    (Ast_util.stmt_size big > Ast_util.stmt_size small)

let test_expr_depth () =
  Alcotest.(check int) "literal" 1 (Ast_util.expr_depth (Ast.Lit Ast.L_null));
  let e =
    match Sqlparser.Parser.parse_expr "1 + (2 * (3 - 4))" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "nested" 4 (Ast_util.expr_depth e)

(* property: printing any parsed statement is stable (print . parse .
   print = print) — 1000 generator-driven cases with shrinking over the
   (seed, statement type) space via the in-tree Prop harness *)
let test_prop_print_stable () =
  let arb =
    Reprutil.Prop.(pair (int_range 0 9999) (int_range 0 (Stmt_type.count - 1)))
  in
  Reprutil.Prop.check ~count:1000 ~name:"printer is a normal form" arb
    (fun (seed, idx) ->
       let rng = Reprutil.Rng.create (seed + 77) in
       let schema = Lego.Sym_schema.empty () in
       let stmt = Lego.Generator.stmt rng schema (Stmt_type.of_index idx) in
       let once = Sql_printer.stmt stmt in
       let twice = Sql_printer.stmt (P.parse_stmt_exn once) in
       once = twice)

(* The traversals as first written, the references the one-pass ones
   are checked against: [fold_exprs] as a side effect of [map_exprs]
   rebuilding the tree, and [stmt_size] re-measuring every subtree. *)
let ref_fold f acc stmt =
  let acc = ref acc in
  ignore
    (Ast_util.map_exprs
       (fun e ->
          acc := f !acc e;
          e)
       stmt);
  !acc

let ref_stmt_size stmt =
  ref_fold (fun acc e -> acc + Ast_util.expr_depth e) 1 stmt
  + List.length (Ast_util.tables_read stmt)
  + List.length (Ast_util.tables_written stmt)

let ref_column_refs stmt =
  List.rev
    (ref_fold
       (fun acc e -> match e with Ast.Col (q, c) -> (q, c) :: acc | _ -> acc)
       [] stmt)

let test_prop_stmt_size () =
  Reprutil.Prop.check ~count:1000 ~name:"one-pass stmt_size = reference"
    Stmt_pool.arb (fun s -> Ast_util.stmt_size s = ref_stmt_size s)

(* Stronger than the same node multiset: the same sequence, so
   [column_refs] keeps its order. *)
let test_prop_fold_nodes () =
  let nodes fold s = List.rev (fold (fun acc e -> e :: acc) [] s) in
  Reprutil.Prop.check ~count:1000
    ~name:"fold_exprs visits map_exprs' nodes in its order" Stmt_pool.arb
    (fun s ->
       nodes Ast_util.fold_exprs s = nodes ref_fold s
       && Ast_util.column_refs s = ref_column_refs s)

let suite =
  [ ("printer exact forms", `Quick, test_printer_exact_forms);
    ("float literals keep a dot", `Quick, test_float_literals_keep_a_dot);
    ("testcase joining", `Quick, test_testcase_joins_with_semicolons);
    ("string escaping", `Quick, test_escape_in_strings);
    ("tables read/written", `Quick, test_tables_read_written);
    ("tables in WITH", `Quick, test_tables_in_with);
    ("map_table_refs", `Quick, test_map_table_refs);
    ("map_exprs bottom-up", `Quick, test_map_exprs_bottom_up);
    ("fold_exprs counts", `Quick, test_fold_exprs_counts);
    ("feature detectors", `Quick, test_feature_detectors);
    ("objects_created", `Quick, test_objects_created);
    ("column_refs", `Quick, test_column_refs);
    ("stmt_size monotone", `Quick, test_stmt_size_monotone);
    ("expr_depth", `Quick, test_expr_depth);
    ("printer is a normal form (1000 cases)", `Quick,
     test_prop_print_stable);
    ("stmt_size = reference (1000 cases)", `Quick, test_prop_stmt_size);
    ("fold_exprs = map_exprs nodes (1000 cases)", `Quick,
     test_prop_fold_nodes) ]
