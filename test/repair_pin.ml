(* Inputs and outcomes for the repair pin (test/golden/repair-outcomes.txt).

   Every input is a testcase handed to [Instantiate.repair] under a fresh
   generator of one fixed seed; its outcome is the printed result plus
   the generator's next draw, so the pin fixes how many draws repair
   consumes as well as what it prints. The inputs are:
   - every statement of {!Stmt_pool} and of test/golden/exec-shapes.sql
     after each of a few schema prefixes, before one, and twice in a row
     after one (clashing CREATE targets, dangling tables and columns);
   - hand-written witnesses, one or more per repair branch;
   - expressions nested past the depth clamp in every clause kind;
   - raw type sequences instantiated statement by statement (what
     [Instantiate.sequence] repairs), and seeded statement substitutions,
     insertions, deletions and conventional mutations of the corpus
     seeds and of those sequences (what the fuzzers repair). *)

open Sqlcore
module Rng = Reprutil.Rng

let parse = Sqlparser.Parser.parse_testcase_exn

(* The schema the witnesses run against. *)
let witness_schema =
  "CREATE TABLE t (a INT, b TEXT, c INT); CREATE TABLE u (x INT, y INT); \
   CREATE VIEW w AS SELECT a FROM t"

(* One witness per repair branch at least: each must come back changed. *)
let witnesses =
  [ (* freshened CREATE targets *)
    "CREATE TABLE t (z INT)";
    "CREATE VIEW u AS SELECT a FROM t";
    "CREATE TABLE t (z INT); INSERT INTO t VALUES (1)";
    (* remapped tables *)
    "SELECT a FROM nowhere";
    "INSERT INTO nowhere VALUES (1, 2)";
    "DELETE FROM gone WHERE (a > 1)";
    "SELECT gone.a FROM gone JOIN t ON (gone.a = t.a)";
    "TRUNCATE TABLE gone";
    "DROP TABLE gone";
    (* remapped columns *)
    "SELECT zz FROM t";
    "SELECT a FROM t WHERE (zz > (SELECT qq FROM u))";
    "UPDATE t SET zz = 1";
    "UPDATE t SET a = zz WHERE (qq IS NULL)";
    "INSERT INTO t (zz, a) VALUES (1, 2)";
    "REPLACE INTO t (zz) VALUES (1)";
    "CREATE INDEX i ON nowhere (a)";
    (* arity grow and cut *)
    "INSERT INTO t VALUES (1)";
    "INSERT INTO t VALUES (1, 'x', 3, 4, 5)";
    "INSERT INTO u VALUES (1), (1, 2, 3)";
    "REPLACE INTO t VALUES (1, 2)";
    "COPY t FROM STDIN (1), (1, 'x', 3, 4)";
    "LOAD DATA INTO u VALUES (1), (1, 2, 3)";
    "WITH c AS (SELECT a FROM t) INSERT INTO t VALUES (1)";
    "WITH c AS (SELECT a FROM t) INSERT INTO u VALUES (1, 2, 3)" ]

(* [SELECT], [UPDATE], [INSERT] and [DO] carrying a chain of [depth]
   nested operators over a column. *)
let deep depth =
  let rec nest k e =
    if k = 0 then e
    else
      nest (k - 1)
        (match k mod 4 with
         | 0 -> Ast.Binop (Ast.Add, e, Ast.Lit (Ast.L_int k))
         | 1 -> Ast.Unop (Ast.Neg, e)
         | 2 -> Ast.Fn ("ABS", [ e ])
         | _ -> Ast.Cast (e, Ast.T_int))
  in
  let e = nest depth (Ast.Col (None, "a")) in
  let sel =
    { Ast.distinct = false; projs = [ Ast.Proj (e, None) ];
      from = Some (Ast.From_table { name = "t"; alias = None });
      where = Some (Ast.Binop (Ast.Gt, e, Ast.Lit (Ast.L_int 0)));
      group_by = []; having = None; order_by = [ (e, Ast.Asc) ];
      limit = None; offset = None }
  in
  [ Ast.S_select (Ast.Q_select sel);
    Ast.S_update
      { u_table = "t"; u_sets = [ ("a", e) ]; u_where = Some e;
        u_limit = None };
    Ast.S_insert
      { i_table = "u"; i_cols = []; i_source = Ast.Src_values [ [ e; e ] ];
        i_ignore = false };
    Ast.S_do (Ast.Subquery (Ast.Q_select sel)) ]

let dedup key xs =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun x ->
       let k = key x in
       if Hashtbl.mem seen k then false
       else begin
         Hashtbl.add seen k ();
         true
       end)
    xs

let skeletons =
  lazy
    (let lib = Lego.Skeleton_library.create () in
     List.iter (fun tc -> ignore (Lego.Skeleton_library.harvest lib tc))
       Stmt_pool.corpus;
     lib)

(* A raw type sequence of 2 to 8 statements, each drawn against the
   schema of the ones before it, unrepaired. *)
let raw_sequence seed =
  let rng = Rng.create seed in
  let skeletons = Lazy.force skeletons in
  let schema = Lego.Sym_schema.empty () in
  List.init (2 + Rng.int rng 7) (fun _ ->
      let ty = Rng.choose rng Stmt_type.all in
      let s = Lego.Instantiate.statement rng ~skeletons ~schema ty in
      Lego.Sym_schema.apply schema s;
      s)

(* One seeded edit of [tc] at a drawn position, unrepaired: a fresh
   statement substituted or inserted, a statement deleted, or a
   conventional mutation of one statement. *)
let edit seed tc =
  let rng = Rng.create seed in
  let skeletons = Lazy.force skeletons in
  let n = List.length tc in
  let pos = Rng.int rng n in
  let schema = Lego.Sym_schema.empty () in
  List.iteri (fun i s -> if i < pos then Lego.Sym_schema.apply schema s) tc;
  let at = List.nth tc pos in
  let fresh () =
    Lego.Instantiate.statement rng ~skeletons ~schema
      (Rng.choose rng Stmt_type.all)
  in
  match Rng.int rng 4 with
  | 0 -> List.mapi (fun i s -> if i = pos then fresh () else s) tc
  | 1 ->
    let s = fresh () in
    List.concat (List.mapi (fun i x -> if i = pos then [ x; s ] else [ x ]) tc)
  | 2 when n > 1 -> List.filteri (fun i _ -> i <> pos) tc
  | _ ->
    let m = Lego.Conventional.mutate_stmt rng schema at in
    List.mapi (fun i s -> if i = pos then m else s) tc

let inputs ~shapes =
  let stmts =
    dedup Sql_printer.stmt
      (Array.to_list Stmt_pool.handwritten_stmts
       @ Array.to_list Stmt_pool.all
       @ parse shapes)
  in
  let ws = parse witness_schema in
  let seed_tc = List.hd Stmt_pool.corpus in
  let contexts = [ []; ws; seed_tc ] in
  let around =
    List.concat_map
      (fun s ->
         List.map (fun ctx -> ctx @ [ s ]) contexts
         @ [ s :: ws; ws @ [ s; s ] ])
      stmts
  in
  let witnessed = List.map (fun w -> ws @ parse w) witnesses in
  let deeps =
    List.concat_map
      (fun d -> List.map (fun s -> ws @ [ s ]) (deep d))
      [ 10; 11; 12; 13; 14; 20 ]
  in
  let sequences = List.init 1000 raw_sequence in
  let bases = Array.of_list (Stmt_pool.corpus @ sequences) in
  let edits =
    List.init 2500 (fun i ->
        edit (10_000 + i) bases.(i mod Array.length bases))
  in
  dedup Sql_printer.testcase
    (witnessed @ deeps @ around @ sequences @ edits)

let seed = 29

let repair tc =
  let rng = Rng.create seed in
  let out = Lego.Instantiate.repair rng tc in
  (out, Rng.int64 rng)

let line (out, next) =
  Printf.sprintf "%s\t%016Lx" (String.escaped (Sql_printer.testcase out)) next

(* [(input, repaired, outcome line)] in input order; the golden file
   holds the outcome lines alone, since the inputs are rebuilt. *)
let outcomes ~shapes =
  List.map
    (fun tc ->
       let ((out, _) as r) = repair tc in
       (tc, out, line r))
    (inputs ~shapes)
