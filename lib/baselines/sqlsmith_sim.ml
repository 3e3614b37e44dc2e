open Sqlcore
module Rng = Reprutil.Rng
module Vec = Reprutil.Vec

type t = {
  rng : Rng.t;
  harness : Fuzz.Harness.t;
  preamble : Ast.testcase;
  kept : Ast.testcase Vec.t;
  pool : Fuzz.Seed_pool.t;
      (* coverage-increasing cases, recorded for the cross-shard seed
         exchange only: generation never reads it back *)
  mutable next_slot : int;
  sp_synthesize : Telemetry.Span.t;
}

let corpus_cap = 4096

(* The fixed schema SQLsmith would find in an existing database. *)
let preamble_sql =
  "CREATE TABLE t1 (c1 INT PRIMARY KEY, c2 INT, c3 VARCHAR(16));\n\
   CREATE TABLE t2 (c1 INT, c2 FLOAT, c3 TEXT);\n\
   CREATE TABLE t3 (c1 BOOL, c2 TEXT, c3 FLOAT, c4 INT);\n\
   INSERT INTO t1 VALUES (1, 10, 'alpha'), (2, 20, 'beta'), (3, 30, 'x');\n\
   INSERT INTO t2 VALUES (1, 1.5, 'p'), (2, 2.5, 'q');\n\
   INSERT INTO t3 VALUES (TRUE, 'z', 0.25, 7), (FALSE, '', -1.5, -7);"

let create ?(seed = 1) ?harness profile =
  let harness =
    match harness with
    | Some h -> h
    | None -> Fuzz.Harness.create ~profile ()
  in
  let preamble = Sqlparser.Parser.parse_testcase_exn preamble_sql in
  { rng = Rng.create (seed lxor 0x53A1);
    harness;
    preamble;
    kept = Vec.create ();
    pool = Fuzz.Seed_pool.create ();
    next_slot = 0;
    sp_synthesize =
      Telemetry.Span.stage (Fuzz.Harness.metrics harness) "synthesize" }

(* SQLsmith's hallmark is syntactic depth: nested derived tables, set
   operations, correlated EXISTS/IN predicates, deep scalar expressions —
   all inside a single SELECT statement. *)
let rec rich_query rng schema depth =
  let base () = Ast.Q_select (Lego.Generator.select rng schema ()) in
  if depth <= 0 then base ()
  else
    match Reprutil.Rng.int rng 5 with
    | 0 ->
      (* derived-table nesting *)
      let inner = rich_query rng schema (depth - 1) in
      Ast.Q_select
        { distinct = Reprutil.Rng.ratio rng 1 6;
          projs = [ Ast.Star ];
          from = Some (Ast.From_subquery { q = inner; alias = "sub" });
          where = None; group_by = []; having = None; order_by = [];
          limit =
            (if Reprutil.Rng.ratio rng 1 3 then
               Some (Reprutil.Rng.int rng 32)
             else None);
          offset = None }
    | 1 ->
      Ast.Q_compound
        ( rich_query rng schema (depth - 1),
          Reprutil.Rng.choose rng
            [ Ast.Union; Ast.Union_all; Ast.Intersect; Ast.Except ],
          rich_query rng schema (depth - 1) )
    | 2 ->
      (* correlated-style EXISTS / scalar-subquery predicate *)
      let inner = rich_query rng schema (depth - 1) in
      let s = Lego.Generator.select rng schema () in
      let pred =
        if Reprutil.Rng.bool rng then
          Ast.Exists (inner, Reprutil.Rng.ratio rng 1 3)
        else
          Ast.Binop
            ( Reprutil.Rng.choose rng [ Ast.Eq; Ast.Lt; Ast.Gt ],
              Ast.Subquery inner,
              Ast.Lit (Ast.L_int (Reprutil.Rng.int rng 64)) )
      in
      Ast.Q_select
        { s with
          where =
            (match s.where with
             | None -> Some pred
             | Some w -> Some (Ast.Binop (Ast.And, w, pred))) }
    | 3 ->
      (* deep scalar expressions in the projection list *)
      let s = Lego.Generator.select rng schema ~allow_window:true () in
      let cols =
        match s.Ast.from with
        | Some (Ast.From_table { name; _ }) ->
          Option.value ~default:[] (Lego.Sym_schema.table_cols schema name)
        | _ -> []
      in
      Ast.Q_select
        { s with
          projs =
            List.init
              (1 + Reprutil.Rng.int rng 3)
              (fun _ ->
                 Ast.Proj (Lego.Generator.expr rng ~cols ~depth:4, None)) }
    | _ -> base ()

let step t () =
  let tc =
    Telemetry.Span.time t.sp_synthesize (fun () ->
        let schema = Lego.Sym_schema.of_testcase t.preamble in
        let query =
          Ast.S_select (rich_query t.rng schema (2 + Reprutil.Rng.int t.rng 3))
        in
        t.preamble @ [ query ])
  in
  (* every case is [preamble @ query]: the preamble is the shared prefix
     of every execution, captured by the first one *)
  let outcome =
    Fuzz.Harness.execute ~hint:(List.length t.preamble) t.harness tc
  in
  if outcome.Fuzz.Harness.o_interesting then
    ignore
      (Fuzz.Seed_pool.add t.pool ~tc ~cov_hash:outcome.o_cov_hash
         ~new_branches:outcome.o_new_branches ~cost:outcome.o_cost);
  if Vec.length t.kept < corpus_cap then Vec.push t.kept tc
  else begin
    Vec.set t.kept t.next_slot tc;
    t.next_slot <- (t.next_slot + 1) mod corpus_cap
  end

let fuzzer t =
  { Fuzz.Driver.f_name = "SQLsmith";
    f_step = step t;
    f_harness = t.harness;
    f_corpus = (fun () -> Vec.to_list t.kept);
    f_exchange = Some (Fuzz.Sync.seed_port t.pool) }
