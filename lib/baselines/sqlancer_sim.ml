open Sqlcore
module Rng = Reprutil.Rng
module Vec = Reprutil.Vec

type t = {
  rng : Rng.t;
  harness : Fuzz.Harness.t;
  profile : Minidb.Profile.t;
  kept : Ast.testcase Vec.t;  (* generated corpus, ring-buffered *)
  pool : Fuzz.Seed_pool.t;
      (* coverage-increasing cases, recorded for the cross-shard seed
         exchange only: generation never reads it back *)
  mutable next_slot : int;
  sp_synthesize : Telemetry.Span.t;
}

let corpus_cap = 4096

let create ?(seed = 1) ?harness profile =
  let harness =
    match harness with
    | Some h -> h
    | None -> Fuzz.Harness.create ~profile ()
  in
  { rng = Rng.create (seed lxor 0x1A9C);
    harness;
    profile;
    kept = Vec.create ();
    pool = Fuzz.Seed_pool.create ();
    next_slot = 0;
    sp_synthesize =
      Telemetry.Span.stage (Fuzz.Harness.metrics harness) "synthesize" }

let supported t ty = Minidb.Profile.supports t.profile ty

(* One pattern-rule test case: setup, population, pivot-ish queries. *)
let generate t =
  let rng = t.rng in
  let schema = Lego.Sym_schema.empty () in
  let stmts = ref [] in
  let push ty =
    if supported t ty then begin
      let s = Lego.Generator.stmt rng schema ty in
      Lego.Sym_schema.apply schema s;
      stmts := s :: !stmts
    end
  in
  (* session setup, like SQLancer's provider options *)
  if Rng.ratio rng 1 12 then push Stmt_type.Set_var;
  if Rng.ratio rng 1 8 then push Stmt_type.Begin_txn;
  let n_tables = 1 + Rng.int rng 2 in
  for _ = 1 to n_tables do
    push Stmt_type.Create_table
  done;
  if Rng.ratio rng 3 10 then push Stmt_type.Create_index;
  for _ = 1 to 1 + Rng.int rng 3 do
    push Stmt_type.Insert
  done;
  if Rng.ratio rng 3 10 then
    push (if Rng.bool rng then Stmt_type.Update else Stmt_type.Delete);
  for _ = 1 to 3 do
    (* PQS-style oracle queries: plain conjunctive SELECTs whose result a
       pivot-row oracle can check — no aggregation, windows, or joins. *)
    if supported t Stmt_type.Select then begin
      let s =
        Lego.Generator.select rng schema ~allow_window:false
          ~allow_agg:false ()
      in
      let s =
        { s with
          Ast.distinct = false;
          projs = [ Ast.Star ];
          group_by = [];
          having = None;
          from =
            (match s.Ast.from with
             | Some (Ast.From_join { left; _ }) -> Some left
             | f -> f) }
      in
      let st = Ast.S_select (Ast.Q_select s) in
      Lego.Sym_schema.apply schema st;
      stmts := st :: !stmts
    end
  done;
  (* occasional lifecycle statements, still from fixed rules *)
  if Rng.ratio rng 1 6 then push Stmt_type.Analyze;
  if Rng.ratio rng 1 8 then push Stmt_type.Truncate;
  if Rng.ratio rng 1 8 then push Stmt_type.Commit_txn;
  if Rng.ratio rng 1 8 then push Stmt_type.Drop_table;
  Lego.Instantiate.repair rng (List.rev !stmts)

let step t () =
  let tc = Telemetry.Span.time t.sp_synthesize (fun () -> generate t) in
  let outcome = Fuzz.Harness.execute t.harness tc in
  (* no priming: SQLancer is generation-based — successive cases share
     no statement prefixes, so cached snapshots would never be hit *)
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
  { Fuzz.Driver.f_name = "SQLancer";
    f_step = step t;
    f_harness = t.harness;
    f_corpus = (fun () -> Vec.to_list t.kept);
    f_exchange = Some (Fuzz.Sync.seed_port t.pool) }
