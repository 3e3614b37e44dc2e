(* Statement texts to their traces, in two generations
   ([Generations]): statements in use keep climbing into the young
   generation, and the rest age out within two. *)

type t = {
  table : (string, Sqlparser.Parser.stmt_trace) Generations.t;
  m_log : Coverage.Grammar.log;  (* tracing scratch for misses *)
  m_hits : Telemetry.Registry.counter;
  m_misses : Telemetry.Registry.counter;
}

let cap = 2048

(* Text plus trace bytes over both generations; only statements far
   longer than the generator writes come near it. *)
let max_bytes = 16 * 1024 * 1024

let create metrics =
  { table =
      Generations.create ~generation:(cap / 2) ~max_bytes:(max_bytes / 2)
        ~bytes:(fun text tr ->
            String.length text + Sqlparser.Parser.stmt_trace_bytes tr)
        ();
    m_log = Coverage.Grammar.log_create ();
    m_hits = Telemetry.Registry.counter metrics "grammar.memo.hits";
    m_misses = Telemetry.Registry.counter metrics "grammar.memo.misses" }

let find t text =
  let r = Generations.find t.table text in
  Telemetry.Registry.incr (if Option.is_some r then t.m_hits else t.m_misses);
  r

let fill t g texts =
  Coverage.Bitmap.reset g;
  Sqlparser.Parser.testcase_grammar g t.m_log ~find:(find t)
    ~add:(Generations.add t.table) texts
  || begin
    Coverage.Bitmap.reset g;
    Result.is_ok
      (Sqlparser.Parser.parse_testcase ~grammar:g
         (Sqlcore.Sql_printer.join_stmts texts))
  end

let length t = Generations.length t.table
