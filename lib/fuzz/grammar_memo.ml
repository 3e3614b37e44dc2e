(* Two generations of hash tables approximate LRU with three heap blocks
   per entry (table cell, text, trace) and no list to relink on a hit:
   statements go into the young table; a hit in the old table copies the
   entry into the young one; when the young table is full it becomes the
   old one and the previous old one is dropped whole. Statements in use
   keep climbing into the young table, and the rest age out within two
   generations. *)

type t = {
  mutable young : (string, Sqlparser.Parser.stmt_trace) Hashtbl.t;
  mutable old : (string, Sqlparser.Parser.stmt_trace) Hashtbl.t;
  mutable young_bytes : int;
  m_log : Coverage.Grammar.log;  (* tracing scratch for misses *)
  m_hits : Telemetry.Registry.counter;
  m_misses : Telemetry.Registry.counter;
}

let cap = 2048

(* Text plus trace bytes over both generations; only statements far
   longer than the generator writes come near it. *)
let max_bytes = 16 * 1024 * 1024

let generation = cap / 2

let create metrics =
  { young = Hashtbl.create 256;
    old = Hashtbl.create 1;
    young_bytes = 0;
    m_log = Coverage.Grammar.log_create ();
    m_hits = Telemetry.Registry.counter metrics "grammar.memo.hits";
    m_misses = Telemetry.Registry.counter metrics "grammar.memo.misses" }

let add t text tr =
  let bytes = String.length text + Sqlparser.Parser.stmt_trace_bytes tr in
  if Hashtbl.length t.young >= generation
  || t.young_bytes + bytes > max_bytes / 2
  then begin
    t.old <- t.young;
    t.young <- Hashtbl.create 256;
    t.young_bytes <- 0
  end;
  Hashtbl.replace t.young text tr;
  t.young_bytes <- t.young_bytes + bytes

let find t text =
  match Hashtbl.find_opt t.young text with
  | Some _ as hit ->
    Telemetry.Registry.incr t.m_hits;
    hit
  | None ->
    (match Hashtbl.find_opt t.old text with
     | Some tr as hit ->
       Telemetry.Registry.incr t.m_hits;
       add t text tr;
       hit
     | None ->
       Telemetry.Registry.incr t.m_misses;
       None)

let fill t g tc =
  Coverage.Bitmap.reset g;
  Sqlparser.Parser.testcase_grammar g t.m_log ~find:(find t) ~add:(add t)
    (List.map Sqlcore.Sql_printer.stmt tc)
  || begin
    Coverage.Bitmap.reset g;
    Result.is_ok
      (Sqlparser.Parser.parse_testcase ~grammar:g
         (Sqlcore.Sql_printer.testcase tc))
  end

let length t = Hashtbl.length t.young + Hashtbl.length t.old
