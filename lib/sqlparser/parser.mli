(** Recursive-descent SQL parser covering the whole {!Sqlcore.Ast}.

    The grammar is the language produced by {!Sqlcore.Sql_printer}, plus the
    usual conveniences (operator precedence without mandatory parentheses,
    optional [ASC], [TRUNCATE] without [TABLE], line comments, ...). The
    paper uses its AST parser both to harvest statement structures from
    seeds and to re-validate instantiated test cases; this module plays the
    same role.

    Every entry point takes an optional [?grammar] bitmap. When present,
    each production fired during the parse records its rule cell and its
    (production × parent production) pair cell via
    {!Coverage.Grammar.record} — the grammar-coverage feedback channel —
    and the lexer contributes one token-class site per token. Without
    [?grammar] the parse is exactly the pre-instrumentation one. *)

exception Parse_error of string

val parse_testcase :
  ?grammar:Coverage.Bitmap.t -> string ->
  (Sqlcore.Ast.testcase, string) result
(** Parse a [';']-separated sequence of statements. *)

val parse_stmt :
  ?grammar:Coverage.Bitmap.t -> string -> (Sqlcore.Ast.stmt, string) result
(** Parse a single statement (an optional trailing [';'] is accepted). *)

val parse_expr :
  ?grammar:Coverage.Bitmap.t -> string -> (Sqlcore.Ast.expr, string) result
(** Parse a stand-alone expression (for tests and tools). *)

val parse_testcase_exn :
  ?grammar:Coverage.Bitmap.t -> string -> Sqlcore.Ast.testcase
(** @raise Parse_error on malformed input. *)

val parse_stmt_exn : ?grammar:Coverage.Bitmap.t -> string -> Sqlcore.Ast.stmt

(** {2 Grammar coverage from per-statement traces}

    A testcase's grammar map is a composition of per-statement pieces,
    each a function of the statement's printed text alone, so a caller
    can memoise the pieces and rebuild the map without re-parsing. *)

type stmt_trace
(** One statement's share of a testcase's grammar map: its token
    classes (and the [';'] after it) under the root production, and its
    productions under the testcase production. *)

val stmt_trace_bytes : stmt_trace -> int
(** Payload size of a trace, for memo accounting. *)

val testcase_grammar :
  Coverage.Bitmap.t ->
  Coverage.Grammar.log ->
  find:(string -> stmt_trace option) ->
  add:(string -> stmt_trace -> unit) ->
  string list -> bool
(** [testcase_grammar g log ~find ~add stmts] records into [g] exactly the
    hits, in the same order, that [parse_testcase ~grammar:g] records on
    [String.concat ";\n" stmts ^ ";"] (when [stmts <> []]) — the text
    {!Sqlcore.Sql_printer.testcase} prints. Statements [find] knows are
    replayed from their trace; the others are tokenized once and parsed
    into [g], traced through the scratch [log], and their fresh traces
    handed to [add]. Returns [false] when a statement does not lex or
    parse on its own: [g] then holds a partial map and the caller must
    reset it and parse the whole text instead. *)
