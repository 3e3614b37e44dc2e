(** Rendering of the {!Ast} back to SQL text.

    The printer is total over the AST and its output is accepted by
    {!Sqlparser.Parser}; [parse (print s) = s] structurally, which the
    property tests check. Binary expressions are printed fully
    parenthesised so that round-tripping never depends on precedence. *)

val data_type : Ast.data_type -> string

val literal : Ast.literal -> string

val expr : Ast.expr -> string

val query : Ast.query -> string

val stmt : Ast.stmt -> string
(** SQL text of one statement, without the trailing [';']. *)

val testcase : Ast.testcase -> string
(** Statements joined by [";\n"], with a final [';']. *)

