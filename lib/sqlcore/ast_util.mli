(** Structural helpers over the {!Ast}.

    These traversals back three consumers: the LEGO instantiator's
    dependency repair (which tables/columns does a statement reference),
    the conventional intra-statement mutations (rewrite every expression in
    place), and the fault-injection predicates (e.g. "current statement
    contains a window function"). Only {!map_exprs} and
    {!map_table_refs} build a tree; the folds and {!stmt_size} walk the
    statement once and allocate next to nothing. *)

val fold_exprs : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt -> 'a
(** Fold over every expression occurring anywhere in a statement,
    including inside subqueries, CTE bodies, and trigger/rule bodies.
    It visits the nodes {!map_exprs} rewrites, in the order it rewrites
    them (children before their parent), without rebuilding anything. *)

val map_exprs : (Ast.expr -> Ast.expr) -> Ast.stmt -> Ast.stmt
(** Rewrite every expression bottom-up. The function receives each node
    after its children were rewritten. *)

val map_table_refs : (string -> string) -> Ast.stmt -> Ast.stmt
(** Rename every table reference (reads and writes, including qualified
    column references and DDL targets). *)

val tables_read : Ast.stmt -> string list
(** Tables a statement reads from (FROM clauses, subqueries, DML
    sources), deduplicated, in first-occurrence order. *)

val tables_written : Ast.stmt -> string list
(** Tables a statement inserts into / updates / deletes from / truncates,
    including via CTE bodies and trigger bodies. *)

val objects_created : Ast.stmt -> (string * string) list
(** [(kind, name)] pairs for every schema object the statement creates
    (kind is ["table"], ["view"], ["index"], ...). *)

val has_window_fn : Ast.stmt -> bool

val has_subquery : Ast.stmt -> bool

val has_aggregate : Ast.stmt -> bool

val column_refs : Ast.stmt -> (string option * string) list
(** Every column reference in the statement, qualified or not. *)

val stmt_size : Ast.stmt -> int
(** Rough node count, used as an execution-cost proxy and a mutation
    budget: 1, plus the sum of {!expr_depth} over every node
    {!fold_exprs} visits, plus the distinct tables read and written.
    Computed in one walk that sums the depths bottom-up; the engine
    sizes every statement it runs. *)

val expr_depth : Ast.expr -> int
