(** Bounded memo of per-statement grammar traces (DESIGN.md §15).

    Grammar feedback needs the grammar map of every executed and every
    ranked testcase. Fuzzed testcases mostly repeat statements seen
    before, and a statement's share of the map is a function of its
    printed text alone ({!Sqlparser.Parser.testcase_grammar}), so the
    memo keeps each recent statement's trace keyed by that text and
    rebuilds maps from traces instead of re-parsing. The map it fills
    is byte-identical to a whole-testcase parse.

    Each harness owns one memo (domain-private, not thread-safe). *)

type t

val cap : int
(** Most statements the memo holds: two generations of [cap / 2]. A
    full young generation replaces the old one, so statements not used
    within the last two generations are gone. A generation also ends
    before its text and traces pass 8 MiB. *)

val create : Telemetry.Registry.t -> t
(** A fresh memo counting its lookups under [grammar.memo.hits] and
    [grammar.memo.misses] in the given registry. *)

val fill : t -> Coverage.Bitmap.t -> string list -> bool
(** [fill t g texts] resets the map and fills it with the grammar
    coverage of the testcase whose statements print as [texts]: the
    same map, and the same result ([true] when it parses), as
    [Sqlparser.Parser.parse_testcase ~grammar] on
    [Sqlcore.Sql_printer.join_stmts texts]. A testcase with a statement
    that does not parse on its own takes that whole-testcase parse. *)

val length : t -> int
(** Entries in both generations; a statement copied into the young one
    counts twice until the old one goes. *)
