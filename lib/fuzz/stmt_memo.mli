(** Bounded physical-identity memo of printed statements (DESIGN.md §12).

    The harness prints a statement to key the prefix cache (its digest)
    and to build grammar maps (its text), and fuzzed candidates mostly
    reuse their parent's statement objects: mutations and dependency
    repair return what they leave alone physically. The memo keeps the
    {!cap} most recently added statements with their printed text, and
    the text's digest once asked for, so a repeated statement costs a
    few pointer comparisons instead of a print and an MD5. Staleness
    only costs a recomputation: a statement that fell out is printed
    again.

    Each harness owns one memo (domain-private, not thread-safe). *)

type t

val cap : int
(** Most statements the memo holds; a miss beyond it replaces the
    oldest entry. *)

val create : unit -> t

val text : t -> Sqlcore.Ast.stmt -> string
(** [Sqlcore.Sql_printer.stmt], remembered. *)

val digest : t -> Sqlcore.Ast.stmt -> string
(** [Digest.string] of {!text}, remembered. *)

val length : t -> int
(** Statements held, at most {!cap}. *)
