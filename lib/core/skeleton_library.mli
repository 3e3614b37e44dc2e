(** The global AST structure library.

    The paper harvests the AST structure of every statement of a
    coverage-increasing seed into a global library keyed by statement
    type; instantiation then draws a type-matched structure at random.
    Structures are deduplicated by their printed SQL and capped per type
    (old entries are evicted at random) so the library stays fresh without
    growing unboundedly. *)

open Sqlcore

type t

val create : unit -> t

val harvest : t -> Ast.testcase -> int
(** Store each statement under its type; returns how many were newly
    stored. Newly-stored structures are also appended to the journal
    ({!journal_since}) for exchange export. *)

val store : t -> Ast.stmt -> bool
(** Store one structure {e without} journaling it — the import path for
    structures received from other shards ([false] on duplicate).
    Skipping the journal keeps a foreign structure from being re-exported
    by its importer. *)

val journal_length : t -> int

val journal_since : t -> int -> Ast.stmt list
(** Locally-harvested structures at journal index ≥ the cursor, in
    harvest order. *)

val pick : t -> Reprutil.Rng.t -> Stmt_type.t -> Ast.stmt option
(** Random stored structure of that type, if any. *)

val count : t -> int
(** Total stored structures. *)

val types_covered : t -> int
(** Number of types with at least one structure. *)
