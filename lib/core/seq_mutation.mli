(** Sequence-oriented mutation — the paper's Algorithm 1.

    Given a seed, each statement is mutated by {e substitution} (replace
    it with a statement of a different, randomly chosen type),
    {e insertion} (add a statement of a random type after it), and
    {e deletion}. Replacement statements are instantiated from the
    skeleton library / generator against the schema visible at that point,
    and the whole mutant is re-validated, following SQUIRREL-style
    dependency fixing as the paper describes. *)

open Sqlcore

type op = Substitution | Insertion | Deletion

val mutate_at :
  Reprutil.Rng.t ->
  skeletons:Skeleton_library.t ->
  types:Stmt_type.t list ->
  Ast.testcase ->
  pos:int ->
  (op * Ast.testcase) list
(** The (up to) three mutants of Algorithm 1's loop body at statement
    [pos]. Deletion is skipped on single-statement seeds. *)

val mutate_all :
  Reprutil.Rng.t ->
  skeletons:Skeleton_library.t ->
  types:Stmt_type.t list ->
  Ast.testcase ->
  (op * Ast.testcase) list
(** Algorithm 1 in full: mutants for every position. *)
