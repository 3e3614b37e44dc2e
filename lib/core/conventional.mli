(** Conventional syntax-preserving, semantics-guided mutations.

    These mutate the {e inner structure} of a single statement — data
    values and clause structure — without changing its statement type, so
    the SQL Type Sequence of the test case is preserved. This is the
    mutation class the paper attributes to SQUIRREL (its Fig. 1 example
    turns [WHERE v1 = 1] into [ORDER BY v1]); LEGO layers them on top of
    sequence synthesis ("fine mutations ... further increase the depth of
    exploration"). *)

open Sqlcore

val mutate_stmt : Reprutil.Rng.t -> Sym_schema.t -> Ast.stmt -> Ast.stmt
(** One structural or data mutation; [type_of_stmt] is preserved
    (property-tested). *)

val mutate_testcase_at : Reprutil.Rng.t -> Ast.testcase -> Ast.testcase * int
(** Pick a statement, mutate it, re-validate the test case (the type
    sequence is preserved), and return the mutated position with it:
    statements before it print identically to the parent's (repair only
    rewrites invalid references), so the position serves as a prefix hint
    for the harness's execution cache. *)

val mutate_testcase_at_biased :
  Reprutil.Rng.t ->
  novelty:(Ast.testcase -> int) ->
  Ast.testcase ->
  Ast.testcase * int
(** Grammar-feedback generation bias (DESIGN.md §15): draw two
    independent {!mutate_testcase_at} candidates and keep the one
    [novelty] scores higher (ties keep the first draw, so a constant
    [novelty] reduces to discarding one candidate). Consumes two
    {!mutate_testcase_at} RNG draws — callers gate it on the harness
    actually running grammar feedback to preserve the default mode's
    RNG stream. *)
