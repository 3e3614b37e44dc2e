(** The standard initial seed corpus.

    Five small test cases covering the everyday CREATE / INSERT / UPDATE /
    DELETE / SELECT / CREATE INDEX patterns. Every statement type used
    here is supported by all four dialects, so every fuzzer starts from
    the same baseline, like the paper's shared default seed setup. *)

val initial : Minidb.Profile.t -> Sqlcore.Ast.testcase list
(** Seeds filtered to the profile's supported types (a no-op for the
    shipped corpus, by construction). *)
