(** SQUIRREL-sim: coverage-guided mutation of the {e inner structure} of
    individual statements.

    Reproduces the mechanism the paper attributes to SQUIRREL (Zhong et
    al., CCS'20): syntax-preserving, semantics-guided mutation with
    dependency repair and coverage feedback — but no sequence-oriented
    mutation, so the SQL Type Sequences of its seeds stay those of the
    initial corpus (the paper's Fig. 1 observation). *)

type t

val create :
  ?seed:int ->
  ?harness:Fuzz.Harness.t ->
  Minidb.Profile.t ->
  t
(** [?harness] injects a (e.g. shard-owned) execution harness. *)

val fuzzer : t -> Fuzz.Driver.fuzzer

val pool_size : t -> int
