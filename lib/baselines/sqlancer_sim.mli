(** SQLancer-sim: rule-based test-case generation without coverage
    feedback.

    Each step generates a fresh test case from fixed pattern rules —
    schema setup (CREATE TABLE, sometimes CREATE INDEX / VIEW), data
    population, then several pivot-style SELECT queries — mirroring how
    SQLancer's PQS-style oracles drive a fixed statement pattern. The
    rules produce a moderate variety of statement types in fixed orders,
    which is why the paper's Table II credits SQLancer with more
    affinities than SQUIRREL but far fewer than LEGO. *)

type t

val create :
  ?seed:int ->
  ?harness:Fuzz.Harness.t ->
  Minidb.Profile.t ->
  t
(** [?harness] injects a (e.g. shard-owned) execution harness. *)

val fuzzer : t -> Fuzz.Driver.fuzzer
