(** SQLsmith-sim: random single-SELECT generation.

    Like SQLsmith, it generates syntactically rich SELECT statements and
    leaves the database unchanged: every test case is a fixed schema
    preamble plus exactly one random query, so its corpus contributes no
    SQL Type Sequence variety at all (the paper excludes it from Table II
    for this reason, and only runs it on PostgreSQL). *)

type t

val create :
  ?seed:int ->
  ?harness:Fuzz.Harness.t ->
  Minidb.Profile.t ->
  t
(** [?harness] injects a (e.g. shard-owned) execution harness. *)

val fuzzer : t -> Fuzz.Driver.fuzzer
