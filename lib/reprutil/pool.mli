(** Fork-join over OCaml 5 domains: the one place the repository spawns
    domains. Sharded campaign rounds and the in-process farm backend both
    run their parallel work through {!run}. *)

val run : workers:int -> (unit -> 'a) array -> 'a array
(** [run ~workers jobs] runs every job and returns their results in job
    order. Jobs are claimed in index order by the calling domain and at
    most [min workers (Array.length jobs) - 1] helper domains, further
    capped at [Domain.recommended_domain_count () - 1]; [workers <= 0]
    behaves as [1] (everything on the calling domain). A helper the
    runtime refuses to spawn is simply not started.

    When a job raises, no further job is claimed; once every claimed job
    has finished, the exception of the lowest-index failed job is
    re-raised with its backtrace. Since jobs are claimed in index order,
    that is the lowest-index job that fails, whatever the scheduling.

    Jobs run concurrently: each must touch only its own state, or state
    no other job of the same call writes. *)
