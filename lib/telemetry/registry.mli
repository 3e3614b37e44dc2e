(** The metric registry: counters, gauges and fixed-bucket histograms.

    A registry is strictly single-domain state — like a shard's virgin
    coverage map, it is updated without locks by the owning domain and
    {e merged} into a global registry once, at the end of a sharded
    campaign. The merge operation mirrors {!Coverage.Bitmap.merge}'s
    algebra:

    - counters add (commutative, associative),
    - gauges take the maximum (commutative, associative, idempotent),
    - histograms add bucket-wise (commutative, associative; histograms
      with the same name must share bucket edges).

    Because counter and histogram merges are {e not} idempotent, each
    shard's registry is merged exactly once. A caller that merges the
    same registry more than once must merge {!diff}s against what it
    merged before: [merge (diff cur ~since:last)] after [merge last] is
    equivalent to [merge cur].

    Updating a registry never performs I/O and never observes the clock,
    so metrics collection is free of determinism hazards: with no sink
    attached, a fuzzing run with metrics on is byte-identical to one with
    metrics off. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(* --- handles --------------------------------------------------------- *)

val counter : t -> string -> counter
(** Find-or-create; hot paths should hold on to the handle. *)

val gauge : t -> string -> gauge

val histogram : ?edges:int array -> t -> string -> histogram
(** Find-or-create with the given bucket upper edges (default
    [0, 1, 2, 4, 8, ..., 65536]: powers of two, log-buckets wide enough
    for costs and microsecond stage timings). Edges must be strictly
    increasing; an existing histogram's edges win. Bucket [i] counts
    observations [v] with [edges.(i-1) < v <= edges.(i)]; one overflow
    bucket catches [v > edges.(last)]. *)

(* --- updates (lock-free, owner domain only) -------------------------- *)

val incr : ?by:int -> counter -> unit
val set_max : gauge -> int -> unit
(** Raise the gauge to [v] if larger (max is the gauge merge law). *)

val observe : histogram -> int -> unit

(* --- reads ----------------------------------------------------------- *)

val counter_value : t -> string -> int
(** 0 when absent. *)

val gauge_value : t -> string -> int
val histogram_stats : t -> string -> (int array * int array * int * int) option
(** [(edges, counts, sum, n)] of a histogram, copied. *)

val counter_names : t -> string list
(** Sorted. *)

val gauge_names : t -> string list
(** Sorted. *)

val histogram_names : t -> string list
(** Sorted. *)

(* --- the sync algebra ------------------------------------------------ *)

val snapshot : t -> t
(** Deep copy, for shards to {!diff} against later. *)

val diff : t -> since:t -> t
(** The delta registry: counters and histogram buckets subtract, gauges
    carry the current value (max-merge makes re-publishing a gauge
    harmless). Metrics absent from [since] carry their full value. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into] under the merge laws above.
    @raise Invalid_argument when histograms of the same name disagree on
    bucket edges. *)

val to_json : t -> Json.t
(** Canonical dump (keys sorted) — deterministic for equal contents. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; used by [legofuzz report]. *)
