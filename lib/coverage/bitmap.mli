(** AFL-style edge-coverage bitmap.

    The paper instruments DBMSs with AFL++'s compile-time branch
    instrumentation; MiniDB is hand-instrumented instead, with {!probe}
    calls at semantic branch points. Each probe mixes a registered site id
    (see {!Sites}) with a small state key, so the same source location
    reached in different engine states lights up different cells — the
    property that makes coverage sensitive to SQL Type Sequences
    (paper Fig. 2).

    Hit counts are classified into AFL's logarithmic buckets before being
    merged into a persistent {e virgin} map, so "loop ran 3 times" vs
    "loop ran 100 times" counts as new coverage exactly once, like AFL. *)

type t

val size : int
(** Number of cells (65536). *)

val dirty_cap : int
(** Cells a map tracks one by one; past that many it is {e saturated}
    and scans the whole buffer until the next [reset]. *)

val create : unit -> t

val reset : t -> unit
(** Zero all cells (reuse between executions). Cost is proportional to
    the number of cells touched since the previous reset, not to the map
    size, so per-execution reuse of one scratch map stays cheap. *)

val hit : t -> int -> unit
(** Increment the cell at [index mod size]. *)

val probe : t -> site:int -> key:int -> unit
(** Record that probe [site] fired in state [key]. *)

val mix : site:int -> key:int -> int
(** Avalanching slot index for [(site, key)]. Unlike {!probe}'s
    historical xor-of-products — which folds the site id in linearly and
    lets distinct (site, key) pairs alias to one slot — [mix] multiplies
    the site id in and re-finalises, so every site bit disturbs every
    output bit. New slot families (the grammar rule-pair region) use
    this; the edge map keeps {!probe} so recorded edge campaigns stay
    comparable. *)

val count_nonzero : t -> int
(** Number of cells with a nonzero value — the "branches" metric. *)

val count_nonzero_in : t -> lo:int -> hi:int -> int
(** Nonzero cells with index in [\[lo, hi)]. Lets one map carry two
    disjoint slot families that are counted separately but share the
    merge/diff/compact algebra. *)

val bucket : int -> int
(** AFL hit-count bucket of a raw count (power-of-two bit). *)

val merge_into : virgin:t -> t -> int
(** Fold an execution map into the accumulated virgin map; returns the
    number of cells whose bucket set grew (i.e. new coverage). *)

val count_news : virgin:t -> t -> int
(** What {!merge_into} would return, without mutating [virgin]: the
    number of execution-map cells holding bucket bits the virgin map
    lacks. Generation bias ranks candidates by this. *)

val merge : into:t -> t -> int
(** Union of two {e virgin} maps ([into ⊔ src], bitwise or per cell since
    virgin cells hold bucket-bit sets); returns the number of cells whose
    bucket set grew. Commutative and idempotent up to the return value:
    re-merging the same map reports zero news. This is the cross-shard
    coverage-exchange primitive of the campaign engine. *)

val snapshot : t -> t
(** Cheap point-in-time copy, for shards to diff against later. *)

val diff : t -> since:t -> int
(** Number of cells of [t] holding bucket bits absent from [since] — i.e.
    the new coverage accumulated since [since] was {!snapshot}ed. *)

val hash : t -> int64
(** Order-insensitive 64-bit digest of the bucketed map, used to
    deduplicate seeds with identical coverage. Linear in the touched
    cells; it sorts them in scratch space kept in the map, so two
    domains must not hash one map at the same time. *)

val is_set : t -> int -> bool

type compact
(** Frozen point-in-time copy storing only touched cells; creating,
    holding and restoring one costs O(touched cells), not O(map size).
    The prefix-snapshot cache stores one per cached boundary. *)

val compact : t -> compact

val load_compact : into:t -> compact -> unit
(** Make [into] cell-for-cell equal to the map [compact] was taken
    from. *)

val merge_compact : into:t -> compact -> int
(** [merge ~into] of the map [compact] was taken from: ORs its cells into
    [into] in the order {!load_compact} would touch them and returns the
    number of cells whose bucket set grew, without building that map. *)

val compact_bytes : compact -> int
(** Approximate heap footprint, for cache memory accounting. *)

val compact_cells : compact -> (int * int) list
(** The nonzero cells of a compact map as [(index, value)] pairs in
    ascending index order — the canonical serialisable form (the farm
    store persists virgin maps this way). Deterministic for equal map
    contents regardless of the order cells were touched in. *)

val iter_compact_cells : (int -> int -> unit) -> compact -> unit
(** [iter_compact_cells f c] calls [f index value] on the cells
    {!compact_cells} lists, in the same order, without building the
    list. *)

val compact_of_cells : (int * int) list -> compact
(** Inverse of {!compact_cells}: rebuild a compact map from cell pairs.
    Indices are reduced mod {!size} and values clamped to a byte; later
    duplicates overwrite earlier ones. *)
