(** Crash deduplication by synthetic call stack, the analogue of the
    paper's "we first got [unique bugs] from unique crashes by comparing
    the call stack", and logic-bug deduplication by
    {!Oracle.Violation.key}.

    The one finding table of the repository: each harness keeps one for
    its shard, {!Sync} keeps one for the whole campaign (shards' unique
    findings recorded in shard-id order at each round release), and the
    farm store unions persisted dedup keys through {!preload} and
    {!crash_keys}/{!logic_keys}. *)

type t

val create : unit -> t

val stack_key : Minidb.Fault.crash -> string
(** The canonical deduplication key of a crash: its synthetic call stack,
    joined. Two crashes with equal keys are the same bug signature. *)

val record :
  t -> ?testcase:Sqlcore.Ast.testcase -> Minidb.Fault.crash -> bool
(** [true] when this crash's stack was not seen before. The triggering
    test case, when provided, is kept with the first crash of each
    stack so bugs ship with a reproducer. *)

val total_crashes : t -> int
(** All crashes recorded, including duplicates. *)

val unique : t -> Minidb.Fault.crash list
(** One representative per distinct stack, in first-seen order. *)

val unique_count : t -> int
(** O(1): maintained on insert, never recomputed from the list. *)

val bug_ids : t -> string list
(** Distinct injected-bug ids among the unique crashes, sorted.
    Memoised; recomputed only after a new unique crash was recorded. *)

val unique_with_cases :
  t -> (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list
(** Unique crashes paired with the test case that first triggered them. *)

val record_logic :
  t -> ?testcase:Sqlcore.Ast.testcase -> Oracle.Violation.t -> bool
(** The logic-bug counterpart of {!record}: [true] when this violation's
    {!Oracle.Violation.key} (oracle name + plan-shape tag) was not seen
    before. The triggering test case is kept with the first violation of
    each signature. *)

val total_logic : t -> int
(** All oracle violations recorded, including duplicates. *)

val unique_logic :
  t -> (Oracle.Violation.t * Sqlcore.Ast.testcase option) list
(** One representative per distinct signature, in first-seen order,
    paired with the test case that first exposed it. *)

val logic_count : t -> int

(** {2 Persisted-key preload (farm resume)}

    A resumed campaign must not re-report findings the interrupted run
    already shipped. {!preload} marks persisted dedup keys as seen {e
    without} a representative: {!record}/{!record_logic} on a preloaded
    key return [false] (and add nothing to {!unique}/{!unique_logic}),
    exactly as if the crash had been seen in this process. Preloaded keys
    do not count toward {!unique_count}, {!total_crashes} or
    {!logic_count} — those stay "this run's findings". *)

val preload : t -> crash_keys:string list -> logic_keys:string list -> unit
(** Idempotent; keys already seen (preloaded or recorded) are ignored. *)

val crash_keys : t -> string list
(** Every crash dedup key this triage knows — preloaded keys first (in
    preload order), then locally recorded keys in first-seen order. The
    deterministic persisted form of the dedup table: a store saved from a
    resumed campaign carries the union. *)

val logic_keys : t -> string list
(** Logic-signature counterpart of {!crash_keys}. *)
