(** The common campaign loop shared by all fuzzers.

    Budgets are execution counts, not wall-clock: deterministic and
    machine-independent (see DESIGN.md's substitution table). *)

type snapshot = {
  st_iteration : int;
  st_execs : int;
  st_branches : int;
  st_total_crashes : int;
  st_unique_crashes : int;
  st_bugs : string list;  (** distinct injected-bug ids found so far *)
}

type annot = {
  an_wall_s : float;  (** wall-clock seconds since the loop started *)
  an_execs_per_sec : float;
}
(** Wall-clock annotations carried {e next to} checkpoints, never inside
    {!snapshot}: snapshots stay deterministic per seed (and comparable
    across runs), while sinks may record elapsed time and throughput.
    See the determinism contract in DESIGN.md §9. *)

type checkpoint = { cp_snapshot : snapshot; cp_annot : annot }

(** A running fuzzer: name, one-iteration step, its harness, access to
    the corpus of test cases it has generated/kept (used by the Table II
    affinity census), and its optional cross-shard exchange capability
    ([None] opts the fuzzer out of seed/affinity exchange; it still
    participates in coverage/crash sync). *)
type fuzzer = {
  f_name : string;
  f_step : unit -> unit;
  f_harness : Harness.t;
  f_corpus : unit -> Sqlcore.Ast.testcase list;
  f_exchange : Sync.port option;
}

exception Stalled of string
(** Raised by {!run_until_execs} after [max_stall] consecutive
    zero-execution steps: an exec-budget loop over a fuzzer that stopped
    executing (empty corpus / stuck seed, the paper's C3 anecdote) would
    otherwise spin forever. *)

val default_max_stall : int
(** 4096 consecutive zero-execution steps. *)

val snapshot : fuzzer -> iteration:int -> snapshot

val checkpoint : ?start:float -> fuzzer -> iteration:int -> checkpoint
(** {!snapshot} plus wall-clock annotations relative to [start]
    (default: now, i.e. zero elapsed). *)

val run_until_execs :
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  ?max_stall:int ->
  fuzzer ->
  execs:int ->
  snapshot
(** Step [fuzzer] until it has made [execs] executions; returns the final
    snapshot. The budget counts executions, not steps — the fair
    cross-fuzzer comparison (a 24-hour wall-clock budget in the paper
    gives every fuzzer a similar execution count). [on_checkpoint] fires
    after the first step that ends [checkpoint_every] executions past
    the last checkpoint (default: never), and never at the budget itself:
    the returned snapshot is the final checkpoint.
    @raise Stalled after [max_stall] (default {!default_max_stall})
    consecutive steps that performed zero executions. *)
