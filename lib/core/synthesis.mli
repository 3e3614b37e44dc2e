(** Progressive sequence synthesis — the paper's Algorithm 3.

    Maintains the vector [S] of all synthesized SQL Type Sequences (length
    <= LEN) and the {e Prefix Sequence} index [PS : (type, len) -> indices
    of sequences of that length ending in that type]. When a new
    type-affinity [t1 -> t2] is discovered, exactly the {e new} sequences —
    those containing the new affinity — are produced: every recorded
    prefix ending in [t1] is extended with [t2] and then recursively
    closed under the whole affinity map up to LEN.

    [S] is stored as a forest of parent-pointer cons cells with a
    per-node bitmap of already-recorded children, so recording a
    sequence is one small allocation plus a bit test (no list or string
    is materialized and no key is hashed). Callers hold sequence {!id}s
    and reconstruct (via {!to_types}) only the handful they actually
    instantiate.

    Every type is seeded as a length-1 sequence (the paper synthesizes
    "beginning from specific starting statement types"; seeding all types
    is the complete choice). Growth is bounded by a fixed total and by
    [max_per_affinity] so affinity-dense campaigns cannot explode (the
    paper's challenge C1). *)

open Sqlcore

type t

type id = int
(** Index of a synthesized sequence in [S]; stable for the lifetime of
    [t]. *)

val create :
  ?max_len:int ->
  ?max_per_affinity:int ->
  types:Stmt_type.t list ->
  unit ->
  t
(** [max_len] defaults to 5 (the paper's best length in the §VI study);
    [max_per_affinity] to 512. *)

val on_new_affinity :
  t -> Affinity.t -> Stmt_type.t * Stmt_type.t -> id list
(** Algorithm 3: synthesize and record all new sequences containing the
    new affinity; returns their ids (deduplicated, capped, in synthesis
    order). The affinity map must already contain the new pair. *)

val on_new_affinity_iter :
  t -> Affinity.t -> Stmt_type.t * Stmt_type.t -> (id -> unit) -> unit
(** {!on_new_affinity}, streaming: the callback receives each new id in
    synthesis order without materializing the list — the fuzzing loop's
    hot path (the callback must not call back into [t]). *)

val to_types : t -> id -> Stmt_type.t list
(** Reconstruct a sequence from its id by walking the parent chain
    (O(length), length <= [max_len]). *)

val total : t -> int
(** Sequences recorded so far (including the length-1 seeds). *)

val sequences : t -> Stmt_type.t list list
(** Everything in [S], for tests. *)

val prefix_count : t -> ty:Stmt_type.t -> len:int -> int
(** Size of the PS bucket, for tests of the index invariant. *)
