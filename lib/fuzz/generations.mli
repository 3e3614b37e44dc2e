(** A bounded map kept as two generations of hash tables, an LRU
    approximation with no recency list to relink on a hit.

    Entries go into the young table; a hit in the old table moves the
    entry into the young one; when the young table is full it becomes
    the old one and the previous old one is dropped whole. Entries in
    use keep climbing into the young table, and the rest age out within
    two generations. Three tables are built on it: the statement-trace
    memo ({!Grammar_memo}), and the harness's repeat memo and
    prefix-snapshot cache (DESIGN.md §12). Domain-private, not
    thread-safe. *)

type ('k, 'v) t

val create :
  ?bytes:('k -> 'v -> int) -> ?max_bytes:int -> generation:int -> unit ->
  ('k, 'v) t
(** A generation ends when it holds [generation] entries, or before the
    [bytes] of its entries pass [max_bytes] (default: no byte bound). An
    entry larger than [max_bytes] by itself still goes in, alone. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Callers add after a miss: a key already in the table would be
    counted twice. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** A hit in the old generation moves into the young one, which can roll
    the table. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Like {!find}, but never moves an entry: the table is left as it
    was. *)

val length : ('k, 'v) t -> int
(** Entries in both generations. *)

val bytes : ('k, 'v) t -> int
(** The [bytes] of the entries in both generations. *)

val dropped : ('k, 'v) t -> int
(** Entries the rolls have dropped so far, whether an {!add} or a
    promoting {!find} rolled. *)
