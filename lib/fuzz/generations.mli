(** A bounded map kept as two generations of hash tables, an LRU
    approximation with no recency list to relink on a hit.

    Entries go into the young table; a hit in the old table copies the
    entry into the young one; when the young table is full it becomes
    the old one and the previous old one is dropped whole. Entries in
    use keep climbing into the young table, and the rest age out within
    two generations. The statement-trace memo ({!Grammar_memo}) and the
    harness's repeat memo are built on it. Domain-private, not
    thread-safe. *)

type ('k, 'v) t

val create :
  ?bytes:('k -> 'v -> int) -> ?max_bytes:int -> generation:int -> unit ->
  ('k, 'v) t
(** A generation ends when it holds [generation] entries, or before the
    [bytes] of its entries pass [max_bytes] (default: no byte bound). *)

val add : ('k, 'v) t -> 'k -> 'v -> unit

val find : ('k, 'v) t -> 'k -> 'v option
(** A hit in the old generation is copied into the young one. *)

val length : ('k, 'v) t -> int
(** Entries in both generations; an entry copied into the young one
    counts twice until the old one goes. *)
