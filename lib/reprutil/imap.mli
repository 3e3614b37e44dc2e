(** Persistent map over int keys with O(1) cardinality — the
    copy-on-write substrate for engine state (table rows keyed by rowid).

    A value is an immutable root plus a cached element count; every
    update returns a fresh value sharing structure with the old one, so
    holding onto an old version (an engine snapshot) costs only the
    O(log n) path the next update rewrites. Iteration is in ascending
    key order, which for monotonically assigned rowids is insertion
    order. *)

type 'a t

val empty : 'a t

val cardinal : 'a t -> int
(** O(1): the count is cached alongside the root. *)

val add : int -> 'a -> 'a t -> 'a t
(** Insert or replace. *)

val add_new : int -> 'a -> 'a t -> 'a t
(** [add] for a key known to be unbound, without the membership probe
    that keeps the count right. Binding a key already present makes the
    count wrong. *)

val remove : int -> 'a t -> 'a t

val find_opt : int -> 'a t -> 'a option

val mem : int -> 'a t -> bool

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Ascending key order. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : (int -> 'a -> bool) -> 'a t -> 'a t

val bindings : 'a t -> (int * 'a) list
(** Ascending key order. *)

val of_list : (int * 'a) list -> 'a t

val root_eq : 'a t -> 'a t -> bool
(** Physical equality of the underlying roots: [true] means the two
    values are guaranteed identical (the converse does not hold). Used
    by size accounting to detect shared state cheaply. *)
