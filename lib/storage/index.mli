(** Ordered multimap from composite value keys to row ids — the backing
    structure for secondary indexes. It enforces nothing: the executor
    checks UNIQUE and PRIMARY KEY through {!Table.find_key}; a unique
    index only keeps the first row of a repeated key out of its map. *)

module Key : sig
  type t = Value.t list

  val compare : t -> t -> int
  (** Lexicographic {!Value.compare_total}. *)
end

type t

val create : unique:bool -> t

val unique : t -> bool

val add : t -> Value.t list -> int -> [ `Ok | `Dup of int ]
(** Insert a (key, rowid) pair. On a unique index, a key that is already
    present (and contains no NULL component) yields [`Dup existing_rowid]
    and the index is unchanged. NULL components never collide, matching
    SQL unique-constraint semantics. *)

val remove : t -> Value.t list -> int -> unit

val find : t -> Value.t list -> int list
(** Row ids with exactly this key. *)

val find_range :
  t -> lo:Value.t list option -> hi:Value.t list option -> int list
(** Row ids whose key is within [lo..hi] (inclusive, lexicographic). *)

val length : t -> int
(** Number of distinct keys. *)

val copy : t -> t
(** Independent copy: mutations of either side never affect the other.
    O(1) — the underlying map is persistent. *)
