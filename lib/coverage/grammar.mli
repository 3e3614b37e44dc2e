(** Slot layout for grammar-rule coverage.

    The parser records fired productions into a second {!Bitmap}
    (separate from the edge map, so grammar slots can never collide with
    edge slots). The map's lower half holds one cell per production site
    — the cell index {e is} the {!Sites} id, injective by construction —
    and the upper half holds rule {e pairs} (production × parent
    production), spread by the avalanching {!Bitmap.mix}. Both families
    share the edge map's merge/diff/snapshot/compact algebra, so shards
    union grammar coverage with the very same [Bitmap.merge] the
    campaign engine already uses for edges. *)

val record : Bitmap.t -> site:int -> parent:int -> unit
(** Fire production [site] under [parent]: hits both the rule cell and
    the pair cell. *)

(** {2 Traces}

    A trace holds the cells two runs of [record] calls hit, packed into
    a string; replaying a run leaves a map exactly as its calls did —
    cell values, touch order and saturation alike. *)

type log
(** A growable scratch buffer that [record_logged] appends to. *)

val log_create : unit -> log

val log_length : log -> int
(** Bytes logged so far: marks where the next record lands. *)

val log_clear : log -> unit

val record_logged : Bitmap.t -> log -> site:int -> parent:int -> unit
(** [record], also appending the two cells it hit to the log. *)

val trace_of_log : log -> first:int * int -> second:int * int -> string
(** The trace of two runs, each given as the [(pos, len)] byte span of
    the log its records filled. *)

val replay_first : Bitmap.t -> string -> unit
(** Hit, in order, every cell of a trace's first run. *)

val replay_second : Bitmap.t -> string -> unit
(** Hit, in order, every cell of a trace's second run. *)

val rules : Bitmap.t -> int
(** Distinct productions fired. *)

val pairs : Bitmap.t -> int
(** Distinct (production, parent) pairs fired. *)
