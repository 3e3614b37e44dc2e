(** Global registry of named coverage probe sites.

    Each instrumented branch point in MiniDB registers a stable name once
    at module initialisation ([let s = Sites.register "exec.select.sort"])
    and then fires [Bitmap.probe ~site:s ~key] during execution. Names make
    coverage reports and debugging legible.

    Sites live in {e families}, each with its own independent id
    sequence: the default {!edges} family holds the engine's edge
    probes, the {!grammar} family the parser's production and
    token-class sites. Separate sequences keep edge ids stable when
    grammar instrumentation grows (and vice versa) — registering a new
    parser production must never re-alias recorded edge coverage.

    Registration is not thread-safe: all sites must be registered at
    module initialisation, before campaign domains spawn. *)

type family

val edges : family
(** The engine edge-probe family; {!register}/{!count}/{!name_of}/{!all}
    are shorthands over it. *)

val grammar : family
(** Parser grammar-rule and lexer token-class sites. Ids index the rule
    region (the lower half) of the grammar bitmap directly, so this
    family's domain is [Bitmap.size / 2]. *)

val make_family : label:string -> limit:int -> family
(** A fresh family with its own id sequence, capped at [limit] ids.
    {!edges} and {!grammar} are the two the fuzzer uses; private
    families serve tests and tools that must not touch global state. *)

val register_in : family -> string -> int
(** Idempotent: registering the same name twice returns the same id.
    @raise Invalid_argument when the family would exceed its bitmap
    domain — site ids index bitmap cells directly, so overflowing
    would silently alias earlier sites. *)

val count_in : family -> int

val register : string -> int
(** [register_in edges]. *)

val count : unit -> int
(** Number of registered edge sites. *)

val name_of : int -> string option

val all : unit -> (int * string) list
(** All registered edge sites, by id. *)
