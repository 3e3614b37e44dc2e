(** A DBMS profile: which statement types a simulated DBMS supports, its
    behavioural flavour, and its seeded bug registry, compiled into a
    {!Fault.checker} when the profile is made.

    Concrete profiles (PostgreSQL-sim, MySQL-sim, MariaDB-sim, Comdb2-sim)
    are defined in the [dialects] library; the engine only needs this
    record. *)

type flavor = Pg | Mysql | Mariadb | Comdb2

type t

val make :
  name:string ->
  flavor:flavor ->
  types:Sqlcore.Stmt_type.t list ->
  bugs:Fault.bug list ->
  t

val name : t -> string

val flavor : t -> flavor

val types : t -> Sqlcore.Stmt_type.t list

val type_count : t -> int

val bugs : t -> Fault.bug list

val checker : t -> Fault.checker
(** {!bugs} compiled once, when the profile is made: the engine's
    per-statement fault check. *)

val supports : t -> Sqlcore.Stmt_type.t -> bool
(** O(1); unsupported statement types are rejected by the engine with a
    [Not_supported] error, like a real parser rejecting foreign syntax. *)

val with_quirks : t -> string list -> t
(** The same profile with the named quirks active. Quirks are deliberate
    behavioural deviations the executor honours — test-only planted logic
    bugs for the oracle layer (["index_eq_skips_first"],
    ["rule_rewrite_noop"]); every shipped dialect has none. *)

val quirk : t -> string -> bool
(** Is the named quirk active in this profile? *)

val quirks : t -> string list

val without_bugs : t -> t
(** The same profile with an empty bug registry — the fault-free replay
    profile the logic-bug oracles execute against ({!Fault.Crashed} can
    never fire). Quirks are preserved: a planted logic bug must stay
    visible to the oracle replay. *)
