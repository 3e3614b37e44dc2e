(** Fault injection: seeded memory-safety bugs and their triggers.

    The paper finds real ASan-detected bugs; a simulated DBMS has none, so
    we seed a registry of bugs whose triggers are predicates over the
    executed {e SQL Type Sequence window} plus engine state — mirroring the
    paper's finding that the bugs hide behind unexpected type sequences
    (e.g. Fig. 7's [CREATE RULE -> NOTIFY -> COPY -> WITH] SEGV). The
    engine evaluates every registered bug after each statement; a match
    raises {!Crashed} with a synthetic call stack used for
    deduplication, the analogue of an ASan report.

    Conditions are data ({!cond}); a profile {!compile}s its bug list
    once into a {!checker}, and the per-statement {!check} runs that.
    The check costs 0.2–0.6 µs per statement, depending on the dialect's
    bug count (DESIGN.md §19). *)

(** Bug kinds of Table I. *)
type kind =
  | Uaf   (** use-after-free *)
  | Bof   (** buffer overflow *)
  | Sbof  (** stack buffer overflow *)
  | Hbof  (** heap buffer overflow *)
  | Af    (** assertion failure *)
  | Segv  (** segmentation violation *)
  | Uap   (** use-after-poison *)
  | Npd   (** null pointer dereference *)
  | Ub    (** undefined behaviour *)

val kind_name : kind -> string
(** Short display name, e.g. ["SEGV"]. *)

val kind_of_name : string -> kind option

(** Features of the currently executing statement that triggers may
    require, computed from its AST. *)
type stmt_feature =
  | F_window      (** contains a window function *)
  | F_subquery
  | F_aggregate
  | F_group_by
  | F_order_by
  | F_join
  | F_distinct
  | F_having
  | F_ignore      (** INSERT IGNORE flag *)
  | F_compound    (** UNION / INTERSECT / EXCEPT *)
  | F_where
  | F_offset      (** has an OFFSET clause *)
  | F_limit

(** Trigger condition DSL. *)
type cond =
  | Subseq of Sqlcore.Stmt_type.t list
      (** the listed types occur contiguously, in order, somewhere in the
          recent type window (which ends at the current statement) *)
  | Ends_with of Sqlcore.Stmt_type.t list
      (** the window ends with exactly these types *)
  | State of string
      (** a named engine predicate holds (see {!Engine} docs) *)
  | Stmt_has of stmt_feature
  | All of cond list
  | Any of cond list
  | Not of cond

type bug = {
  bug_id : string;        (** stable internal id, unique per dialect *)
  identifier : string;    (** public identifier: CVE / MDEV / BUG number *)
  component : string;     (** DBMS component of Table I *)
  kind : kind;
  cond : cond;
}

type crash = {
  c_bug : bug;
  c_stack : string list;  (** synthetic call stack for deduplication *)
}

exception Crashed of crash

type window = private int
(** Recent statement types, oldest first, current last: at most
    {!window_cap} of them packed into one immediate, so a push and a
    read of the current type are O(1) and allocate nothing. *)

val window_cap : int
(** 8 *)

val empty_window : window

val push_window : window -> Sqlcore.Stmt_type.t -> window
(** Append a type; past {!window_cap} the oldest drops out. *)

val last_index : window -> int
(** [Stmt_type.to_index] of the current (last) type; [-1] when empty. *)

val window_length : window -> int

val window_of_list : Sqlcore.Stmt_type.t list -> window
(** The last {!window_cap} types of the list. *)

val window_to_list : window -> Sqlcore.Stmt_type.t list

(** Context a trigger is evaluated against. *)
type ctx = {
  window : window;
  stmt : Sqlcore.Ast.stmt;
  state : string -> bool;
}

val features_of_stmt : Sqlcore.Ast.stmt -> stmt_feature list
(** The statement's features, in declaration order of {!stmt_feature}. *)

type checker
(** A bug list compiled for checking: statement types become dense
    indices, every [Subseq] carries the presence mask of its types (a
    window lacking one is rejected with one [land]), and the conjuncts
    of [All]/[Any] run window tests first, then [ctx.state], then
    statement features. Features are computed at most once per check,
    and only when a condition reaches one. Conditions are pure, so none
    of this changes which bug matches. *)

val compile : bug list -> checker
(** Done once per profile ({!Profile.make}), never per statement. *)

val check : checker -> ctx -> unit
(** Raise {!Crashed} for the first bug, in list order, whose condition
    holds, if any. The engine runs it after every statement; short of a
    crash it allocates one small record. *)

val stack_of_bug : bug -> string list
(** Deterministic synthetic stack derived from the bug identity. *)

val pp_crash : Format.formatter -> crash -> unit
