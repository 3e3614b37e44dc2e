(** Advisory file locks for multi-process store coordination
    (DESIGN.md §17).

    Thin, safe wrapper over [Unix.lockf] whole-file record locks.
    Workers take {e shared} locks as read-marks on the store generation
    they are parsing; the coordinator takes {e exclusive} locks while
    promoting worker generations and probes read-marks with
    {!is_locked} before pruning. Two POSIX pitfalls are handled here so
    callers never see them: locks are invisible to [F_TEST] within the
    owning process (a process-local held-paths table answers first),
    and closing any descriptor of a locked file drops the process's
    locks on it (probes never open a path this process holds; each held
    lock owns its descriptor until {!release}).

    Lock files are created on demand (0644, parent directories made as
    needed); their contents are never read — only the lock state
    matters. *)

type kind = Shared | Exclusive

type t
(** A held lock. Not released by the GC — callers must {!release}
    (process exit releases too, which is what makes a SIGKILLed
    worker's read-marks disappear rather than wedge pruning). *)

val acquire : kind:kind -> string -> t
(** Take a lock on [path], waiting while another process holds a
    conflicting one. Shared locks admit other shared holders and
    exclude exclusive ones. *)

val release : t -> unit
(** Release and close. Idempotence is not promised — release once. *)

val with_exclusive : string -> (unit -> 'a) -> 'a
(** Blocking exclusive lock around a critical section; always
    released, even on exceptions. *)

val is_locked : string -> bool
(** Would an exclusive lock on [path] conflict right now — i.e. does
    any process (including this one) hold it? False for a missing
    file. *)
