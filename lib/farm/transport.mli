(** The farm worker control protocol (DESIGN.md §17).

    Line-framed JSON over a worker's stdin/stdout: the coordinator
    writes one {!command} per line to the worker's stdin; the worker
    writes one {!message} per line to its stdout. Rendering is the
    canonical {!Telemetry.Json} single-line form, so framing is exactly
    "one [\n]-terminated JSON object", and both codecs are total: any
    line decodes to [Ok] or a descriptive [Error], never an exception —
    the coordinator treats a decode error as grounds to quarantine the
    worker, not to abort the farm.

    The encode/decode pair round-trips structurally:
    [message_of_line (message_to_line m) = Ok m] for every [m] (and
    likewise for commands) — property-tested over 1000 cases. *)

type command =
  | Run of {
      rc_campaign : string;  (** campaign id; the store names the rest *)
      rc_execs : int;        (** the round's execution budget *)
      rc_round : int;        (** coordinator round number, echoed back *)
    }
  | Shutdown

type round_report = {
  rr_campaign : string;
  rr_round : int;
  rr_allocated : int;      (** execs the coordinator dealt this round *)
  rr_executed : int;       (** execs actually performed *)
  rr_execs_done : int;     (** cumulative, including prior store state *)
  rr_branches : int;
  rr_coverage_keys : int;  (** branches + grammar cells after the round *)
  rr_new_keys : int;       (** coverage-key delta this round — the
                               coordinator's bandit reward *)
  rr_crashes_total : int;  (** crash occurrences, duplicates included *)
  rr_crashes_unique : int; (** preloaded keys excluded *)
  rr_logic_unique : int;
  rr_bugs : string list;
  rr_generation : int;     (** worker-namespace generation written
                               ([gen-NNNNNN.wK]); 0 when the save failed *)
  rr_finished : bool;      (** campaign budget exhausted *)
  rr_reloads : int;        (** full store reloads this round (0 or 1) *)
  rr_reload_skipped : int; (** reloads skipped by the manifest-digest
                               short-circuit (0 or 1) *)
  rr_error : string option;  (** stalled / died; the arm is retired *)
}

type message =
  | Hello of { h_worker : int; h_pid : int }
  | Heartbeat of { hb_worker : int; hb_execs : int }
      (** liveness, emitted between execution sub-slices mid-round *)
  | Round of round_report
  | Fatal of string
      (** the worker cannot continue (bad command, setup failure) *)

val command_to_line : command -> string
(** One line, no trailing newline. *)

val command_of_line : string -> (command, string) result

val message_to_line : message -> string

val message_of_line : string -> (message, string) result
