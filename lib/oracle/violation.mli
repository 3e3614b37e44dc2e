(** A logic-bug finding: one oracle's verdict that two executions which
    must agree did not.

    Unlike a {!Minidb.Fault.crash} there is no synthetic stack;
    deduplication is by oracle name plus plan-shape tag ({!key}), the
    logic-bug analogue of [Triage.stack_key]. *)

type t = {
  vi_oracle : string;
      (** ["diff_plan"], ["tlp"], ["rewrite"] or ["isolation"] *)
  vi_tag : string;     (** plan-shape tag: dedup key component *)
  vi_detail : string;  (** human-readable description of the divergence *)
  vi_sql : string;     (** the offending statement, printed *)
}

val key : t -> string
(** Canonical dedup key: [oracle ^ "#" ^ tag]. Two violations with equal
    keys are the same logic-bug signature, in a shard's [Fuzz.Triage]
    and in the campaign's alike. *)

val pp : Format.formatter -> t -> unit
