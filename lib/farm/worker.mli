(** One campaign slice and the farm worker process (DESIGN.md §16–17).

    A {e slice} is one round of one campaign: run the allocated
    executions, snapshot the campaign into a new store generation and
    report it as a {!Transport.round_report}. Both farm backends run
    every round through {!run_slice} — the in-process domain pool on
    live states it opened at farm start, the [legofuzz worker] process
    on states it loads from the campaign store.

    [legofuzz worker] (hidden) runs {!serve} over its stdin/stdout: the
    coordinator writes {!Transport.command} lines, the worker answers
    with {!Transport.message} lines — Hello on startup, Heartbeats
    between execution sub-slices, one Round report per Run command.

    Worker state: one live fuzzer per campaign it has served. Each Run
    probes the campaign store's newest plain generation's manifest
    digests ({!Store.manifest_digests}); when they match what the live
    fuzzer descends from — the common case once the coordinator
    dispatches with campaign affinity, since promoting a worker
    generation by rename keeps its digests — the reload is skipped and
    the epoch keeps running ([rr_reload_skipped = 1]). Otherwise the
    store moved (another worker promoted news) and the worker pays for a
    full {!Store.load_marked} + preload on a fresh epoch stream
    ([rr_reloads = 1]).

    Worker results are persisted into the worker's generation namespace
    ([gen-NNNNNN.wK]) — complete but invisible to loaders until the
    coordinator {!Store.promote}s them, so concurrent workers never
    contend on section files. *)

val coverage_keys : Fuzz.Driver.fuzzer -> int
(** The farm's reward signal: edge branches + nonzero grammar-virgin
    cells of the fuzzer's harness. *)

(** A campaign's live state: its fuzzer plus the store accumulator its
    slices snapshot from. *)
type live = {
  lv_campaign : Store.campaign;
  lv_fuzzer : Fuzz.Driver.fuzzer;
  lv_acc : Store.acc;
  lv_prior_execs : int;  (** execs_done carried in from the store *)
  lv_epoch : int;
  mutable lv_keys : int;  (** coverage keys after the last slice *)
  mutable lv_error : string option;  (** set by a stalled / dead slice *)
}

val open_campaign :
  ?snapshot:Store.snapshot -> Store.campaign -> (live, string) result
(** Build a campaign fresh, or from [snapshot] (learned state
    preloaded, {!Resume.preload_fuzzer}). A snapshot with history
    resumes on the next epoch's RNG stream; one without (no execs,
    epoch 0) starts on epoch 0 like a fresh campaign. [Error] when the
    fuzzer or dialect is unknown. *)

val run_slice :
  ?worker:int ->
  ?heartbeat:int * (execs:int -> unit) ->
  dir:string ->
  live ->
  execs:int ->
  round:int ->
  Transport.round_report
(** Run [execs] executions, then save a generation under store [dir]
    (into [worker]'s namespace when given, else a plain, pruning save)
    and report it. [heartbeat = (n, f)] calls [f] after every [n]
    executions with the slice's running count. Never raises: stalls and
    engine faults retire the campaign through [lv_error] /
    [rr_error]; a failed save reports generation 0. The reload counters
    are 0. *)

type t

val create :
  ?runs_dir:string ->
  ?heartbeat_execs:int ->
  ?heartbeat:(execs:int -> unit) ->
  worker:int ->
  unit ->
  t
(** A worker serving slot [worker]. [heartbeat] is invoked after every
    [heartbeat_execs] (default 500) executions mid-round with the
    round's running exec count. *)

val run_round :
  t -> campaign:string -> execs:int -> round:int -> Transport.round_report
(** Serve one Run command: reload-or-reuse the campaign state, then
    {!run_slice} into the worker's namespace. Never raises: load
    failures come back in [rr_error]. *)

val serve :
  ?runs_dir:string -> ?heartbeat_execs:int -> worker:int ->
  in_channel -> out_channel -> unit
(** The protocol loop: emit Hello, then serve Run commands until
    Shutdown, EOF, or a malformed command line (answered with Fatal,
    then exit). [oc] carries protocol lines only. *)
