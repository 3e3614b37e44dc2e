(** Farm specifications and the campaign fuzzer factory.

    A farm spec is the JSON file [legofuzz farm] consumes: a list of
    campaigns (fuzzer × dialect × feedback × budget, plus optional
    planted quirks) and the global round/budget/worker knobs. The
    fuzzer factory here is the one the CLI's [fuzz] subcommand also
    uses — one place validates fuzzer names and assembles harnesses, so
    a store's [meta.json] round-trips into exactly the fuzzer it came
    from. *)

type policy = Bandit | Round_robin

val policy_to_string : policy -> string

type t = {
  fs_campaigns : Store.campaign list;
  fs_total_execs : int;   (** farm-wide execution budget *)
  fs_round_execs : int;   (** budget reallocated per scheduler round *)
  fs_workers : int;       (** domain pool size *)
  fs_policy : policy;
  fs_ucb_c : float;       (** UCB1 exploration constant *)
}

val of_json : Telemetry.Json.t -> (t, string) result
(** Parse and validate a farm spec. Campaign fields: [id] (required,
    [A-Za-z0-9._-]), [fuzzer] (required), [dialect] (required),
    [budget] (required), [quirks] (default none), [feedback] (default
    edges), [oracles] (default false), [exec_cache] (default 0), [seed]
    (default 1). Top-level: [campaigns] (required, ids unique),
    [total_execs] (required), [round_execs] (default 4096), [workers]
    (default 2), [policy] (default bandit), [ucb_c] (default 0.5).
    Unknown fuzzer/dialect names are rejected here, not at run time. *)

val of_string : string -> (t, string) result
(** {!of_json} on the JSON text of a spec file. *)

val to_json : t -> Telemetry.Json.t
(** Inverse of {!of_json} (explicit defaults included). *)

val valid_id : string -> bool
(** Filesystem-safe campaign id: nonempty, [A-Za-z0-9._-] only, does
    not start with a dot. *)

val profile : Store.campaign -> (Minidb.Profile.t, string) result
(** Resolve [sc_dialect] through {!Dialects.Registry.by_name} and apply
    [sc_quirks]. *)

val fuzzer_factory :
  ?oracles:bool ->
  ?exec_cache:int ->
  ?feedback:Fuzz.Harness.feedback ->
  name:string ->
  profile:Minidb.Profile.t ->
  seed:int ->
  unit ->
  (int -> Fuzz.Driver.fuzzer, string) result
(** Validate the fuzzer name up front and return a shard factory
    ([shard_id -> fuzzer]); construction is deferred so the campaign
    engine can run it inside the shard's domain. Known names: lego,
    lego- (alias lego_minus), squirrel, sqlancer, sqlsmith. With
    [oracles], each shard's harness gets its own oracle suite (suites
    hold replay state and must stay domain-private). *)

val make : campaign:Store.campaign -> seed:int ->
  (int -> Fuzz.Driver.fuzzer, string) result
(** {!fuzzer_factory} driven entirely by a campaign record, except the
    RNG [seed] — resume passes an epoch-derived one. *)

val epoch_seed : campaign:Store.campaign -> epoch:int -> int
(** [sc_seed + epoch * 7_368_787]: the RNG seed for a campaign's Nth
    epoch, so each resume continues on a fresh deterministic stream
    instead of replaying the interrupted epoch's decisions. Epoch 0 is
    the campaign seed itself. *)
