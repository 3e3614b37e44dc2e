(** The full LEGO fuzzing loop (paper Fig. 4).

    Each iteration interleaves the two steps:

    {ol
    {- {b Proactive affinity analysis}: pick a seed, apply
       sequence-oriented mutation (Algorithm 1); mutants that cover new
       branches are kept, their structures harvested into the skeleton
       library, and their type-affinities extracted (Algorithm 2);}
    {- {b Progressive sequence synthesis}: each newly discovered affinity
       triggers Algorithm 3, whose sequences are instantiated into test
       cases and queued for execution; productive ones re-enter the seed
       pool.}}

    Conventional intra-statement mutations run on top, as in the paper.
    With [sequence_oriented = false] both sequence-oriented steps are
    disabled and only conventional mutation remains — this is the paper's
    {b LEGO-} ablation (§V-D). *)

type config = {
  seed : int;                    (** PRNG seed *)
  sequence_oriented : bool;      (** [false] = LEGO- *)
  max_seq_len : int;             (** Algorithm 3's LEN (paper §VI: 3/5/8) *)
}

val default_config : config
(** seed 1, sequence-oriented, LEN 5. The per-iteration batch sizes
    and the synthesized-sequence reservoir bound are constants of the
    implementation. *)

type t

val create :
  ?config:config ->
  ?harness:Fuzz.Harness.t ->
  Minidb.Profile.t ->
  t
(** [?harness] injects the execution harness (e.g. a shard-owned one from
    the campaign engine) instead of constructing a fresh one. *)

val fuzzer : t -> Fuzz.Driver.fuzzer
(** Driver-compatible view (name is ["LEGO"] or ["LEGO-"]). *)

val affinities : t -> Affinity.t
(** The live affinity map (Tables II and IV count it). *)

val synthesized_total : t -> int
(** Sequences recorded by Algorithm 3 so far. *)

val skeletons : t -> Skeleton_library.t

val pool_size : t -> int
