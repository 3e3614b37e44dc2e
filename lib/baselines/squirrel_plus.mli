(** SQUIRREL+ : the paper's §VI feasibility sketch, implemented.

    "For mutation-based fuzzers, we can add mutation operators under the
    guidance of LEGO's type-affinity." This fuzzer is SQUIRREL-sim plus
    one new operator: insert, after a random statement, a fresh statement
    whose type an {e imported} affinity map (learned by a previous LEGO
    campaign and exported with {!Lego.Affinity.to_string}) says can follow
    it. It cannot {e discover} affinities — it only consumes LEGO's — which
    is the paper's point: the knowledge transfers, the discovery loop does
    not. *)

type t

val create :
  ?seed:int ->
  ?harness:Fuzz.Harness.t ->
  affinities:Lego.Affinity.t ->
  Minidb.Profile.t ->
  t

val fuzzer : t -> Fuzz.Driver.fuzzer
(** Named ["SQUIRREL+"]. *)
