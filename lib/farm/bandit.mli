(** UCB1 budget allocation across farm campaigns (DESIGN.md §16).

    Each farm campaign is an arm; each scheduler round splits its
    execution budget into slices and deals every slice to the arm with
    the highest upper confidence bound. Rewards are new-coverage-keys
    per allocated execution (the scheduler's definition), normalised by
    the best observed mean so the exploration term keeps a stable scale
    as absolute yields decay over a campaign's life.

    The bandit is deliberately RNG-free: scores are pure functions of
    the committed pull counts and reward sums, ties break towards the
    lowest arm index, and {!allocate}'s within-call provisional pulls
    make repeated slices spread deterministically. Two bandits fed the
    same update sequence allocate identically — the farm's determinism
    story rests on this. *)

type t

val create : ?c:float -> arms:int -> unit -> t
(** [arms] ≥ 1 arms, exploration constant [c] (default 0.5; 0 = pure
    exploitation after each arm's first pull). *)

val allocate :
  t -> budget:int -> active:bool array -> int array * int array
(** [allocate t ~budget ~active] deals [budget] executions to the active
    arms and returns [(execs, pulls)] per arm. The budget is cut into
    [max 4 (2 * active arms)] near-equal slices (clamped to ≤ budget so
    no slice is empty); each slice goes to the
    active arm maximising [mean/best_mean + c * sqrt (2 ln N / n)], with
    never-pulled arms scoring +∞ (forced exploration) and ties breaking
    to the lowest index. Within the call each dealt slice provisionally
    increments the winner's pull count, so consecutive slices spread
    instead of piling onto one arm.

    Conservation: the returned [execs] sum to exactly [budget] whenever
    at least one arm is active (and to 0 otherwise). Nothing is
    committed — feed the outcome back with {!update}, passing the
    returned [pulls]. *)

val update : t -> arm:int -> pulls:int -> reward:float -> unit
(** Commit a round's outcome for one arm: [pulls] pull-count increments
    (the slices the arm was dealt) at mean reward [reward]. Arms that
    were allocated but died before reporting simply never update — mark
    them inactive instead. *)
