(* Cross-shard synchronisation in barriered rounds: global virgin union,
   crash dedup, and — when an exchange is enabled — the bidirectional
   seed/affinity/skeleton exchange (deterministic import order). *)

type exchange = { ex_seeds : bool; ex_affinities : bool }

let exchange_off = { ex_seeds = false; ex_affinities = false }
let exchange_all = { ex_seeds = true; ex_affinities = true }
let exchange_active x = x.ex_seeds || x.ex_affinities

type xseed = {
  xs_tc : Sqlcore.Ast.testcase;
  xs_cov_hash : int64;
  xs_new_branches : int;
  xs_cost : int;
}

type entry =
  | Seed of xseed
  | Affinity of Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t
  | Skeleton of Sqlcore.Ast.stmt

type export = {
  xp_seeds : xseed list;
  xp_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) list;
  xp_skeletons : Sqlcore.Ast.stmt list;
}

let empty_export = { xp_seeds = []; xp_affinities = []; xp_skeletons = [] }

type port = {
  p_export : unit -> export;
  p_import : entry -> unit;
}

(* A shard's round contribution with every dedup key precomputed — the
   affinity index pairs and the printed skeleton SQL are derived by the
   publishing shard {e before} it takes the lock, so the round barrier's
   critical section only does hash-table lookups and list pushes. *)
type staged_publish = {
  sp_shard : int;
  sp_crashes : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
  sp_logic : (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
  sp_seeds : xseed list;
  sp_affinities :
    ((int * int) * (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t)) list;
  sp_skeletons : (string * Sqlcore.Ast.stmt) list;
}

exception Aborted

(* Campaign-wide running totals; [t.frozen] is [t.live] as of the last
   round release. *)
type tally = { rounds : int; execs : int; crashes : int }

type t = {
  lock : Mutex.t;
  virgin : Coverage.Bitmap.t;
  gram_virgin : Coverage.Bitmap.t;
      (* cross-shard union of grammar-rule coverage; empty unless shards
         publish grammar maps (feedback grammar/both) *)
  seen : (string, unit) Hashtbl.t;
  mutable uniques :
    (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
      (* reverse first-published order *)
  mutable n_uniques : int;  (* = List.length uniques, kept O(1) *)
  lseen : (string, unit) Hashtbl.t;
      (* logic-bug signatures (Oracle.Violation.key), deduped like crash
         stacks *)
  mutable logic_uniques :
    (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
      (* reverse first-published order *)
  mutable bug_ids_memo : string list option;
      (* sorted distinct bug ids; invalidated on unique insert *)
  mutable live : tally;  (* sums of published deltas *)
  mutable frozen : tally;
  interval : int;
  metrics : Telemetry.Registry.t;  (* global union of published deltas *)
  exchange : exchange;
  parties : int;
  cond : Condition.t;
  mutable arrived : int;
  mutable generation : int;
  mutable aborted : bool;
  mutable staged : staged_publish list;
      (* this round's publishes, kept sorted by shard id: each shard
         stages exactly once per round, so sorted insertion is a merge
         of already-ordered runs and release needs no sort *)
  store : (int * entry) Reprutil.Vec.t;
      (* canonical exchange log in (round, shard id) order *)
  mutable pull_map : Coverage.Bitmap.t;
      (* global virgin frozen at the last round release: every party of a
         round pulls the same map even if a fast shard already started
         publishing the next round *)
  mutable gram_pull : Coverage.Bitmap.t;
      (* grammar counterpart of [pull_map], frozen at the same instant *)
  seen_seeds : (int64, unit) Hashtbl.t;
  seen_affinities : (int * int, unit) Hashtbl.t;
  seen_skeletons : (string, unit) Hashtbl.t;
  cursors : (int, int) Hashtbl.t;  (* shard id -> store prefix imported *)
}

let default_interval = 4096

let no_tally = { rounds = 0; execs = 0; crashes = 0 }

let create ?(interval = default_interval) ?(exchange = exchange_off) ~parties
    () =
  { lock = Mutex.create ();
    virgin = Coverage.Bitmap.create ();
    gram_virgin = Coverage.Bitmap.create ();
    seen = Hashtbl.create 32;
    uniques = [];
    n_uniques = 0;
    lseen = Hashtbl.create 16;
    logic_uniques = [];
    bug_ids_memo = None;
    live = no_tally;
    frozen = no_tally;
    interval = max 1 interval;
    metrics = Telemetry.Registry.create ();
    exchange;
    parties = max 1 parties;
    cond = Condition.create ();
    arrived = 0;
    generation = 0;
    aborted = false;
    staged = [];
    store = Reprutil.Vec.create ();
    pull_map = Coverage.Bitmap.create ();
    gram_pull = Coverage.Bitmap.create ();
    seen_seeds = Hashtbl.create 64;
    seen_affinities = Hashtbl.create 64;
    seen_skeletons = Hashtbl.create 64;
    cursors = Hashtbl.create 8 }

let interval t = t.interval

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let note_unique t ((crash, _) as u) =
  let key = Triage.stack_key crash in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.uniques <- u :: t.uniques;
    t.n_uniques <- t.n_uniques + 1;
    t.bug_ids_memo <- None
  end

let note_logic t ((violation, _) as u) =
  let key = Oracle.Violation.key violation in
  if not (Hashtbl.mem t.lseen key) then begin
    Hashtbl.replace t.lseen key ();
    t.logic_uniques <- u :: t.logic_uniques
  end

(* --- rounds ------------------------------------------------------------- *)

(* Caller holds the lock. Resolve the round's staged publishes into the
   canonical store, sorted by shard id so the store order — and hence every
   shard's import order — is independent of domain scheduling. Global
   dedup (cov-hash / affinity pair / printed skeleton SQL) is resolved
   here for the same reason: the lowest shard id wins ties, not the
   first to arrive. *)
let release_round t =
  let staged = t.staged in  (* already sorted by shard id at insertion *)
  t.staged <- [];
  List.iter
    (fun sp ->
       List.iter (note_unique t) sp.sp_crashes;
       List.iter (note_logic t) sp.sp_logic;
       if t.exchange.ex_seeds then
         List.iter
           (fun s ->
              if not (Hashtbl.mem t.seen_seeds s.xs_cov_hash) then begin
                Hashtbl.replace t.seen_seeds s.xs_cov_hash ();
                Reprutil.Vec.push t.store (sp.sp_shard, Seed s)
              end)
           sp.sp_seeds;
       if t.exchange.ex_affinities then begin
         List.iter
           (fun (key, (a, b)) ->
              if not (Hashtbl.mem t.seen_affinities key) then begin
                Hashtbl.replace t.seen_affinities key ();
                Reprutil.Vec.push t.store (sp.sp_shard, Affinity (a, b))
              end)
           sp.sp_affinities;
         List.iter
           (fun (key, stmt) ->
              if not (Hashtbl.mem t.seen_skeletons key) then begin
                Hashtbl.replace t.seen_skeletons key ();
                Reprutil.Vec.push t.store (sp.sp_shard, Skeleton stmt)
              end)
           sp.sp_skeletons
       end)
    staged;
  t.pull_map <- Coverage.Bitmap.snapshot t.virgin;
  t.gram_pull <- Coverage.Bitmap.snapshot t.gram_virgin;
  t.frozen <- t.live

let abort t =
  Mutex.lock t.lock;
  t.aborted <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* Insert keeping ascending shard-id order: at most [parties] entries per
   round, each shard once, so this is the merge step of already-ordered
   per-shard runs. *)
let rec insert_staged sp = function
  | [] -> [ sp ]
  | hd :: _ as l when sp.sp_shard <= hd.sp_shard -> sp :: l
  | hd :: tl -> hd :: insert_staged sp tl

(* Caller holds the lock, after the barrier. Fold the round-frozen global
   virgin map back into the shard's own, so branches the campaign already
   knows stop counting as new there, and collect the foreign store
   entries this shard has not imported yet. *)
let pull_locked ?gram t ~shard ~virgin =
  ignore (Coverage.Bitmap.merge ~into:virgin t.pull_map);
  Option.iter
    (fun g -> ignore (Coverage.Bitmap.merge ~into:g t.gram_pull))
    gram;
  let from =
    match Hashtbl.find_opt t.cursors shard with
    | Some i -> i
    | None -> 0
  in
  let n = Reprutil.Vec.length t.store in
  Hashtbl.replace t.cursors shard n;
  let acc = ref [] in
  for i = n - 1 downto from do
    let owner, entry = Reprutil.Vec.get t.store i in
    if owner <> shard then acc := entry :: !acc
  done;
  !acc

let exchange_round ?metrics ?gram ?(crashes_delta = 0) t ~shard ~virgin
    ~triage ~execs_delta ~export =
  (* Everything derivable from shard-private state is prepared before
     the lock: the triage reads, the affinity dedup keys and the printed
     skeleton SQL. The barrier's critical section then only merges and
     pushes. Kinds disabled in the exchange configuration are dropped
     here too, so their keys are never computed ([t.exchange] is
     immutable — reading it unlocked is safe). *)
  let staged =
    { sp_shard = shard;
      (* crashes and logic-bug signatures are staged, not folded, so the
         cross-shard dedup's first-finder attribution is
         scheduling-independent too *)
      sp_crashes = Triage.unique_with_cases triage;
      sp_logic = Triage.unique_logic triage;
      sp_seeds = (if t.exchange.ex_seeds then export.xp_seeds else []);
      sp_affinities =
        (if t.exchange.ex_affinities then
           List.map
             (fun (a, b) ->
                ( ( Sqlcore.Stmt_type.to_index a,
                    Sqlcore.Stmt_type.to_index b ),
                  (a, b) ))
             export.xp_affinities
         else []);
      sp_skeletons =
        (if t.exchange.ex_affinities then
           List.map
             (fun stmt -> (Sqlcore.Sql_printer.stmt stmt, stmt))
             export.xp_skeletons
         else []) }
  in
  locked t (fun () ->
      if t.aborted then raise Aborted;
      t.live <-
        { rounds = t.live.rounds + 1;
          execs = t.live.execs + max 0 execs_delta;
          crashes = t.live.crashes + max 0 crashes_delta };
      Option.iter
        (fun delta -> Telemetry.Registry.merge ~into:t.metrics delta)
        metrics;
      Option.iter
        (fun g -> ignore (Coverage.Bitmap.merge ~into:t.gram_virgin g))
        gram;
      ignore (Coverage.Bitmap.merge ~into:t.virgin virgin);
      t.staged <- insert_staged staged t.staged;
      t.arrived <- t.arrived + 1;
      let gen = t.generation in
      if t.arrived >= t.parties then begin
        release_round t;
        t.arrived <- 0;
        t.generation <- t.generation + 1;
        Condition.broadcast t.cond
      end
      else begin
        while t.generation = gen && not t.aborted do
          Condition.wait t.cond t.lock
        done;
        if t.aborted then raise Aborted
      end;
      if exchange_active t.exchange then pull_locked ?gram t ~shard ~virgin
      else [])

(* Prime a fresh sync with persisted campaign state before any shard
   publishes: merged-in virgin maps stop resurrected coverage counting
   as news, and pre-marked dedup keys keep persisted findings out of the
   unique lists (a resumed campaign reports only what it finds {e after}
   the interruption). *)
let preload ?virgin ?gram ?(crash_keys = []) ?(logic_keys = [])
    ?(seed_hashes = []) ?(affinity_keys = []) ?(skeleton_keys = []) t =
  let load_merge ~into c =
    let tmp = Coverage.Bitmap.create () in
    Coverage.Bitmap.load_compact ~into:tmp c;
    ignore (Coverage.Bitmap.merge ~into tmp)
  in
  locked t (fun () ->
      (match virgin with
       | None -> ()
       | Some c -> load_merge ~into:t.virgin c);
      (match gram with
       | None -> ()
       | Some c -> load_merge ~into:t.gram_virgin c);
      List.iter (fun k -> Hashtbl.replace t.seen k ()) crash_keys;
      List.iter (fun k -> Hashtbl.replace t.lseen k ()) logic_keys;
      List.iter (fun h -> Hashtbl.replace t.seen_seeds h ()) seed_hashes;
      List.iter (fun k -> Hashtbl.replace t.seen_affinities k ())
        affinity_keys;
      List.iter (fun k -> Hashtbl.replace t.seen_skeletons k ())
        skeleton_keys)

(* Seed-only port over a plain seed pool — the exchange capability of the
   conventional baselines. The cursor lives in the closure: exports drain
   pool entries admitted since the last call, and it is re-synced after an
   import so foreign seeds don't echo back out. *)
let seed_port pool =
  let cursor = ref 0 in
  let p_export () =
    let seeds =
      List.map
        (fun s ->
           { xs_tc = s.Seed_pool.sd_tc;
             xs_cov_hash = s.Seed_pool.sd_cov_hash;
             xs_new_branches = s.Seed_pool.sd_new_branches;
             xs_cost = s.Seed_pool.sd_cost })
        (Seed_pool.since pool !cursor)
    in
    cursor := Seed_pool.size pool;
    { empty_export with xp_seeds = seeds }
  in
  let p_import = function
    | Seed x ->
      ignore
        (Seed_pool.add pool ~tc:x.xs_tc ~cov_hash:x.xs_cov_hash
           ~new_branches:x.xs_new_branches ~cost:x.xs_cost);
      cursor := Seed_pool.size pool
    | Affinity _ | Skeleton _ -> ()
  in
  { p_export; p_import }

(* --- aggregate reads -------------------------------------------------- *)

let metrics t = locked t (fun () -> Telemetry.Registry.snapshot t.metrics)

let branches t =
  locked t (fun () -> Coverage.Bitmap.count_nonzero t.pull_map)

let grammar_counts t =
  locked t (fun () ->
      ( Coverage.Grammar.rules t.gram_virgin,
        Coverage.Grammar.pairs t.gram_virgin ))

let execs_seen t = locked t (fun () -> t.frozen.execs)

let total_crashes t = locked t (fun () -> t.frozen.crashes)

let rounds t = locked t (fun () -> t.frozen.rounds)

let exchanged t = locked t (fun () -> Reprutil.Vec.length t.store)

let unique_crashes t = locked t (fun () -> List.rev t.uniques)

let unique_count t = locked t (fun () -> t.n_uniques)

let unique_logic t = locked t (fun () -> List.rev t.logic_uniques)

let bug_ids t =
  locked t (fun () ->
      match t.bug_ids_memo with
      | Some ids -> ids
      | None ->
        let ids =
          List.sort_uniq String.compare
            (List.map
               (fun ((c : Minidb.Fault.crash), _) ->
                  c.c_bug.Minidb.Fault.bug_id)
               t.uniques)
        in
        t.bug_ids_memo <- Some ids;
        ids)
