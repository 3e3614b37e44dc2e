(* Cross-shard synchronisation between fork-join rounds: global virgin
   union, crash dedup, and — when an exchange is enabled — the
   bidirectional seed/affinity/skeleton exchange (deterministic import
   order). A plain value: shards stage in their jobs, the campaign
   releases between rounds, shards pull in their next jobs. *)

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

(* A shard's round contribution with every dedup key precomputed: the
   affinity index pairs and the printed skeleton SQL are derived inside
   the shard's job, so {!release} only does hash-table lookups and list
   pushes. The maps are references to the shard's own, read at release. *)
type staged = {
  sp_shard : int;
  sp_virgin : Coverage.Bitmap.t;
  sp_gram : Coverage.Bitmap.t option;
  sp_metrics : Telemetry.Registry.t option;
  sp_execs : int;
  sp_crashes_total : int;
  sp_crashes : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
  sp_logic : (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
  sp_seeds : xseed list;
  sp_affinities :
    ((int * int) * (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t)) list;
  sp_skeletons : (string * Sqlcore.Ast.stmt) list;
}

type t = {
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
  mutable rounds : int;  (* shard publishes released so far *)
  mutable execs : int;
  mutable crashes : int;
  interval : int;
  metrics : Telemetry.Registry.t;  (* global union of published deltas *)
  exchange : bool;
  store : (int * entry) Reprutil.Vec.t;
      (* canonical exchange log in (round, shard id) order *)
  seen_seeds : (int64, unit) Hashtbl.t;
  seen_affinities : (int * int, unit) Hashtbl.t;
  seen_skeletons : (string, unit) Hashtbl.t;
  mutable cursors : int array;
      (* shard id -> store prefix imported; one slot per shard, so
         concurrent pulls of distinct shards write distinct cells *)
}

let default_interval = 4096

let create ?(interval = default_interval) ?(exchange = false) () =
  { virgin = Coverage.Bitmap.create ();
    gram_virgin = Coverage.Bitmap.create ();
    seen = Hashtbl.create 32;
    uniques = [];
    n_uniques = 0;
    lseen = Hashtbl.create 16;
    logic_uniques = [];
    bug_ids_memo = None;
    rounds = 0;
    execs = 0;
    crashes = 0;
    interval = max 1 interval;
    metrics = Telemetry.Registry.create ();
    exchange;
    store = Reprutil.Vec.create ();
    seen_seeds = Hashtbl.create 64;
    seen_affinities = Hashtbl.create 64;
    seen_skeletons = Hashtbl.create 64;
    cursors = [||] }

let interval t = t.interval

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

(* Reads only shard-private state and the immutable [t.exchange]. With
   the exchange off nothing crosses, so the exports are dropped here and
   their keys never computed. *)
let stage ?metrics ?gram ?(crashes_delta = 0) t ~shard ~virgin ~triage
    ~execs_delta ~export =
  let crossing = if t.exchange then export else empty_export in
  { sp_shard = shard;
    sp_virgin = virgin;
    sp_gram = gram;
    sp_metrics = metrics;
    sp_execs = max 0 execs_delta;
    sp_crashes_total = max 0 crashes_delta;
    sp_crashes = Triage.unique_with_cases triage;
    sp_logic = Triage.unique_logic triage;
    sp_seeds = crossing.xp_seeds;
    sp_affinities =
      List.map
        (fun (a, b) ->
           ( (Sqlcore.Stmt_type.to_index a, Sqlcore.Stmt_type.to_index b),
             (a, b) ))
        crossing.xp_affinities;
    sp_skeletons =
      List.map
        (fun stmt -> (Sqlcore.Sql_printer.stmt stmt, stmt))
        crossing.xp_skeletons }

(* Folding in array order is what makes first-finder attribution, the
   canonical store order and hence every shard's import order a function
   of the shard ids alone: the lowest shard id wins ties. *)
let release t staged =
  let need =
    Array.fold_left (fun m sp -> max m (sp.sp_shard + 1)) 0 staged
  in
  let have = Array.length t.cursors in
  if need > have then
    t.cursors <-
      Array.init need (fun i -> if i < have then t.cursors.(i) else 0);
  Array.iter
    (fun sp ->
       t.rounds <- t.rounds + 1;
       t.execs <- t.execs + sp.sp_execs;
       t.crashes <- t.crashes + sp.sp_crashes_total;
       Option.iter
         (fun delta -> Telemetry.Registry.merge ~into:t.metrics delta)
         sp.sp_metrics;
       Option.iter
         (fun g -> ignore (Coverage.Bitmap.merge ~into:t.gram_virgin g))
         sp.sp_gram;
       ignore (Coverage.Bitmap.merge ~into:t.virgin sp.sp_virgin);
       List.iter (note_unique t) sp.sp_crashes;
       List.iter (note_logic t) sp.sp_logic;
       List.iter
         (fun s ->
            if not (Hashtbl.mem t.seen_seeds s.xs_cov_hash) then begin
              Hashtbl.replace t.seen_seeds s.xs_cov_hash ();
              Reprutil.Vec.push t.store (sp.sp_shard, Seed s)
            end)
         sp.sp_seeds;
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
         sp.sp_skeletons)
    staged

(* Reads the global maps and the store, writes only the shard's own maps
   and cursor slot: safe to run for distinct shards at once. *)
let pull ?gram t ~shard ~virgin =
  if not t.exchange then []
  else begin
    ignore (Coverage.Bitmap.merge ~into:virgin t.virgin);
    Option.iter
      (fun g -> ignore (Coverage.Bitmap.merge ~into:g t.gram_virgin))
      gram;
    let from = t.cursors.(shard) in
    let n = Reprutil.Vec.length t.store in
    t.cursors.(shard) <- n;
    let acc = ref [] in
    for i = n - 1 downto from do
      let owner, entry = Reprutil.Vec.get t.store i in
      if owner <> shard then acc := entry :: !acc
    done;
    !acc
  end

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
  Option.iter (load_merge ~into:t.virgin) virgin;
  Option.iter (load_merge ~into:t.gram_virgin) gram;
  List.iter (fun k -> Hashtbl.replace t.seen k ()) crash_keys;
  List.iter (fun k -> Hashtbl.replace t.lseen k ()) logic_keys;
  List.iter (fun h -> Hashtbl.replace t.seen_seeds h ()) seed_hashes;
  List.iter (fun k -> Hashtbl.replace t.seen_affinities k ()) affinity_keys;
  List.iter (fun k -> Hashtbl.replace t.seen_skeletons k ()) skeleton_keys

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

let metrics t = Telemetry.Registry.snapshot t.metrics

let branches t = Coverage.Bitmap.count_nonzero t.virgin

let grammar_counts t =
  (Coverage.Grammar.rules t.gram_virgin, Coverage.Grammar.pairs t.gram_virgin)

let execs_seen t = t.execs

let total_crashes t = t.crashes

let rounds t = t.rounds

let exchanged t = Reprutil.Vec.length t.store

let unique_crashes t = List.rev t.uniques

let unique_count t = t.n_uniques

let unique_logic t = List.rev t.logic_uniques

let bug_ids t =
  match t.bug_ids_memo with
  | Some ids -> ids
  | None ->
    let ids =
      List.sort_uniq String.compare
        (List.map
           (fun ((c : Minidb.Fault.crash), _) -> c.c_bug.Minidb.Fault.bug_id)
           t.uniques)
    in
    t.bug_ids_memo <- Some ids;
    ids
