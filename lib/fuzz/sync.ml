(* Cross-shard synchronisation between fork-join rounds: global virgin
   union, finding dedup (one campaign-level Triage.t), and — when an
   exchange is enabled — the bidirectional seed/affinity/skeleton
   exchange (deterministic import order, deduplicated by [key]). A plain
   value: shards stage in their jobs, the campaign releases between
   rounds, shards pull in their next jobs. *)

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

type key =
  | K_seed of int64
  | K_affinity of int * int
  | K_skeleton of string

let key = function
  | Seed s -> K_seed s.xs_cov_hash
  | Affinity (a, b) ->
    K_affinity (Sqlcore.Stmt_type.to_index a, Sqlcore.Stmt_type.to_index b)
  | Skeleton stmt -> K_skeleton (Sqlcore.Sql_printer.stmt stmt)

let entries xp =
  List.map (fun s -> Seed s) xp.xp_seeds
  @ List.map (fun (a, b) -> Affinity (a, b)) xp.xp_affinities
  @ List.map (fun st -> Skeleton st) xp.xp_skeletons

(* A shard's round contribution with every dedup key precomputed inside
   the shard's job, so {!release} only does hash-table lookups and list
   pushes. The maps are references to the shard's own, read at release. *)
type staged = {
  sp_shard : int;
  sp_virgin : Coverage.Bitmap.t;
  sp_gram : Coverage.Bitmap.t option;
  sp_execs : int;
  sp_crashes_total : int;
  sp_crashes : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
  sp_logic : (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
  sp_entries : (key * entry) list;
}

type t = {
  virgin : Coverage.Bitmap.t;
  gram_virgin : Coverage.Bitmap.t;
      (* cross-shard union of grammar-rule coverage; empty unless shards
         publish grammar maps (feedback grammar/both) *)
  findings : Triage.t;
      (* cross-shard unique crashes and logic findings, first-published
         order; its own totals are unused (see [crashes]) *)
  mutable rounds : int;  (* shard publishes released so far *)
  mutable execs : int;
  mutable crashes : int;
  interval : int;
  exchange : bool;
  store : (int * entry) Reprutil.Vec.t;
      (* canonical exchange log in (round, shard id) order *)
  discovered : (key, unit) Hashtbl.t;  (* keys of [store] and preloads *)
  mutable cursors : int array;
      (* shard id -> store prefix imported; one slot per shard, so
         concurrent pulls of distinct shards write distinct cells *)
}

let default_interval = 4096

let create ?(interval = default_interval) ?(exchange = false) () =
  { virgin = Coverage.Bitmap.create ();
    gram_virgin = Coverage.Bitmap.create ();
    findings = Triage.create ();
    rounds = 0;
    execs = 0;
    crashes = 0;
    interval = max 1 interval;
    exchange;
    store = Reprutil.Vec.create ();
    discovered = Hashtbl.create 64;
    cursors = [||] }

let interval t = t.interval

(* --- rounds ------------------------------------------------------------- *)

(* Reads only shard-private state and the immutable [t.exchange]. With
   the exchange off nothing crosses, so the exports are dropped here and
   their keys never computed. *)
let stage ?gram ?(crashes_delta = 0) t ~shard ~virgin ~triage
    ~execs_delta ~export =
  let crossing = if t.exchange then export else empty_export in
  { sp_shard = shard;
    sp_virgin = virgin;
    sp_gram = gram;
    sp_execs = max 0 execs_delta;
    sp_crashes_total = max 0 crashes_delta;
    sp_crashes = Triage.unique_with_cases triage;
    sp_logic = Triage.unique_logic triage;
    sp_entries = List.map (fun e -> (key e, e)) (entries crossing) }

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
         (fun g -> ignore (Coverage.Bitmap.merge ~into:t.gram_virgin g))
         sp.sp_gram;
       ignore (Coverage.Bitmap.merge ~into:t.virgin sp.sp_virgin);
       List.iter
         (fun (c, testcase) -> ignore (Triage.record t.findings ?testcase c))
         sp.sp_crashes;
       List.iter
         (fun (v, testcase) ->
            ignore (Triage.record_logic t.findings ?testcase v))
         sp.sp_logic;
       List.iter
         (fun (k, e) ->
            if not (Hashtbl.mem t.discovered k) then begin
              Hashtbl.replace t.discovered k ();
              Reprutil.Vec.push t.store (sp.sp_shard, e)
            end)
         sp.sp_entries)
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

let xseeds_since pool cursor =
  List.map
    (fun (s : Seed_pool.seed) ->
       { xs_tc = s.sd_tc; xs_cov_hash = s.sd_cov_hash;
         xs_new_branches = s.sd_new_branches; xs_cost = s.sd_cost })
    (Seed_pool.since pool cursor)

let add_xseed pool x =
  ignore
    (Seed_pool.add pool ~tc:x.xs_tc ~cov_hash:x.xs_cov_hash
       ~new_branches:x.xs_new_branches ~cost:x.xs_cost)

(* Seed-only port over a plain seed pool — the exchange capability of the
   conventional baselines. The cursor lives in the closure: exports drain
   pool entries admitted since the last call, and it is re-synced after an
   import so foreign seeds don't echo back out. *)
let seed_port pool =
  let cursor = ref 0 in
  let p_export () =
    let seeds = xseeds_since pool !cursor in
    cursor := Seed_pool.size pool;
    { empty_export with xp_seeds = seeds }
  in
  let p_import = function
    | Seed x ->
      add_xseed pool x;
      cursor := Seed_pool.size pool
    | Affinity _ | Skeleton _ -> ()
  in
  { p_export; p_import }

(* --- aggregate reads -------------------------------------------------- *)

let branches t = Coverage.Bitmap.count_nonzero t.virgin

let grammar_counts t =
  (Coverage.Grammar.rules t.gram_virgin, Coverage.Grammar.pairs t.gram_virgin)

let execs_seen t = t.execs

let total_crashes t = t.crashes

let rounds t = t.rounds

let exchanged t = Reprutil.Vec.length t.store

let unique_crashes t = Triage.unique_with_cases t.findings

let unique_count t = Triage.unique_count t.findings

let unique_logic t = Triage.unique_logic t.findings

let bug_ids t = Triage.bug_ids t.findings
