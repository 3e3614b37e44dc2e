(* What counts as coverage news: the edge bitmap (the paper's signal),
   the grammar-rule bitmap (which productions and rule pairs the parsed
   testcase fires), or either. [Edges] is the default and leaves every
   decision byte-identical to a harness without grammar support. *)
type feedback = Edges | Grammar | Both

let feedback_of_string = function
  | "edges" -> Some Edges
  | "grammar" -> Some Grammar
  | "both" -> Some Both
  | _ -> None

let feedback_to_string = function
  | Edges -> "edges"
  | Grammar -> "grammar"
  | Both -> "both"

type outcome = {
  o_new_branches : int;
  o_cov_hash : int64;
  o_crash : Minidb.Fault.crash option;
  o_crash_is_new : bool;
  o_errors : int;
  o_executed : int;
  o_cost : int;
  o_violations : int;
  o_new_rules : int;
  o_interesting : bool;
}

type t = {
  h_profile : Minidb.Profile.t;
  h_limits : Minidb.Limits.t;
  h_virgin : Coverage.Bitmap.t;
  h_exec_map : Coverage.Bitmap.t;
  h_triage : Triage.t;
  mutable h_execs : int;
  (* telemetry: per-shard, lock-free, merged at sync rounds *)
  h_metrics : Telemetry.Registry.t;
  h_c_execs : Telemetry.Registry.counter;
  h_c_new_branches : Telemetry.Registry.counter;
  h_c_crashes : Telemetry.Registry.counter;
  h_c_unique_crashes : Telemetry.Registry.counter;
  h_h_cost : Telemetry.Registry.histogram;
  h_sp_execute : Telemetry.Span.t;
  h_sp_triage : Telemetry.Span.t;
  h_oracles : oracle_state option;
  h_cache : cache_state option;
  h_feedback : feedback;
  h_grammar : grammar_state option;
}

(* Grammar-rule coverage (DESIGN.md §15): in [Grammar]/[Both] modes each
   executed testcase gets a grammar map recording which productions and
   (production, parent) rule pairs its printed form fires, built from
   memoised per-statement traces. Recording is orthogonal to the engine
   and the prefix cache — the map always covers the whole testcase — so
   enabling it cannot perturb edge coverage or cache accounting. *)
and grammar_state = {
  gs_exec : Coverage.Bitmap.t;     (* per-execution scratch *)
  gs_virgin : Coverage.Bitmap.t;   (* accumulated rule/pair coverage *)
  gs_scratch : Coverage.Bitmap.t;  (* candidate-ranking scratch *)
  gs_memo : Grammar_memo.t;        (* per-statement traces, for both *)
  gs_g_rules : Telemetry.Registry.gauge;
  gs_g_pairs : Telemetry.Registry.gauge;
  gs_c_parse_errors : Telemetry.Registry.counter;
  gs_span : Telemetry.Span.t;
}

(* Prefix-snapshot execution cache (DESIGN.md §12). Entries are keyed by
   a digest chain over the printed statement prefix and hold everything
   a cold replay of that prefix would have produced: the engine snapshot
   at the boundary, the exec-map contribution, and the cumulative run
   stats. Restoring one and executing only the suffix is then
   outcome-identical to replaying from statement 0.

   Entries are captured opportunistically during execution itself: a
   hinted lookup that misses (or hits short of the hint) snapshots the
   hinted boundary as the run passes it, so the first mutant of a batch
   pays one deep-copy and its siblings hit. There is no separate priming
   replay — capture rides on work the harness was doing anyway. *)
and cache_state = {
  cs_cache : (string, cache_entry) Prefix_cache.t;
  cs_c_hits : Telemetry.Registry.counter;
  cs_c_misses : Telemetry.Registry.counter;
  cs_c_bypass : Telemetry.Registry.counter;  (* unhinted: never probed *)
  cs_c_evictions : Telemetry.Registry.counter;
  cs_g_bytes : Telemetry.Registry.gauge;  (* peak estimated bytes *)
  cs_g_entries : Telemetry.Registry.gauge;
      (* peak live entries; "effective" because byte accounting reflects
         structural sharing, so one 256 MiB budget holds ~100x the
         snapshots a deep-copy accounting would admit *)
  cs_sp_restore : Telemetry.Span.t;
  cs_sp_lookup : Telemetry.Span.t;
  cs_sp_capture : Telemetry.Span.t;
  (* Physical-identity memo of per-statement text digests. Mutants share
     their parent seed's prefix statement objects, so the same statements
     are digested over and over; remembering recent ones turns the common
     lookup into pointer comparisons instead of print + MD5. A bounded
     round-robin ring: staleness only costs a recomputation. *)
  cs_stmt_memo : (Sqlcore.Ast.stmt * string) option array;
  mutable cs_memo_next : int;
}

and cache_entry = {
  e_snapshot : Minidb.Engine.snapshot;
  e_map : Coverage.Bitmap.compact;  (* the prefix's exec-map contribution *)
  e_stats : Minidb.Engine.run_stats;
  e_len : int;  (* statements the prefix covers *)
}

and oracle_state = {
  os_suite : Oracle.Suite.t;
  (* per-oracle (checks, violations) counters, in Suite.oracle_names
     order, created up front so a zero-violation campaign still exports
     the full oracle.* namespace *)
  os_counters :
    (string * (Telemetry.Registry.counter * Telemetry.Registry.counter))
      list;
  os_span : Telemetry.Span.t;
}

(* Snapshots are bounded by entry count and by estimated bytes; the
   byte bound keeps a pathological dialect (huge tables in every
   snapshot) from eating the heap even when the entry cap is generous. *)
let cache_max_bytes = 256 * 1024 * 1024

let create ?(limits = Minidb.Limits.default) ?metrics ?oracles
    ?(exec_cache = 0) ?(feedback = Edges) ~profile () =
  let m =
    match metrics with Some m -> m | None -> Telemetry.Registry.create ()
  in
  (* grammar metrics are registered only when the mode asks for them, so
     [Edges] keeps the registry namespace byte-identical to a harness
     without grammar support *)
  let grammar_state =
    match feedback with
    | Edges -> None
    | Grammar | Both ->
      Some
        { gs_exec = Coverage.Bitmap.create ();
          gs_virgin = Coverage.Bitmap.create ();
          gs_scratch = Coverage.Bitmap.create ();
          gs_g_rules = Telemetry.Registry.gauge m "grammar.rules";
          gs_g_pairs = Telemetry.Registry.gauge m "grammar.pairs";
          gs_c_parse_errors =
            Telemetry.Registry.counter m "grammar.parse_errors";
          gs_span = Telemetry.Span.stage m "grammar";
          gs_memo = Grammar_memo.create m }
  in
  let cache_state =
    if exec_cache <= 0 then None
    else
      Some
        { cs_cache =
            Prefix_cache.create ~cap:exec_cache ~max_bytes:cache_max_bytes ();
          cs_c_hits = Telemetry.Registry.counter m "cache.hits";
          cs_c_misses = Telemetry.Registry.counter m "cache.misses";
          cs_c_bypass = Telemetry.Registry.counter m "cache.bypass";
          cs_c_evictions = Telemetry.Registry.counter m "cache.evictions";
          cs_g_bytes = Telemetry.Registry.gauge m "cache.bytes";
          cs_g_entries = Telemetry.Registry.gauge m "cache.effective_entries";
          cs_sp_restore = Telemetry.Span.stage m "cache_restore";
          cs_sp_lookup = Telemetry.Span.stage m "cache_lookup";
          cs_sp_capture = Telemetry.Span.stage m "cache_capture";
          cs_stmt_memo = Array.make 64 None;
          cs_memo_next = 0 }
  in
  let oracle_state =
    match oracles with
    | None -> None
    | Some suite ->
      Some
        { os_suite = suite;
          os_counters =
            List.map
              (fun name ->
                 ( name,
                   ( Telemetry.Registry.counter m
                       ("oracle." ^ name ^ ".checks"),
                     Telemetry.Registry.counter m
                       ("oracle." ^ name ^ ".violations") ) ))
              Oracle.Suite.oracle_names;
          os_span = Telemetry.Span.stage m "oracle" }
  in
  { h_profile = profile; h_limits = limits;
    h_virgin = Coverage.Bitmap.create ();
    h_exec_map = Coverage.Bitmap.create ();
    h_triage = Triage.create (); h_execs = 0;
    h_metrics = m;
    h_c_execs = Telemetry.Registry.counter m "harness.execs";
    h_c_new_branches = Telemetry.Registry.counter m "harness.new_branches";
    h_c_crashes = Telemetry.Registry.counter m "harness.crashes";
    h_c_unique_crashes =
      Telemetry.Registry.counter m "harness.unique_crashes";
    h_h_cost = Telemetry.Registry.histogram m "harness.exec_cost";
    h_sp_execute = Telemetry.Span.stage m "execute";
    h_sp_triage = Telemetry.Span.stage m "triage";
    h_oracles = oracle_state;
    h_cache = cache_state;
    h_feedback = feedback;
    h_grammar = grammar_state }

let profile t = t.h_profile

(* Digest of one statement's printed text, via the physical-identity
   memo: the common case (a mutant probing its parent's prefix) resolves
   in a handful of pointer comparisons. *)
let stmt_digest cs stmt =
  let memo = cs.cs_stmt_memo in
  let n = Array.length memo in
  let rec scan i =
    if i >= n then begin
      let d = Digest.string (Sqlcore.Sql_printer.stmt stmt) in
      memo.(cs.cs_memo_next) <- Some (stmt, d);
      cs.cs_memo_next <- (cs.cs_memo_next + 1) mod n;
      d
    end
    else
      match memo.(i) with
      | Some (s, d) when s == stmt -> d
      | _ -> scan (i + 1)
  in
  scan 0

(* [d.(k-1)] keys the printed prefix of length [k] via a digest chain:
   each boundary digest folds the previous digest with the digest of the
   next statement's printed text, so computing all of them is linear in
   the number of statements (and mostly memo hits). Keying on the
   {e printed} statement makes the key exactly as precise as what the
   engine executes — two ASTs that print alike execute alike. *)
let prefix_digests cs ~up_to tc =
  let d = Array.make (max up_to 1) "" in
  let prev = ref "" in
  List.iteri
    (fun i stmt ->
       if i < up_to then begin
         prev := Digest.string (!prev ^ stmt_digest cs stmt);
         d.(i) <- !prev
       end)
    tc;
  d

(* Probe for the longest cached prefix of [tc], from [hint] — the
   statements the candidate shares with its parent — downwards. Unhinted
   executions (freshly generated one-shot cases) skip the cache
   entirely: digesting a never-seen prefix costs more than the certain
   miss saves, and their fresh statements would pollute the digest memo.
   Any hinted key match is sound regardless of provenance: the digest
   covers the full printed prefix, so a stale hint degrades to a miss,
   never a wrong hit.

   Returns the boundary digests and probe depth alongside the entry so
   [execute] can capture the hinted boundary when the probe fell
   short. *)
let cache_lookup cs ?hint tc =
  match hint with
  | None -> None
  | Some h ->
    let n = List.length tc in
    let maxp = min h n in
    if maxp < 1 || n < 2 then None
    else begin
      let d = prefix_digests cs ~up_to:maxp tc in
      let rec probe k =
        if k < 1 then None
        else
          match Prefix_cache.find cs.cs_cache d.(k - 1) with
          | Some e -> Some e
          | None -> probe (k - 1)
      in
      Some (d, maxp, probe maxp)
    end

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Snapshot the running engine at a statement boundary and insert it
   under [key]. Called from [execute]'s boundary callback: at that point
   [t.h_exec_map] holds exactly the prefix's coverage contribution and
   [stats] the prefix's cumulative run stats, so the entry equals what a
   cold replay of the prefix would have produced. Snapshotting is a pure
   deep copy — the live run is unaffected. *)
let cache_capture t cs engine key ~stats ~len =
  Telemetry.Span.time cs.cs_sp_capture @@ fun () ->
  let snapshot = Minidb.Engine.snapshot engine in
  let map = Coverage.Bitmap.compact t.h_exec_map in
  let entry =
    { e_snapshot = snapshot; e_map = map; e_stats = stats; e_len = len }
  in
  (* Structural estimate: walking the real object graph
     (Obj.reachable_words) costs more than the replay the cache saves. *)
  let bytes =
    Minidb.Engine.snapshot_bytes snapshot
    + Coverage.Bitmap.compact_bytes map + 128
  in
  let evicted = Prefix_cache.insert cs.cs_cache key entry ~bytes in
  if evicted > 0 then Telemetry.Registry.incr ~by:evicted cs.cs_c_evictions;
  Telemetry.Registry.set_max cs.cs_g_bytes (Prefix_cache.bytes cs.cs_cache);
  Telemetry.Registry.set_max cs.cs_g_entries (Prefix_cache.length cs.cs_cache)

let execute ?hint t tc =
  t.h_execs <- t.h_execs + 1;
  Telemetry.Registry.incr t.h_c_execs;
  let probed =
    match t.h_cache with
    | None -> None
    | Some cs ->
      let r =
        Telemetry.Span.time cs.cs_sp_lookup (fun () ->
            cache_lookup cs ?hint tc)
      in
      (match r with
       | Some (_, _, Some _) -> Telemetry.Registry.incr cs.cs_c_hits
       | Some (_, _, None) -> Telemetry.Registry.incr cs.cs_c_misses
       | None -> Telemetry.Registry.incr cs.cs_c_bypass);
      Some (cs, r)
  in
  (* Choose the start. On a hit, restore the cached boundary: exec map
     first (the prefix's coverage contribution), then an engine
     continuing from the snapshot. Running the remaining suffix with the
     prefix stats carried over reproduces a cold full replay bit for
     bit. Otherwise start cold at statement 0. *)
  let engine, carry, k =
    match probed with
    | Some (cs, Some (_, _, Some e)) ->
      let engine =
        Telemetry.Span.time cs.cs_sp_restore (fun () ->
            Coverage.Bitmap.load_compact ~into:t.h_exec_map e.e_map;
            Minidb.Engine.restore ~metrics:t.h_metrics e.e_snapshot
              ~cov:t.h_exec_map ())
      in
      (engine, Some e.e_stats, e.e_len)
    | Some (_, (None | Some (_, _, None))) | None ->
      Coverage.Bitmap.reset t.h_exec_map;
      ( Minidb.Engine.create ~limits:t.h_limits ~metrics:t.h_metrics
          ~profile:t.h_profile ~cov:t.h_exec_map (),
        None,
        0 )
  in
  (* When the start falls short of the hinted depth (a shallow hit or a
     hinted miss), capture that boundary as this run passes it: the next
     sibling sharing the same prefix then restores instead of replaying.
     [mem] (no LRU reorder): an existing entry is identical by
     determinism, so keep it and its recency. *)
  let on_boundary =
    match probed with
    | Some (cs, Some (d, maxp, _)) when k < maxp ->
      Some
        (fun consumed stats ->
           if k + consumed = maxp
              && not (Prefix_cache.mem cs.cs_cache d.(maxp - 1))
           then cache_capture t cs engine d.(maxp - 1) ~stats ~len:maxp)
    | _ -> None
  in
  let stats =
    Telemetry.Span.time t.h_sp_execute (fun () ->
        Minidb.Engine.run_testcase_from ?carry ?on_boundary engine
          (drop k tc))
  in
  let news = Coverage.Bitmap.merge_into ~virgin:t.h_virgin t.h_exec_map in
  if news > 0 then Telemetry.Registry.incr ~by:news t.h_c_new_branches;
  (* Grammar feedback: fill the grammar scratch map with the whole
     testcase's grammar coverage, then fold it into the grammar virgin
     map. The map covers every statement regardless of how much of the
     engine run came from the prefix cache, so cache hits and grammar
     coverage never interact. Printed testcases are parseable by
     construction; a failure is counted, not fatal. *)
  let gram_news =
    match t.h_grammar with
    | None -> 0
    | Some gs ->
      Telemetry.Span.time gs.gs_span (fun () ->
          if not (Grammar_memo.fill gs.gs_memo gs.gs_exec tc) then
            Telemetry.Registry.incr gs.gs_c_parse_errors;
          let n =
            Coverage.Bitmap.merge_into ~virgin:gs.gs_virgin gs.gs_exec
          in
          if n > 0 then begin
            Telemetry.Registry.set_max gs.gs_g_rules
              (Coverage.Grammar.rules gs.gs_virgin);
            Telemetry.Registry.set_max gs.gs_g_pairs
              (Coverage.Grammar.pairs gs.gs_virgin)
          end;
          n)
  in
  let interesting =
    match t.h_feedback with
    | Edges -> news > 0
    | Grammar -> gram_news > 0
    | Both -> news > 0 || gram_news > 0
  in
  let crash = stats.Minidb.Engine.rs_crash in
  let crash_is_new =
    match crash with
    | None -> false
    | Some c ->
      Telemetry.Registry.incr t.h_c_crashes;
      let is_new =
        Telemetry.Span.time t.h_sp_triage (fun () ->
            Triage.record t.h_triage ~testcase:tc c)
      in
      if is_new then Telemetry.Registry.incr t.h_c_unique_crashes;
      is_new
  in
  Telemetry.Registry.observe t.h_h_cost stats.rs_cost;
  (* Logic-bug oracles only replay coverage-increasing, non-crashing test
     cases: new coverage is the paper's interestingness signal (edge
     and/or grammar, per the feedback mode), and a crashing case already
     carries a stronger verdict. *)
  let violations =
    match t.h_oracles with
    | Some os when interesting && crash = None ->
      let outcome =
        Telemetry.Span.time os.os_span (fun () ->
            Oracle.Suite.check os.os_suite tc)
      in
      List.iter
        (fun (name, n) ->
           match List.assoc_opt name os.os_counters with
           | Some (checks, _) when n > 0 ->
             Telemetry.Registry.incr ~by:n checks
           | _ -> ())
        outcome.Oracle.Suite.oc_checks;
      (* Logic-violation dedup is triage work too: bracket it under the
         triage span so oracle-heavy runs attribute it correctly. *)
      Telemetry.Span.time t.h_sp_triage (fun () ->
          List.iter
            (fun v ->
               (match
                  List.assoc_opt v.Oracle.Violation.vi_oracle os.os_counters
                with
                | Some (_, violations) -> Telemetry.Registry.incr violations
                | None -> ());
               ignore (Triage.record_logic t.h_triage ~testcase:tc v))
            outcome.Oracle.Suite.oc_violations);
      List.length outcome.Oracle.Suite.oc_violations
    | _ -> 0
  in
  { o_new_branches = news;
    o_cov_hash = Coverage.Bitmap.hash t.h_exec_map;
    o_crash = crash;
    o_crash_is_new = crash_is_new;
    o_errors = stats.rs_errors;
    o_executed = stats.rs_executed;
    o_cost = stats.rs_cost;
    o_violations = violations;
    o_new_rules = gram_news;
    o_interesting = interesting }

let feedback t = t.h_feedback

let grammar_feedback t = t.h_feedback <> Edges

let grammar_virgin t =
  match t.h_grammar with None -> None | Some gs -> Some gs.gs_virgin

(* Rank a candidate without executing it: fill the ranking scratch map
   and count the cells the grammar virgin map lacks. Read-only on the
   virgin map, so probing candidates never claims their coverage. *)
let grammar_novelty t tc =
  match t.h_grammar with
  | None -> 0
  | Some gs ->
    if Grammar_memo.fill gs.gs_memo gs.gs_scratch tc then
      Coverage.Bitmap.count_news ~virgin:gs.gs_virgin gs.gs_scratch
    else 0

let execs t = t.h_execs

let branches t = Coverage.Bitmap.count_nonzero t.h_virgin

let triage t = t.h_triage

let virgin t = t.h_virgin

let metrics t = t.h_metrics
