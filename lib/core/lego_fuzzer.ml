open Sqlcore
module Rng = Reprutil.Rng

type config = {
  seed : int;
  sequence_oriented : bool;
  max_seq_len : int;
}

let default_config = { seed = 1; sequence_oriented = true; max_seq_len = 5 }

(* Bound on the synthesized-sequence reservoir. *)
let max_pending = 4096

(* Synthesized sequences instantiated and executed per iteration. *)
let synth_batch = 6

(* Conventional mutants per iteration. *)
let conventional_per_step = 3

type t = {
  cfg : config;
  rng : Rng.t;
  harness : Fuzz.Harness.t;
  pool : Fuzz.Seed_pool.t;
  affinity : Affinity.t;
  synthesis : Synthesis.t;
  skeletons : Skeleton_library.t;
  pending : Synthesis.id Reprutil.Vec.t;
      (* synthesized sequence ids awaiting instantiation + execution; a
         sampling reservoir: overflow replaces a random slot so the
         backlog stays diverse rather than first-come-first-served. No
         dedup is needed here: [Synthesis.on_new_affinity] returns only
         globally-new sequences (its dedup spans all discoveries, local
         and imported), so every enqueued id is fresh by
         construction. *)
  c_dup_skipped : Telemetry.Registry.counter;
      (* kept registered (always 0) so the exported synth.* namespace
         is stable across the dedup-removal refactor *)
  types : Stmt_type.t list;
  mutable initial : Ast.testcase list;
  (* exchange cursors: how much of the pool / affinity log / skeleton
     journal has already been exported to other shards *)
  mutable xc_pool : int;
  mutable xc_aff : int;
  mutable xc_skel : int;
  (* stage spans over the harness registry: generation cost attribution
     (the harness itself times execute/triage) *)
  sp_mutate : Telemetry.Span.t;
  sp_synthesize : Telemetry.Span.t;
  sp_instantiate : Telemetry.Span.t;
}

(* [slot] picks the reservoir slot to evict on overflow. The fuzzing path
   uses the shard RNG; the exchange-import path must not touch that
   stream, so it uses a content hash instead. *)
let enqueue_seq t ~slot seq =
  if Reprutil.Vec.length t.pending < max_pending then
    Reprutil.Vec.push t.pending seq
  else Reprutil.Vec.set t.pending (slot max_pending) seq

(* Algorithm 3 on one newly-discovered affinity: synthesize sequences and
   queue them for instantiation. Ids stream straight into the reservoir
   in synthesis order — no intermediate list. *)
let synthesize_from t ~slot aff =
  Synthesis.on_new_affinity_iter t.synthesis t.affinity aff
    (enqueue_seq t ~slot)

(* Grammar-feedback generation bias (DESIGN.md §15): when the harness
   records grammar coverage, draw a second candidate and keep the one
   whose printed form would light more unfired grammar cells. The probe
   is read-only (scratch parse against the grammar virgin map), so
   losing candidates claim nothing. In edges mode this is [gen ()]
   exactly — no extra RNG draws, preserving byte-identity. *)
let best_of_two t gen =
  let c1 = gen () in
  if not (Fuzz.Harness.grammar_feedback t.harness) then c1
  else begin
    let c2 = gen () in
    if Fuzz.Harness.grammar_novelty t.harness c2
       > Fuzz.Harness.grammar_novelty t.harness c1
    then c2
    else c1
  end

(* Execute a candidate; if it is coverage-interesting under the harness's
   feedback mode, keep it: pool, skeleton
   harvest, affinity analysis, and synthesis from each new affinity.
   [hint] is the statement prefix the candidate shares with its parent,
   forwarded to the harness's prefix-snapshot cache: the first hinted
   execution captures the boundary, its siblings restore from it. *)
let process_candidate t ?(analyze = true) ?hint tc =
  let outcome = Fuzz.Harness.execute ?hint t.harness tc in
  if outcome.Fuzz.Harness.o_interesting then begin
    ignore
      (Fuzz.Seed_pool.add t.pool ~tc ~cov_hash:outcome.o_cov_hash
         ~new_branches:outcome.o_new_branches ~cost:outcome.o_cost);
    ignore (Skeleton_library.harvest t.skeletons tc);
    if analyze && t.cfg.sequence_oriented then
      Telemetry.Span.time t.sp_synthesize (fun () ->
          let new_affs = Affinity.analyze t.affinity tc in
          List.iter
            (synthesize_from t ~slot:(fun n -> Rng.int t.rng n))
            new_affs)
  end;
  outcome

let create ?(config = default_config) ?harness profile =
  let harness =
    match harness with
    | Some h -> h
    | None -> Fuzz.Harness.create ~profile ()
  in
  let metrics = Fuzz.Harness.metrics harness in
  let t =
    { cfg = config;
      rng = Rng.create config.seed;
      harness;
      pool = Fuzz.Seed_pool.create ();
      affinity = Affinity.create ();
      synthesis =
        Synthesis.create ~max_len:config.max_seq_len
          ~types:(Minidb.Profile.types profile) ();
      skeletons = Skeleton_library.create ();
      pending = Reprutil.Vec.create ();
      c_dup_skipped = Telemetry.Registry.counter metrics "synth.dup_skipped";
      types = Minidb.Profile.types profile;
      initial = [];
      xc_pool = 0;
      xc_aff = 0;
      xc_skel = 0;
      sp_mutate = Telemetry.Span.stage metrics "mutate";
      sp_synthesize = Telemetry.Span.stage metrics "synthesize";
      sp_instantiate = Telemetry.Span.stage metrics "instantiate" }
  in
  let corpus = Fuzz.Corpus.initial profile in
  t.initial <- corpus;
  List.iter (fun tc -> ignore (process_candidate t tc)) corpus;
  t

let take_pending t =
  let n = Reprutil.Vec.length t.pending in
  if n = 0 then None
  else begin
    (* swap-remove a random slot: order never mattered, diversity does *)
    let i = Rng.int t.rng n in
    let seq = Reprutil.Vec.get t.pending i in
    (match Reprutil.Vec.pop t.pending with
     | Some last when i < Reprutil.Vec.length t.pending ->
       Reprutil.Vec.set t.pending i last
     | _ -> ());
    Some seq
  end

let step t () =
  (* Step 2: a batch of synthesized sequences becomes test cases. *)
  if t.cfg.sequence_oriented then begin
    let batch = min synth_batch (Reprutil.Vec.length t.pending) in
    for _ = 1 to batch do
      match take_pending t with
      | None -> ()
      | Some seq ->
        let seq = Synthesis.to_types t.synthesis seq in
        let tc =
          (* instantiation is its own pipeline stage (the paper's
             Step 2 second half), timed apart from Algorithm 3 *)
          Telemetry.Span.time t.sp_instantiate (fun () ->
              best_of_two t (fun () ->
                  Instantiate.sequence t.rng ~skeletons:t.skeletons seq))
        in
        ignore (process_candidate t tc)
    done
  end;
  (* Step 1 + conventional depth run every iteration, so synthesis never
     starves the mutation arm. *)
  begin
    match Fuzz.Seed_pool.select t.pool t.rng with
    | None ->
      (* pool drained (tiny budgets): fall back to a fresh generated case *)
      let schema = Sym_schema.empty () in
      let tc =
        [ Generator.stmt t.rng schema Stmt_type.Create_table;
          Generator.stmt t.rng schema Stmt_type.Insert ]
      in
      ignore (process_candidate t (Instantiate.repair t.rng tc))
    | Some seed ->
      let tc = seed.Fuzz.Seed_pool.sd_tc in
      if t.cfg.sequence_oriented then begin
        (* Step 1: sequence-oriented mutation at one random position per
           iteration (Algorithm 1 spreads positions across iterations). *)
        let pos = Rng.int t.rng (max 1 (List.length tc)) in
        let mutants =
          Telemetry.Span.time t.sp_mutate (fun () ->
              Seq_mutation.mutate_at t.rng ~skeletons:t.skeletons
                ~types:t.types tc ~pos)
        in
        List.iter
          (fun (_, mutant) ->
             (* statements before the mutated position are the parent's *)
             ignore (process_candidate t ~hint:pos mutant))
          mutants
      end;
      (* Conventional mutations (both LEGO and LEGO-). *)
      for _ = 1 to conventional_per_step do
        let mutant, pos =
          Telemetry.Span.time t.sp_mutate (fun () ->
              if Fuzz.Harness.grammar_feedback t.harness then
                Conventional.mutate_testcase_at_biased t.rng
                  ~novelty:(Fuzz.Harness.grammar_novelty t.harness)
                  tc
              else Conventional.mutate_testcase_at t.rng tc)
        in
        ignore
          (process_candidate t ~analyze:t.cfg.sequence_oriented ~hint:pos
             mutant)
      done;
      (* Structure mutation via the AST library: replace one statement
         with a different structure of the SAME type (the paper's LEGO-
         keeps this; it is what the extended AST parser buys even with the
         sequence algorithms disabled). The type sequence is preserved. *)
      for _ = 1 to 2 do
      (match tc with
       | [] -> ()
       | _ ->
         let pos = Rng.int t.rng (List.length tc) in
         let schema = Sym_schema.empty () in
         List.iteri
           (fun i s -> if i < pos then Sym_schema.apply schema s)
           tc;
         let ty = Ast.type_of_stmt (List.nth tc pos) in
         let mutant =
           best_of_two t (fun () ->
               let fresh =
                 Instantiate.statement t.rng ~skeletons:t.skeletons ~schema ty
               in
               Instantiate.repair t.rng
                 (List.mapi (fun i s -> if i = pos then fresh else s) tc))
         in
         ignore
           (process_candidate t ~analyze:t.cfg.sequence_oriented ~hint:pos
              mutant))
      done
  end

let sync_cursors t =
  t.xc_pool <- Fuzz.Seed_pool.size t.pool;
  t.xc_aff <- Affinity.log_length t.affinity;
  t.xc_skel <- Skeleton_library.journal_length t.skeletons

(* Drain everything discovered since the last export. *)
let export t () =
  let seeds = Fuzz.Sync.xseeds_since t.pool t.xc_pool in
  let affs = Affinity.log_since t.affinity t.xc_aff in
  let skels = Skeleton_library.journal_since t.skeletons t.xc_skel in
  sync_cursors t;
  { Fuzz.Sync.xp_seeds = seeds; xp_affinities = affs; xp_skeletons = skels }

(* Fold one foreign discovery in. Imported affinities trigger Algorithm 3
   synthesis just like locally-discovered ones; the reservoir eviction
   slot comes from a content hash, never the shard RNG (imports must not
   perturb the shard's random stream). *)
let import t entry =
  (match entry with
   | Fuzz.Sync.Seed x -> Fuzz.Sync.add_xseed t.pool x
   | Fuzz.Sync.Affinity (a, b) ->
     if t.cfg.sequence_oriented && Affinity.add t.affinity a b then
       Telemetry.Span.time t.sp_synthesize (fun () ->
           synthesize_from t
             ~slot:(fun n -> Hashtbl.hash (a, b) mod n)
             (a, b))
   | Fuzz.Sync.Skeleton s -> ignore (Skeleton_library.store t.skeletons s));
  (* store growth during import is the import itself: advance the export
     cursors so foreign entries don't echo back out of this shard *)
  sync_cursors t

let fuzzer t =
  { Fuzz.Driver.f_name =
      (if t.cfg.sequence_oriented then "LEGO" else "LEGO-");
    f_step = step t;
    f_harness = t.harness;
    f_corpus =
      (fun () ->
         List.map (fun s -> s.Fuzz.Seed_pool.sd_tc)
           (Fuzz.Seed_pool.seeds t.pool));
    f_exchange =
      Some { Fuzz.Sync.p_export = export t; p_import = import t } }

let affinities t = t.affinity

let synthesized_total t = Synthesis.total t.synthesis

let skeletons t = t.skeletons

let pool_size t = Fuzz.Seed_pool.size t.pool
