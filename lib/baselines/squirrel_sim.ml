module Rng = Reprutil.Rng

(* Conventional mutants of one seed per step. *)
let mutants_per_step = 6

type t = {
  rng : Rng.t;
  harness : Fuzz.Harness.t;
  pool : Fuzz.Seed_pool.t;
  sp_mutate : Telemetry.Span.t;
}

let process ?hint t tc =
  let outcome = Fuzz.Harness.execute ?hint t.harness tc in
  if outcome.Fuzz.Harness.o_interesting then
    ignore
      (Fuzz.Seed_pool.add t.pool ~tc ~cov_hash:outcome.o_cov_hash
         ~new_branches:outcome.o_new_branches ~cost:outcome.o_cost)

let create ?(seed = 1) ?harness profile =
  let harness =
    match harness with
    | Some h -> h
    | None -> Fuzz.Harness.create ~profile ()
  in
  let t =
    { rng = Rng.create (seed lxor 0x5153); (* distinct stream from LEGO *)
      harness;
      pool = Fuzz.Seed_pool.create ();
      sp_mutate =
        Telemetry.Span.stage (Fuzz.Harness.metrics harness) "mutate" }
  in
  List.iter (process t) (Fuzz.Corpus.initial profile);
  t

let step t () =
  match Fuzz.Seed_pool.select t.pool t.rng with
  | None -> ()
  | Some seed ->
    for _ = 1 to mutants_per_step do
      let mutant, pos =
        Telemetry.Span.time t.sp_mutate (fun () ->
            Lego.Conventional.mutate_testcase_at t.rng
              seed.Fuzz.Seed_pool.sd_tc)
      in
      (* statements before the mutated position print like the parent's *)
      process ~hint:pos t mutant
    done

let fuzzer t =
  { Fuzz.Driver.f_name = "SQUIRREL";
    f_step = step t;
    f_harness = t.harness;
    f_corpus =
      (fun () ->
         List.map (fun s -> s.Fuzz.Seed_pool.sd_tc)
           (Fuzz.Seed_pool.seeds t.pool));
    f_exchange = Some (Fuzz.Sync.seed_port t.pool) }

let pool_size t = Fuzz.Seed_pool.size t.pool
