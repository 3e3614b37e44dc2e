open Sqlcore
module Rng = Reprutil.Rng

type t = {
  rng : Rng.t;
  harness : Fuzz.Harness.t;
  pool : Fuzz.Seed_pool.t;
  affinities : Lego.Affinity.t;
  skeletons : Lego.Skeleton_library.t;
  types : Stmt_type.t list;
  sp_mutate : Telemetry.Span.t;
}

let process ?hint t tc =
  let outcome = Fuzz.Harness.execute ?hint t.harness tc in
  if outcome.Fuzz.Harness.o_interesting then begin
    ignore
      (Fuzz.Seed_pool.add t.pool ~tc ~cov_hash:outcome.o_cov_hash
         ~new_branches:outcome.o_new_branches ~cost:outcome.o_cost);
    ignore (Lego.Skeleton_library.harvest t.skeletons tc)
  end

let create ?(seed = 1) ?harness ~affinities profile =
  let harness =
    match harness with
    | Some h -> h
    | None -> Fuzz.Harness.create ~profile ()
  in
  let t =
    { rng = Rng.create (seed lxor 0x51AF);
      harness;
      pool = Fuzz.Seed_pool.create ();
      affinities;
      skeletons = Lego.Skeleton_library.create ();
      types = Minidb.Profile.types profile;
      sp_mutate =
        Telemetry.Span.stage (Fuzz.Harness.metrics harness) "mutate" }
  in
  List.iter (process t) (Fuzz.Corpus.initial profile);
  t

(* The imported-affinity operator: pick a statement, look up its type's
   successors in LEGO's map, and insert a fresh statement of one of those
   types right after it. *)
let affinity_insert t tc =
  match tc with
  | [] -> None
  | _ ->
    let pos = Rng.int t.rng (List.length tc) in
    let anchor = Ast.type_of_stmt (List.nth tc pos) in
    let successors =
      List.filter
        (fun ty -> List.mem ty t.types)
        (Lego.Affinity.successors t.affinities anchor)
    in
    (match successors with
     | [] -> None
     | succ ->
       let ty = Rng.choose t.rng succ in
       let schema = Lego.Sym_schema.empty () in
       List.iteri
         (fun i s -> if i <= pos then Lego.Sym_schema.apply schema s)
         tc;
       let stmt =
         Lego.Instantiate.statement t.rng ~skeletons:t.skeletons ~schema ty
       in
       let mutant =
         List.concat
           (List.mapi
              (fun i s -> if i = pos then [ s; stmt ] else [ s ])
              tc)
       in
       if List.length mutant > 24 then None
       else
         (* statements up to and including the anchor are the parent's *)
         Some (Lego.Instantiate.repair t.rng mutant, pos + 1))

let step t () =
  match Fuzz.Seed_pool.select t.pool t.rng with
  | None -> ()
  | Some seed ->
    let tc = seed.Fuzz.Seed_pool.sd_tc in
    for _ = 1 to 4 do
      let mutant, pos =
        Telemetry.Span.time t.sp_mutate (fun () ->
            Lego.Conventional.mutate_testcase_at t.rng tc)
      in
      process ~hint:pos t mutant
    done;
    for _ = 1 to 2 do
      match Telemetry.Span.time t.sp_mutate (fun () -> affinity_insert t tc)
      with
      | Some (mutant, hint) -> process ~hint t mutant
      | None -> ()
    done

let fuzzer t =
  { Fuzz.Driver.f_name = "SQUIRREL+";
    f_step = step t;
    f_harness = t.harness;
    f_corpus =
      (fun () ->
         List.map (fun s -> s.Fuzz.Seed_pool.sd_tc)
           (Fuzz.Seed_pool.seeds t.pool));
    f_exchange = Some (Fuzz.Sync.seed_port t.pool) }
