(* Shared campaign machinery for the paper-reproduction benches.

   One campaign = one fuzzer on one simulated DBMS with a fixed execution
   budget (the stand-in for the paper's 24-hour wall-clock runs; see
   DESIGN.md). Campaign results feed Figure 9 and Tables II-IV; extending
   a LEGO campaign to a larger budget gives the "continuous fuzzing" data
   of Table I. *)

type campaign = {
  c_fuzzer : string;
  c_dialect : string;
  c_series : (int * int) list;  (* (execs, branches) checkpoints *)
  c_final : Fuzz.Driver.snapshot;
  c_fz : Fuzz.Driver.fuzzer;
      (* shard 0's fuzzer; with REPRO_JOBS=1 (the default) this is the
         whole campaign, as before the campaign-engine refactor *)
  c_corpus : unit -> Sqlcore.Ast.testcase list;
      (* generated corpus across every shard (Table II / IV censuses) *)
  c_metrics : Telemetry.Registry.t;
      (* campaign-wide metric registry (stage times, engine counters) *)
  c_wall_s : float;  (* wall-clock annotation, never determinism-checked *)
}

let budget =
  match Sys.getenv_opt "REPRO_EXECS" with
  | Some s -> (try max 1000 (int_of_string s) with Failure _ -> 60_000)
  | None -> 60_000

(* Campaign shards (OCaml domains) per campaign. The default of 1 keeps
   the published EXPERIMENTS.md numbers bit-for-bit reproducible; raise
   it on multicore hardware for wall-clock speed at equal total budget. *)
let jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
  | None -> 1

let schedules =
  match Sys.getenv_opt "REPRO_SCHEDULES" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 128)
  | None -> 128

let continuous_budget = budget * 3

let dialects = Dialects.Registry.all

let dialect_name p = Minidb.Profile.name p

(* Keep the checkpoint count fixed so the Fig. 9 series is readable. *)
let checkpoint_every = max 1 (budget / 6)

(* A campaign maker: [factory shard_id] builds one shard's fuzzer (called
   inside the shard's domain by the campaign engine). [jobs] defaults to
   REPRO_JOBS; the exchange ablation passes all three shard settings. *)
let run_campaign ?(jobs = jobs) ?(exchange = true)
    ?(sync_every = Fuzz.Sync.default_interval) profile (name, factory) =
  let series = ref [] in
  let start = Telemetry.Span.now_s () in
  let res =
    Fuzz.Campaign.run ~checkpoint_every
      ~on_checkpoint:(fun cp ->
          let snap = cp.Fuzz.Driver.cp_snapshot in
          series := (snap.Fuzz.Driver.st_execs, snap.st_branches) :: !series)
      ~sync_every ~exchange ~jobs ~execs:budget factory
  in
  let wall_s = Telemetry.Span.now_s () -. start in
  let final = res.Fuzz.Campaign.cg_snapshot in
  let shards = res.Fuzz.Campaign.cg_shards in
  { c_fuzzer = name;
    c_dialect = dialect_name profile;
    c_series =
      List.rev ((final.Fuzz.Driver.st_execs, final.st_branches) :: !series);
    c_final = final;
    c_fz = (List.hd shards).Fuzz.Campaign.sh_fuzzer;
    c_corpus =
      (fun () ->
         List.concat_map
           (fun sh -> sh.Fuzz.Campaign.sh_fuzzer.Fuzz.Driver.f_corpus ())
           shards);
    c_metrics = res.Fuzz.Campaign.cg_metrics;
    c_wall_s = wall_s }

(* LEGO keeps its own maker because the length study varies
   [max_seq_len]. The harness exists only for grammar feedback, as in
   {!Farm.Spec.fuzzer_factory}. *)
let make_lego ?(seq = true) ?(max_seq_len = 5) ?(feedback = Fuzz.Harness.Edges)
    profile =
  ( (if seq then "LEGO" else "LEGO-"),
    fun shard_id ->
      let config =
        { Lego.Lego_fuzzer.sequence_oriented = seq;
          max_seq_len;
          seed = Fuzz.Campaign.shard_seed ~seed:1 ~shard_id }
      in
      let harness =
        if feedback = Fuzz.Harness.Edges then None
        else Some (Fuzz.Harness.create ~profile ~feedback ())
      in
      Lego.Lego_fuzzer.fuzzer
        (Lego.Lego_fuzzer.create ~config ?harness profile) )

let execs_per_sec c =
  if c.c_wall_s > 0.0 then
    float_of_int c.c_final.Fuzz.Driver.st_execs /. c.c_wall_s
  else 0.0

let branches c = float_of_int c.c_final.Fuzz.Driver.st_branches

let bugs c = float_of_int (List.length c.c_final.Fuzz.Driver.st_bugs)

(* --- table rendering ------------------------------------------------ *)

let hr width = print_endline (String.make width '-')

let section title =
  print_newline ();
  hr 78;
  Printf.printf "%s\n" title;
  hr 78

let print_row widths cells =
  let padded =
    List.map2
      (fun w c -> Printf.sprintf "%-*s" w c)
      widths cells
  in
  print_endline (String.concat "  " padded)

(* One column of an ablation table: printed under [show] (header, width)
   as [cell value], recorded as BENCH_campaigns.json row [metric] (name,
   unit), or both. *)
type 'a column = {
  show : (string * int) option;
  cell : float -> string;
  metric : (string * string) option;
  value : 'a -> float;
}

let column ?show ?(cell = Printf.sprintf "%.0f") ?metric value =
  { show; cell; metric; value }

(* Print one row per labelled arm under the [arm] header (title, width)
   and return the metric rows [prefix ^ label ^ "/" ^ name]. *)
let ablation_table ~prefix ~arm:(title, width) columns arms =
  let shown =
    List.filter_map (fun c -> Option.map (fun hw -> (hw, c)) c.show) columns
  in
  let widths = width :: List.map (fun ((_, w), _) -> w) shown in
  print_row widths (title :: List.map (fun ((h, _), _) -> h) shown);
  List.iter
    (fun (label, a) ->
       print_row widths
         (label :: List.map (fun (_, c) -> c.cell (c.value a)) shown))
    arms;
  List.concat_map
    (fun (label, a) ->
       List.filter_map
         (fun c ->
            Option.map
              (fun (name, unit_) ->
                 (prefix ^ label ^ "/" ^ name, c.value a, unit_))
              c.metric)
         columns)
    arms

let pct_improvement a b =
  if b = 0 then 0.0 else 100.0 *. (float_of_int a /. float_of_int b -. 1.0)
