module Json = Telemetry.Json

type policy = Bandit | Round_robin

let policy_of_string = function
  | "bandit" -> Some Bandit
  | "round_robin" -> Some Round_robin
  | _ -> None

let policy_to_string = function Bandit -> "bandit" | Round_robin -> "round_robin"

type t = {
  fs_campaigns : Store.campaign list;
  fs_total_execs : int;
  fs_round_execs : int;
  fs_workers : int;
  fs_policy : policy;
  fs_ucb_c : float;
}

let valid_id s =
  s <> "" && s.[0] <> '.'
  && String.for_all
       (fun c ->
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '.' || c = '_' || c = '-')
       s

(* --- profile / fuzzer factory ---------------------------------------- *)

let profile (c : Store.campaign) =
  match Dialects.Registry.by_name c.sc_dialect with
  | None ->
    Error
      (Printf.sprintf
         "campaign %S: unknown dialect %S (postgresql, mysql, mariadb, comdb2)"
         c.sc_id c.sc_dialect)
  | Some p ->
    Ok (if c.sc_quirks = [] then p else Minidb.Profile.with_quirks p c.sc_quirks)

(* One harness per shard, built inside the shard's domain: oracle
   suites hold replay state and must stay domain-private. *)
let fuzzer_factory ?(oracles = false) ?(exec_cache = 0)
    ?(feedback = Fuzz.Harness.Edges) ~name ~profile ~seed () =
  let harness () =
    Fuzz.Harness.create ~profile
      ?oracles:(if oracles then Some (Oracle.Suite.create profile) else None)
      ~exec_cache ~feedback ()
  in
  let lego ~seq shard_id =
    let cfg =
      { Lego.Lego_fuzzer.default_config with
        seed = Fuzz.Campaign.shard_seed ~seed ~shard_id;
        sequence_oriented = seq }
    in
    Lego.Lego_fuzzer.fuzzer
      (Lego.Lego_fuzzer.create ~config:cfg ~harness:(harness ()) profile)
  in
  let baseline create fuzzer shard_id =
    fuzzer
      (create
         ~seed:(Fuzz.Campaign.shard_seed ~seed ~shard_id)
         ~harness:(harness ()) profile)
  in
  match String.lowercase_ascii name with
  | "lego" -> Ok (lego ~seq:true)
  | "lego-" | "lego_minus" -> Ok (lego ~seq:false)
  | "squirrel" ->
    Ok
      (baseline
         (fun ~seed ~harness p -> Baselines.Squirrel_sim.create ~seed ~harness p)
         Baselines.Squirrel_sim.fuzzer)
  | "sqlancer" ->
    Ok
      (baseline
         (fun ~seed ~harness p -> Baselines.Sqlancer_sim.create ~seed ~harness p)
         Baselines.Sqlancer_sim.fuzzer)
  | "sqlsmith" ->
    Ok
      (baseline
         (fun ~seed ~harness p -> Baselines.Sqlsmith_sim.create ~seed ~harness p)
         Baselines.Sqlsmith_sim.fuzzer)
  | other ->
    Error
      (Printf.sprintf
         "unknown fuzzer %S (lego, lego-, squirrel, sqlancer, sqlsmith)" other)

let make ~(campaign : Store.campaign) ~seed =
  match profile campaign with
  | Error e -> Error e
  | Ok p ->
    fuzzer_factory ~oracles:campaign.sc_oracles
      ~exec_cache:campaign.sc_exec_cache ~feedback:campaign.sc_feedback
      ~name:campaign.sc_fuzzer ~profile:p ~seed ()

let epoch_seed ~(campaign : Store.campaign) ~epoch =
  campaign.sc_seed + (epoch * 7_368_787)

(* --- JSON ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let campaign_of_json json =
  let* id = Json.field "id" Json.to_str json in
  let ctx msg = Printf.sprintf "campaign %S: %s" id msg in
  let* () =
    if valid_id id then Ok ()
    else Error (Printf.sprintf "campaign id %S is not filesystem-safe" id)
  in
  let* fuzzer = Json.field "fuzzer" Json.to_str json |> Result.map_error ctx in
  let* dialect =
    Json.field "dialect" Json.to_str json |> Result.map_error ctx
  in
  let* budget = Json.field "budget" Json.to_int json |> Result.map_error ctx in
  let* () = if budget > 0 then Ok () else Error (ctx "budget must be > 0") in
  let* quirks =
    Json.field ~default:[] "quirks" Json.to_str_list json
    |> Result.map_error ctx
  in
  let* fb =
    Json.field ~default:"edges" "feedback" Json.to_str json
    |> Result.map_error ctx
  in
  let* feedback =
    match Fuzz.Harness.feedback_of_string fb with
    | Some f -> Ok f
    | None -> Error (ctx (Printf.sprintf "unknown feedback %S" fb))
  in
  let* oracles =
    Json.field ~default:false "oracles" Json.to_bool json
    |> Result.map_error ctx
  in
  let* exec_cache =
    Json.field ~default:0 "exec_cache" Json.to_int json
    |> Result.map_error ctx
  in
  let* seed =
    Json.field ~default:1 "seed" Json.to_int json |> Result.map_error ctx
  in
  let campaign =
    { Store.sc_id = id; sc_fuzzer = fuzzer; sc_dialect = dialect;
      sc_quirks = quirks; sc_feedback = feedback; sc_oracles = oracles;
      sc_exec_cache = exec_cache; sc_seed = seed; sc_budget = budget }
  in
  (* Reject unknown fuzzer/dialect names at spec-parse time. *)
  let* _ = make ~campaign ~seed in
  Ok campaign

let of_json json =
  let* campaigns_json = Json.field "campaigns" Json.to_list json in
  let* () =
    if campaigns_json = [] then Error "spec has no campaigns" else Ok ()
  in
  let* campaigns =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest ->
        let* parsed = campaign_of_json c in
        go (parsed :: acc) rest
    in
    go [] campaigns_json
  in
  let* () =
    let seen = Hashtbl.create 8 in
    let rec go = function
      | [] -> Ok ()
      | (c : Store.campaign) :: rest ->
        if Hashtbl.mem seen c.sc_id then
          Error (Printf.sprintf "duplicate campaign id %S" c.sc_id)
        else begin
          Hashtbl.replace seen c.sc_id ();
          go rest
        end
    in
    go campaigns
  in
  let* total = Json.field "total_execs" Json.to_int json in
  let* () =
    if total > 0 then Ok () else Error "total_execs must be > 0"
  in
  let* round =
    Json.field ~default:Fuzz.Sync.default_interval "round_execs" Json.to_int
      json
  in
  let* () =
    if round > 0 then Ok () else Error "round_execs must be > 0"
  in
  let* workers = Json.field ~default:2 "workers" Json.to_int json in
  let* () = if workers > 0 then Ok () else Error "workers must be > 0" in
  let* policy_s = Json.field ~default:"bandit" "policy" Json.to_str json in
  let* policy =
    match policy_of_string policy_s with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown policy %S" policy_s)
  in
  let* ucb_c = Json.field ~default:0.5 "ucb_c" Json.to_float json in
  Ok
    { fs_campaigns = campaigns; fs_total_execs = total; fs_round_execs = round;
      fs_workers = workers; fs_policy = policy; fs_ucb_c = ucb_c }

let of_string content =
  let* json = Json.of_string (String.trim content) in
  of_json json

let to_json t =
  Json.Obj
    [ ("campaigns",
       Json.Arr (List.map Store.campaign_to_json t.fs_campaigns));
      ("total_execs", Json.Int t.fs_total_execs);
      ("round_execs", Json.Int t.fs_round_execs);
      ("workers", Json.Int t.fs_workers);
      ("policy", Json.Str (policy_to_string t.fs_policy));
      ("ucb_c", Json.Float t.fs_ucb_c) ]
