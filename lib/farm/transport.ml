(* The farm control protocol: line-framed JSON over worker stdin/stdout
   (DESIGN.md §17). One value per line, canonical Telemetry.Json
   rendering, so the same codec the telemetry sinks use frames the
   control plane — and a malformed line is an ordinary parse error the
   coordinator can quarantine on, never a crash. *)

module Json = Telemetry.Json

type command =
  | Run of { rc_campaign : string; rc_execs : int; rc_round : int }
  | Shutdown

type round_report = {
  rr_campaign : string;
  rr_round : int;
  rr_allocated : int;
  rr_executed : int;
  rr_execs_done : int;
  rr_branches : int;
  rr_coverage_keys : int;
  rr_new_keys : int;
  rr_crashes_total : int;
  rr_crashes_unique : int;
  rr_logic_unique : int;
  rr_bugs : string list;
  rr_generation : int;
  rr_finished : bool;
  rr_reloads : int;
  rr_reload_skipped : int;
  rr_error : string option;
}

type message =
  | Hello of { h_worker : int; h_pid : int }
  | Heartbeat of { hb_worker : int; hb_execs : int }
  | Round of round_report
  | Fatal of string

(* --- encoding -------------------------------------------------------- *)

let command_to_json = function
  | Run r ->
    Json.Obj
      [ ("cmd", Json.Str "run"); ("campaign", Json.Str r.rc_campaign);
        ("execs", Json.Int r.rc_execs); ("round", Json.Int r.rc_round) ]
  | Shutdown -> Json.Obj [ ("cmd", Json.Str "shutdown") ]

let round_to_json r =
  Json.Obj
    [ ("campaign", Json.Str r.rr_campaign); ("round", Json.Int r.rr_round);
      ("allocated", Json.Int r.rr_allocated);
      ("executed", Json.Int r.rr_executed);
      ("execs_done", Json.Int r.rr_execs_done);
      ("branches", Json.Int r.rr_branches);
      ("coverage_keys", Json.Int r.rr_coverage_keys);
      ("new_keys", Json.Int r.rr_new_keys);
      ("crashes_total", Json.Int r.rr_crashes_total);
      ("crashes_unique", Json.Int r.rr_crashes_unique);
      ("logic_unique", Json.Int r.rr_logic_unique);
      ("bugs", Json.Arr (List.map (fun b -> Json.Str b) r.rr_bugs));
      ("generation", Json.Int r.rr_generation);
      ("finished", Json.Bool r.rr_finished);
      ("reloads", Json.Int r.rr_reloads);
      ("reload_skipped", Json.Int r.rr_reload_skipped);
      ("error",
       match r.rr_error with Some e -> Json.Str e | None -> Json.Null) ]

let message_to_json = function
  | Hello h ->
    Json.Obj
      [ ("msg", Json.Str "hello"); ("worker", Json.Int h.h_worker);
        ("pid", Json.Int h.h_pid) ]
  | Heartbeat h ->
    Json.Obj
      [ ("msg", Json.Str "heartbeat"); ("worker", Json.Int h.hb_worker);
        ("execs", Json.Int h.hb_execs) ]
  | Round r -> (
      match round_to_json r with
      | Json.Obj fields -> Json.Obj (("msg", Json.Str "round") :: fields)
      | _ -> assert false)
  | Fatal e -> Json.Obj [ ("msg", Json.Str "fatal"); ("error", Json.Str e) ]

let command_to_line c = Json.to_string (command_to_json c)
let message_to_line m = Json.to_string (message_to_json m)

(* --- decoding -------------------------------------------------------- *)

let ( let* ) = Result.bind

let command_of_json json =
  let* cmd = Json.field "cmd" Json.to_str json in
  match cmd with
  | "run" ->
    let* campaign = Json.field "campaign" Json.to_str json in
    let* execs = Json.field "execs" Json.to_int json in
    let* round = Json.field "round" Json.to_int json in
    Ok (Run { rc_campaign = campaign; rc_execs = execs; rc_round = round })
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown command %S" other)

let round_of_json json =
  let* campaign = Json.field "campaign" Json.to_str json in
  let* round = Json.field "round" Json.to_int json in
  let* allocated = Json.field "allocated" Json.to_int json in
  let* executed = Json.field "executed" Json.to_int json in
  let* execs_done = Json.field "execs_done" Json.to_int json in
  let* branches = Json.field "branches" Json.to_int json in
  let* coverage_keys = Json.field "coverage_keys" Json.to_int json in
  let* new_keys = Json.field "new_keys" Json.to_int json in
  let* crashes_total = Json.field "crashes_total" Json.to_int json in
  let* crashes_unique = Json.field "crashes_unique" Json.to_int json in
  let* logic_unique = Json.field "logic_unique" Json.to_int json in
  let* bugs = Json.field "bugs" Json.to_str_list json in
  let* generation = Json.field "generation" Json.to_int json in
  let* finished = Json.field "finished" Json.to_bool json in
  let* reloads = Json.field "reloads" Json.to_int json in
  let* reload_skipped = Json.field "reload_skipped" Json.to_int json in
  let* error =
    Json.field "error"
      (function
        | Json.Null -> Some None
        | Json.Str e -> Some (Some e)
        | _ -> None)
      json
  in
  Ok
    { rr_campaign = campaign; rr_round = round; rr_allocated = allocated;
      rr_executed = executed; rr_execs_done = execs_done;
      rr_branches = branches; rr_coverage_keys = coverage_keys;
      rr_new_keys = new_keys; rr_crashes_total = crashes_total;
      rr_crashes_unique = crashes_unique;
      rr_logic_unique = logic_unique; rr_bugs = bugs;
      rr_generation = generation; rr_finished = finished;
      rr_reloads = reloads; rr_reload_skipped = reload_skipped;
      rr_error = error }

let message_of_json json =
  let* msg = Json.field "msg" Json.to_str json in
  match msg with
  | "hello" ->
    let* worker = Json.field "worker" Json.to_int json in
    let* pid = Json.field "pid" Json.to_int json in
    Ok (Hello { h_worker = worker; h_pid = pid })
  | "heartbeat" ->
    let* worker = Json.field "worker" Json.to_int json in
    let* execs = Json.field "execs" Json.to_int json in
    Ok (Heartbeat { hb_worker = worker; hb_execs = execs })
  | "round" ->
    let* r = round_of_json json in
    Ok (Round r)
  | "fatal" ->
    let* e = Json.field "error" Json.to_str json in
    Ok (Fatal e)
  | other -> Error (Printf.sprintf "unknown message %S" other)

let command_of_line line =
  let* json = Json.of_string (String.trim line) in
  command_of_json json

let message_of_line line =
  let* json = Json.of_string (String.trim line) in
  message_of_json json
