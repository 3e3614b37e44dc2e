type t = {
  seen : (string, unit) Hashtbl.t;
  mutable uniques : (Minidb.Fault.crash * Sqlcore.Ast.testcase option) list;
      (* reverse first-seen order *)
  mutable n_uniques : int;  (* = List.length uniques, kept O(1) *)
  mutable bug_ids_memo : string list option;
      (* sorted distinct bug ids; invalidated on unique insert *)
  mutable total : int;
  lseen : (string, unit) Hashtbl.t;
  mutable logic_uniques :
    (Oracle.Violation.t * Sqlcore.Ast.testcase option) list;
      (* reverse first-seen order *)
  mutable logic_total : int;
  (* Deterministic key logs: hashtable iteration order is unspecified,
     but the persisted dedup table must serialize identically run to
     run. Preloaded keys (farm resume) land here too, so a store saved
     from a resumed campaign carries the union of old and new keys. *)
  mutable key_log : string list;        (* reverse order *)
  mutable logic_key_log : string list;  (* reverse order *)
}

let create () =
  { seen = Hashtbl.create 32; uniques = []; n_uniques = 0;
    bug_ids_memo = None; total = 0;
    lseen = Hashtbl.create 16; logic_uniques = []; logic_total = 0;
    key_log = []; logic_key_log = [] }

let stack_key (c : Minidb.Fault.crash) = String.concat "|" c.c_stack

let record t ?testcase crash =
  t.total <- t.total + 1;
  let key = stack_key crash in
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.replace t.seen key ();
    t.key_log <- key :: t.key_log;
    t.uniques <- (crash, testcase) :: t.uniques;
    t.n_uniques <- t.n_uniques + 1;
    t.bug_ids_memo <- None;
    true
  end

let record_logic t ?testcase violation =
  t.logic_total <- t.logic_total + 1;
  let key = Oracle.Violation.key violation in
  if Hashtbl.mem t.lseen key then false
  else begin
    Hashtbl.replace t.lseen key ();
    t.logic_key_log <- key :: t.logic_key_log;
    t.logic_uniques <- (violation, testcase) :: t.logic_uniques;
    true
  end

let total_crashes t = t.total

let unique_with_cases t = List.rev t.uniques

let unique t = List.map fst (unique_with_cases t)

let unique_count t = t.n_uniques

let total_logic t = t.logic_total

let unique_logic t = List.rev t.logic_uniques

let logic_count t = List.length t.logic_uniques

(* The farm-resume fix: previously dedup keys existed only as live
   hashtable state rebuilt from scratch by each process, so a resumed
   campaign re-reported every pre-interruption finding as new. Preload
   marks persisted keys as seen without a representative. *)
let preload t ~crash_keys ~logic_keys =
  List.iter
    (fun key ->
       if not (Hashtbl.mem t.seen key) then begin
         Hashtbl.replace t.seen key ();
         t.key_log <- key :: t.key_log
       end)
    crash_keys;
  List.iter
    (fun key ->
       if not (Hashtbl.mem t.lseen key) then begin
         Hashtbl.replace t.lseen key ();
         t.logic_key_log <- key :: t.logic_key_log
       end)
    logic_keys

let crash_keys t = List.rev t.key_log

let logic_keys t = List.rev t.logic_key_log

let bug_ids t =
  match t.bug_ids_memo with
  | Some ids -> ids
  | None ->
    let ids =
      List.sort_uniq String.compare
        (List.map
           (fun ((c : Minidb.Fault.crash), _) -> c.c_bug.bug_id)
           t.uniques)
    in
    t.bug_ids_memo <- Some ids;
    ids
