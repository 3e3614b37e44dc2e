(* Commit-order linearization check for interleaved schedules.

   An interleaved execution of K sessions is serializable when some
   serial order of its transactions reproduces the same final data
   state. We test the canonical candidate — transactions ordered by
   their commit points in the schedule (units of autocommit statements
   are their own transactions, ordered by their execution point) — by
   replaying the units serially on a fresh fault-free engine and
   comparing data-state fingerprints. A mismatch means the interleaved
   run exposed non-serializable behaviour: a lost update, a dirty read
   made durable, a rollback that clobbered a concurrent commit.

   MiniDB's transaction machinery makes these real findings, not
   oracle noise: writes inside a transaction are immediately visible to
   every session (no write isolation), and ROLLBACK restores a
   whole-table snapshot taken at BEGIN — erasing writes other sessions
   committed in between. Single-session runs can never diverge (the
   serial replay IS the original order), so the oracle only speaks on
   genuinely interleaved schedules. *)

open Sqlcore

(* One serializability unit: a txn (BEGIN..COMMIT/ROLLBACK) or a single
   autocommit statement, with the schedule index where it commits. *)
type unit_ = {
  u_session : int;
  u_stmts : Ast.stmt list;  (* in session order *)
  u_commit : int;           (* schedule index of the unit's last stmt *)
}

let is_begin = function Ast.S_begin -> true | _ -> false

let ends_txn = function
  | Ast.S_commit | Ast.S_rollback -> true
  | _ -> false

(* Split one session's (schedule_index, stmt) trace into units. A
   trailing open transaction gets an implicit COMMIT: the interleaved
   engine never rolled it back, so its writes are part of the observed
   state and must be part of the serial candidate too. *)
let units_of_session sid steps =
  let units = ref [] in
  let open_txn = ref [] in  (* reversed (idx, stmt) of the current txn *)
  let flush_txn () =
    match !open_txn with
    | [] -> ()
    | rev ->
      let stmts = List.rev_map snd rev in
      let commit = fst (List.hd rev) in
      units :=
        { u_session = sid; u_stmts = stmts @ [ Ast.S_commit ];
          u_commit = commit }
        :: !units;
      open_txn := []
  in
  List.iter
    (fun (idx, stmt) ->
       match !open_txn with
       | [] ->
         if is_begin stmt then open_txn := [ (idx, stmt) ]
         else
           units :=
             { u_session = sid; u_stmts = [ stmt ]; u_commit = idx }
             :: !units
       | _ ->
         open_txn := (idx, stmt) :: !open_txn;
         if ends_txn stmt then begin
           let rev = !open_txn in
           units :=
             { u_session = sid; u_stmts = List.rev_map snd rev;
               u_commit = idx }
             :: !units;
           open_txn := []
         end)
    steps;
  flush_txn ();
  List.rev !units

let commit_order_units steps =
  let by_session = Hashtbl.create 8 in
  Array.iteri
    (fun idx (sid, stmt) ->
       let prev =
         match Hashtbl.find_opt by_session sid with
         | Some l -> l
         | None -> []
       in
       Hashtbl.replace by_session sid ((idx, stmt) :: prev))
    steps;
  let sids =
    List.sort compare
      (Hashtbl.fold (fun sid _ acc -> sid :: acc) by_session [])
  in
  let units =
    List.concat_map
      (fun sid ->
         units_of_session sid (List.rev (Hashtbl.find by_session sid)))
      sids
  in
  (* Commit points are distinct schedule indexes, so the order is a
     total one and the sort is deterministic. *)
  List.sort (fun a b -> compare a.u_commit b.u_commit) units

(* Table/sequence sections on which two fingerprints disagree — the
   bounded dedup tag. Fingerprint lines are "T name" headers followed by
   row lines, and "S name=v" lines. *)
let diverging_sections fp_a fp_b =
  let sections fp =
    let tbl = Hashtbl.create 8 in
    let current = ref None in
    List.iter
      (fun line ->
         if String.length line > 2 && String.sub line 0 2 = "T " then begin
           let name = String.sub line 2 (String.length line - 2) in
           current := Some name;
           if not (Hashtbl.mem tbl ("T:" ^ name)) then
             Hashtbl.replace tbl ("T:" ^ name) []
         end
         else if String.length line > 2 && String.sub line 0 2 = "S " then
           Hashtbl.replace tbl ("S:" ^ line) []
         else
           match !current with
           | Some name ->
             Hashtbl.replace tbl ("T:" ^ name)
               (line :: Hashtbl.find tbl ("T:" ^ name))
           | None -> ())
      (String.split_on_char '\n' fp);
    tbl
  in
  let a = sections fp_a and b = sections fp_b in
  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  let all = List.sort_uniq compare (keys a @ keys b) in
  List.filter
    (fun k -> Hashtbl.find_opt a k <> Hashtbl.find_opt b k)
    all

let check ~profile ~(steps : (int * Ast.stmt) array) ~observed () =
  let units = commit_order_units steps in
  let engine =
    Minidb.Engine.create ~profile:(Minidb.Profile.without_bugs profile) ()
  in
  let cat = Minidb.Engine.catalog engine in
  let current = ref (-1) in
  List.iter
    (fun u ->
       if u.u_session <> !current then begin
         (* context-switch connection state so SET/PREPARE/HANDLER
            statements stay session-scoped in the serial candidate
            exactly as they were in the interleaved run *)
         if !current >= 0 then Minidb.Catalog.park_session cat !current;
         Minidb.Catalog.unpark_session cat u.u_session;
         current := u.u_session
       end;
       List.iter
         (fun stmt -> ignore (Minidb.Engine.exec_stmt engine stmt))
         u.u_stmts)
    units;
  let serial = Suite.fingerprint cat in
  if String.equal serial observed then None
  else
    let tag =
      match diverging_sections serial observed with
      | [] -> "state"
      | secs -> String.concat "," secs
    in
    let sessions =
      List.sort_uniq compare (List.map (fun u -> u.u_session) units)
    in
    Some
      { Violation.vi_oracle = "isolation";
        vi_tag = tag;
        vi_detail =
          Printf.sprintf
            "interleaved execution of %d session(s) (%d unit(s)) is not \
             serializable in commit order: data state diverges on %s"
            (List.length sessions) (List.length units) tag;
        vi_sql =
          String.concat "\n"
            (List.map
               (fun (sid, stmt) ->
                  Printf.sprintf "/*s%d*/ %s" sid (Sql_printer.stmt stmt))
               (Array.to_list steps)) }
