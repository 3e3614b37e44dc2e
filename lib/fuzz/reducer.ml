open Sqlcore

type outcome = {
  r_testcase : Ast.testcase;
  r_tries : int;
  r_removed : int;
}

let crashes_with ~profile ~bug_id tc =
  let engine = Minidb.Engine.create ~profile () in
  match (Minidb.Engine.run_testcase engine tc).Minidb.Engine.rs_crash with
  | Some crash -> crash.Minidb.Fault.c_bug.Minidb.Fault.bug_id = bug_id
  | None -> false

(* Replace every literal with a simpler one where the property survives:
   readable repro cases use 0/''/NULL, not 22471185.000000. *)
let simplify_literals ~oracle ~oracle_candidate tries stmt_list =
  let simpler = function
    | Ast.L_int n when n <> 0 -> Some (Ast.L_int 0)
    | Ast.L_float _ -> Some (Ast.L_float 0.0)
    | Ast.L_string s when s <> "" -> Some (Ast.L_string "")
    | _ -> None
  in
  let current = ref stmt_list in
  List.iteri
    (fun i stmt ->
       let n_lits =
         Ast_util.fold_exprs
           (fun acc e -> match e with Ast.Lit _ -> acc + 1 | _ -> acc)
           0 stmt
       in
       for target = 0 to n_lits - 1 do
         let seen = ref (-1) in
         let stmt' =
           Ast_util.map_exprs
             (function
               | Ast.Lit l as e ->
                 incr seen;
                 if !seen = target then
                   match simpler l with
                   | Some l' -> Ast.Lit l'
                   | None -> e
                 else e
               | e -> e)
             (List.nth !current i)
         in
         if stmt' <> List.nth !current i && oracle () then begin
           let candidate =
             List.mapi (fun j s -> if j = i then stmt' else s) !current
           in
           incr tries;
           if oracle_candidate candidate then current := candidate
         end
       done)
    stmt_list;
  !current

(* Greedy repeated single-deletion until 1-minimal, element-type
   agnostic: test cases are [stmt list], schedules are
   [(session * stmt) list] — same shrink loop. Back-to-front so
   trailing junk goes first. Shared [tries] counter lets callers run
   further passes under one budget. *)
let delta_pass ~pred ~tries ~within_budget current =
  let progress = ref true in
  while !progress && within_budget () do
    progress := false;
    let n = List.length !current in
    let i = ref (n - 1) in
    while !i >= 0 && within_budget () do
      if List.length !current > 1 then begin
        let candidate = List.filteri (fun j _ -> j <> !i) !current in
        incr tries;
        if pred candidate then begin
          current := candidate;
          progress := true
        end
      end;
      decr i
    done
  done

let reduce_poly ~pred ?(max_tries = 2048) items =
  if not (pred items) then None
  else begin
    let tries = ref 1 in
    let current = ref items in
    delta_pass ~pred ~tries
      ~within_budget:(fun () -> !tries < max_tries)
      current;
    Some !current
  end

let reduce_with ~pred ?(max_tries = 2048) tc =
  let tries = ref 0 in
  (* budget check (no execution) and the interestingness oracle itself *)
  let within_budget () = !tries < max_tries in
  if not (pred tc) then { r_testcase = tc; r_tries = 1; r_removed = 0 }
  else begin
    tries := 1;
    (* Pass 1: drop statements until 1-minimal (greedy, repeated). *)
    let current = ref tc in
    delta_pass ~pred ~tries ~within_budget current;
    (* Pass 2: simplify literals inside the survivors. *)
    let simplified =
      simplify_literals ~oracle:within_budget ~oracle_candidate:pred tries
        !current
    in
    let simplified = if pred simplified then simplified else !current in
    { r_testcase = simplified;
      r_tries = !tries;
      r_removed = List.length tc - List.length simplified }
  end

let reduce ~profile ?max_tries ~bug_id tc =
  reduce_with ~pred:(crashes_with ~profile ~bug_id) ?max_tries tc
