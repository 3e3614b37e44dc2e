(* The three logic-bug oracles, run against a fault-free replay of a
   coverage-increasing test case. Each oracle compares two executions
   that must agree; disagreement is a Violation.t. *)

open Sqlcore

type t = {
  s_profile : Minidb.Profile.t;  (* fault-free: crashes can never fire *)
}

type outcome = {
  oc_checks : (string * int) list;
  oc_violations : Violation.t list;
}

let oracle_names = [ "diff_plan"; "tlp"; "rewrite"; "isolation" ]

let create profile = { s_profile = Minidb.Profile.without_bugs profile }

(* --- row multisets -------------------------------------------------- *)

let cmp_row a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let c = ref 0 and i = ref 0 in
    while !c = 0 && !i < la do
      c := Storage.Value.compare_total a.(!i) b.(!i);
      incr i
    done;
    !c
  end

let multiset_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun a b -> cmp_row a b = 0)
       (List.sort cmp_row r1) (List.sort cmp_row r2)

(* --- plan-shape tags ------------------------------------------------ *)

let analyzed cat =
  match Hashtbl.find_opt cat.Minidb.Catalog.global_vars "__analyzed" with
  | Some (Storage.Value.Bool true) -> true
  | _ -> false

(* Mirrors eval_from: only a top-level single table sees the WHERE clause;
   join branches are scanned with [where:None]. The tag is a dedup key for
   Triage, so it only has to be deterministic and shape-sensitive. *)
let rec from_tags cat ~anal ~where acc = function
  | Ast.From_table { name; _ } ->
    let access =
      Minidb.Planner.choose_access cat ~analyzed:anal ~table:name ~where
    in
    Minidb.Planner.access_tag access :: acc
  | Ast.From_join { left; right; _ } ->
    from_tags cat ~anal ~where:None
      (from_tags cat ~anal ~where:None acc right)
      left
  | Ast.From_subquery _ -> 7 :: acc

let rec query_tags cat ~anal = function
  | Ast.Q_select s ->
    (match s.Ast.from with
     | None -> [ 8 ]
     | Some f -> List.rev (from_tags cat ~anal ~where:s.Ast.where [] f))
  | Ast.Q_values _ -> [ 9 ]
  | Ast.Q_compound (a, _, b) ->
    query_tags cat ~anal a @ query_tags cat ~anal b

let plan_tag cat q =
  String.concat ","
    (List.map string_of_int (query_tags cat ~anal:(analyzed cat) q))

let rec query_has_limit = function
  | Ast.Q_select s -> s.Ast.limit <> None || s.Ast.offset <> None
  | Ast.Q_values _ -> false
  | Ast.Q_compound (a, _, b) -> query_has_limit a || query_has_limit b

(* --- oracle 1: differential plan execution -------------------------- *)

(* Run the query twice on identical state: once with access-path selection
   pinned to Seq_scan, once with the planner's own choice. SELECT
   evaluation is pure in MiniDB (no nextval/random/now), so the two result
   multisets must coincide. Queries with LIMIT/OFFSET are skipped by the
   caller (different scan orders legitimately yield different subsets), as
   are aggregates and window functions (float accumulation order). *)
let check_diff_plan engine q ~sql =
  Minidb.Engine.set_plan_mode engine Minidb.Executor.Plan_force_seq;
  let seq = Minidb.Engine.query_rows engine q in
  Minidb.Engine.set_plan_mode engine Minidb.Executor.Plan_auto;
  let auto = Minidb.Engine.query_rows engine q in
  match seq, auto with
  | Ok rs, Ok ra when not (multiset_equal rs ra) ->
    let detail =
      if List.length rs <> List.length ra then
        Printf.sprintf
          "forced Seq_scan returns %d row(s), planner's choice returns %d"
          (List.length rs) (List.length ra)
      else "same cardinality but different row contents across access paths"
    in
    Some
      { Violation.vi_oracle = "diff_plan";
        vi_tag = plan_tag (Minidb.Engine.catalog engine) q;
        vi_detail = detail;
        vi_sql = sql }
  | _ -> None

(* --- oracle 2: ternary logic partitioning (TLP) --------------------- *)

(* SQLancer-style: WHERE p partitions the input into p / NOT p / p IS
   NULL, so SELECT ... WHERE p UNION ALL the two complements must have
   the cardinality of the unfiltered query. Sound under MiniDB's 3VL:
   [Not] negates truthiness and propagates NULL. *)
let tlp_where sel =
  match sel.Ast.where, sel.Ast.group_by, sel.Ast.having,
        sel.Ast.distinct, sel.Ast.limit, sel.Ast.offset with
  | Some p, [], None, false, None, None -> Some p
  | _ -> None

let check_tlp engine sel p ~sql =
  let part pred =
    Ast.Q_select { sel with Ast.where = Some pred; order_by = [] }
  in
  let partitions =
    Ast.Q_compound
      ( Ast.Q_compound (part p, Ast.Union_all, part (Ast.Unop (Ast.Not, p))),
        Ast.Union_all,
        part (Ast.Is_null (p, false)) )
  in
  let whole = Ast.Q_select { sel with Ast.where = None; order_by = [] } in
  match
    Minidb.Engine.query_rows engine partitions,
    Minidb.Engine.query_rows engine whole
  with
  | Ok rp, Ok rw when List.length rp <> List.length rw ->
    Some
      { Violation.vi_oracle = "tlp";
        vi_tag = plan_tag (Minidb.Engine.catalog engine) (Ast.Q_select sel);
        vi_detail =
          Printf.sprintf
            "p / NOT p / p IS NULL partitions yield %d row(s), unpartitioned \
             query yields %d"
            (List.length rp) (List.length rw);
        vi_sql = sql }
  | _ -> None

(* --- oracle 3: rewrite consistency ---------------------------------- *)

let dml_target = function
  | Ast.S_insert i | Ast.S_replace i -> Some (i.Ast.i_table, Ast.Ev_insert)
  | Ast.S_update u -> Some (u.Ast.u_table, Ast.Ev_update)
  | Ast.S_delete d -> Some (d.Ast.d_table, Ast.Ev_delete)
  | _ -> None

(* Executing the substituted statement directly is only equivalent to the
   rule path when the substitute is itself a plain DML whose written
   tables carry no rules or triggers: the rule path runs it at
   trigger_depth 1, so any nested hook would fire differently. DDL is
   excluded because restore_snapshot cannot undo it. *)
let rewrite_guard cat profile sub =
  (match sub with
   | Ast.S_insert _ | Ast.S_replace _ | Ast.S_update _ | Ast.S_delete _ ->
     true
   | _ -> false)
  && Minidb.Profile.supports profile (Ast.type_of_stmt sub)
  && List.for_all
       (fun tbl ->
          not
            (Hashtbl.fold
               (fun _ (r : Minidb.Catalog.rule) acc ->
                  acc || r.r_table = tbl)
               cat.Minidb.Catalog.rules false)
          && not
               (Hashtbl.fold
                  (fun _ (tr : Minidb.Catalog.trigger) acc ->
                     acc || tr.tr_table = tbl)
                  cat.Minidb.Catalog.triggers false))
       (Ast_util.tables_written sub)

(* Deterministic digest of the data state: tables (rows sorted), sequence
   values. Schema objects are untouched by the guarded statements. *)
let fingerprint (cat : Minidb.Catalog.t) =
  let buf = Buffer.create 256 in
  let render v = Storage.Value.type_name v ^ ":" ^ Storage.Value.to_display v in
  let tables =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) cat.tables [])
  in
  List.iter
    (fun (name, tbl) ->
       Buffer.add_string buf ("T " ^ name ^ "\n");
       let rows = List.sort cmp_row (Storage.Table.rows tbl) in
       List.iter
         (fun row ->
            Buffer.add_string buf
              (String.concat "|" (List.map render (Array.to_list row)));
            Buffer.add_char buf '\n')
         rows)
    tables;
  let seqs =
    List.sort compare
      (Hashtbl.fold
         (fun name (sq : Minidb.Catalog.sequence) acc ->
            (name, sq.sq_value) :: acc)
         cat.sequences [])
  in
  List.iter
    (fun (name, v) ->
       Buffer.add_string buf (Printf.sprintf "S %s=%d\n" name v))
    seqs;
  Buffer.contents buf

let event_name = function
  | Ast.Ev_insert -> "insert"
  | Ast.Ev_update -> "update"
  | Ast.Ev_delete -> "delete"

(* An INSTEAD NOTHING / INSTEAD NOTIFY rule replaces the DML entirely
   (apply_rule never reaches the plain path, triggers, or DO ALSO rules),
   so executing the statement must leave table data and sequences exactly
   as they were. *)
let check_rewrite_noop engine stmt (rule : Minidb.Catalog.rule) ~sql =
  let cat = Minidb.Engine.catalog engine in
  let fp0 = fingerprint cat in
  ignore (Minidb.Engine.exec_stmt engine stmt);
  let fp1 = fingerprint cat in
  if String.equal fp0 fp1 then None
  else
    Some
      { Violation.vi_oracle = "rewrite";
        vi_tag = rule.r_name ^ "/" ^ event_name rule.r_event;
        vi_detail =
          "DO INSTEAD NOTHING/NOTIFY rule path modified table data";
        vi_sql = sql }

(* snap0 -> rule-path exec -> fp_rule -> snap1 -> back to snap0 ->
   direct exec of the substitute -> fp_direct -> back to snap1, so the
   replay continues from the state a plain execution would have left. *)
let check_rewrite engine stmt (rule : Minidb.Catalog.rule) sub ~sql =
  let cat = Minidb.Engine.catalog engine in
  let snap0 = Minidb.Catalog.take_snapshot cat in
  ignore (Minidb.Engine.exec_stmt engine stmt);
  let fp_rule = fingerprint cat in
  let snap1 = Minidb.Catalog.take_snapshot cat in
  Minidb.Catalog.restore_snapshot cat snap0;
  ignore (Minidb.Engine.exec_stmt engine sub);
  let fp_direct = fingerprint cat in
  Minidb.Catalog.restore_snapshot cat snap1;
  if String.equal fp_rule fp_direct then None
  else
    Some
      { Violation.vi_oracle = "rewrite";
        vi_tag = rule.r_name ^ "/" ^ event_name rule.r_event;
        vi_detail =
          "DO INSTEAD rule path and direct execution of the substituted \
           statement leave different catalog states";
        vi_sql = sql }

(* --- driving a whole test case -------------------------------------- *)

let check t tc =
  let engine = Minidb.Engine.create ~profile:t.s_profile () in
  let cat = Minidb.Engine.catalog engine in
  let n_diff = ref 0 and n_tlp = ref 0 and n_rw = ref 0 in
  let vios = ref [] in
  let add v = vios := v :: !vios in
  let budget = ref Minidb.Limits.default.Minidb.Limits.max_statements in
  List.iter
    (fun stmt ->
       if !budget > 0 then begin
         decr budget;
         match stmt with
         | Ast.S_select q
           when Minidb.Profile.supports t.s_profile (Ast.type_of_stmt stmt)
                && (not (Ast_util.has_aggregate stmt))
                && (not (Ast_util.has_window_fn stmt))
                && not (query_has_limit q) ->
           let sql = Sql_printer.stmt stmt in
           incr n_diff;
           (match check_diff_plan engine q ~sql with
            | Some v -> add v
            | None -> ());
           (match q with
            | Ast.Q_select sel ->
              (match tlp_where sel with
               | Some p ->
                 incr n_tlp;
                 (match check_tlp engine sel p ~sql with
                  | Some v -> add v
                  | None -> ())
               | None -> ())
            | _ -> ())
           (* the query already ran under Plan_auto; SELECT is pure, so no
              further replay of this statement is needed *)
         | _ ->
           (match dml_target stmt with
            | Some (table, event)
              when Hashtbl.mem cat.Minidb.Catalog.tables table ->
              (match Minidb.Rewriter.rewrite_dml cat ~table ~event with
               | Minidb.Rewriter.Instead_stmt (rule, sub)
                 when rewrite_guard cat t.s_profile sub ->
                 incr n_rw;
                 let sql = Sql_printer.stmt stmt in
                 (match check_rewrite engine stmt rule sub ~sql with
                  | Some v -> add v
                  | None -> ())
               | Minidb.Rewriter.Instead_nothing rule
               | Minidb.Rewriter.Instead_notify (rule, _) ->
                 incr n_rw;
                 let sql = Sql_printer.stmt stmt in
                 (match check_rewrite_noop engine stmt rule ~sql with
                  | Some v -> add v
                  | None -> ())
               | _ -> ignore (Minidb.Engine.exec_stmt engine stmt))
            | _ -> ignore (Minidb.Engine.exec_stmt engine stmt))
       end)
    tc;
  { oc_checks =
      [ ("diff_plan", !n_diff); ("tlp", !n_tlp); ("rewrite", !n_rw) ];
    oc_violations = List.rev !vios }
