open Sqlcore
open Sqlcore.Ast
open Storage

type result =
  | Rows of string list * Value.t array list
  | Affected of int
  | Done of string

(* ------------------------------------------------------------------ *)
(* Probe sites                                                         *)
(* ------------------------------------------------------------------ *)

let reg = Coverage.Sites.register
let s_exec = reg "exec.dispatch"
let s_scan = reg "exec.scan"
let s_access = reg "exec.access_path"
let s_join = reg "exec.join"
let s_where = reg "exec.where"
let s_group = reg "exec.group"
let s_having = reg "exec.having"
let s_window = reg "exec.window"
let s_sort = reg "exec.sort"
let s_distinct = reg "exec.distinct"
let s_limit = reg "exec.limit"
let s_setop = reg "exec.setop"
let s_proj = reg "exec.projection"
let s_insert = reg "exec.insert"
let s_constraint = reg "exec.constraint"
let s_update = reg "exec.update"
let s_delete = reg "exec.delete"
let s_trigger = reg "exec.trigger"
let s_rule = reg "exec.rule_rewrite"
let s_view = reg "exec.view_expand"
let s_cte = reg "exec.cte"
let s_ddl = reg "exec.ddl"
let s_txn = reg "exec.txn"
let s_dcl = reg "exec.dcl"
let s_util = reg "exec.util"
let s_copy = reg "exec.copy"
let s_notify = reg "exec.notify"
let s_handler = reg "exec.handler"
let s_prepare = reg "exec.prepare"
let s_err = reg "exec.error_path"
let s_seq = reg "exec.sequence"
let s_state = reg "exec.state_shape"
let s_explain = reg "exec.explain"
let s_show = reg "exec.show"
let s_values = reg "exec.values"

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type cte_rel = { cr_headers : string list; cr_rows : Value.t array list }

type plan_mode = Plan_auto | Plan_force_seq

type ctx = {
  cat : Catalog.t;
  profile : Profile.t;
  limits : Limits.t;
  cov : Coverage.Bitmap.t;
  flags : (string, unit) Hashtbl.t;  (* per-statement transient flags *)
  mutable query_depth : int;
  mutable trigger_depth : int;
  mutable shape_depth : int;  (* header/shape computation recursion *)
  mutable ctes : (string * cte_rel) list;
  mutable rows_scanned : int;  (* rows fetched from relations, telemetry *)
  mutable plan_mode : plan_mode;
      (* Plan_force_seq pins every base-table scan to Seq_scan — the
         differential-plan oracle's reference execution *)
  mutable scalar : Expr_eval.env option;
      (* the column-free evaluation env, built on first use *)
  mutable trigger_lists : trigger_list list;
      (* [fire_triggers]'s folds, kept for the statement (see there) *)
}

and trigger_list = {
  tl_table : string;
  tl_event : trig_event;
  tl_timing : trig_timing;
  tl_triggers : Catalog.trigger list;
}

let create_ctx ~cat ~profile ~limits ~cov =
  { cat; profile; limits; cov; flags = Hashtbl.create 8; query_depth = 0;
    trigger_depth = 0; shape_depth = 0; ctes = []; rows_scanned = 0;
    plan_mode = Plan_auto; scalar = None; trigger_lists = [] }

let set_plan_mode ctx mode = ctx.plan_mode <- mode

(* Everything a statement boundary can observe. [flags], [ctes] and the
   recursion depths are per-statement transients — [reset_transient]
   clears them before each statement, and they are empty/zero at every
   boundary — so only the catalog, the cumulative scan counter and the
   plan mode need to survive a snapshot. *)
type state = {
  st_cat : Catalog.t;
  st_rows_scanned : int;
  st_plan_mode : plan_mode;
  st_profile : Profile.t;
  st_limits : Limits.t;
}

let capture ctx =
  { st_cat = Catalog.deep_copy ctx.cat;
    st_rows_scanned = ctx.rows_scanned;
    st_plan_mode = ctx.plan_mode;
    st_profile = ctx.profile;
    st_limits = ctx.limits }

(* Copies the stored catalog again (O(#objects): rows are shared
   copy-on-write), so the [state] value stays pristine no matter how
   the restored context is mutated afterwards. *)
let restore st ~cov =
  { cat = Catalog.deep_copy st.st_cat;
    profile = st.st_profile;
    limits = st.st_limits;
    cov;
    flags = Hashtbl.create 8;
    query_depth = 0;
    trigger_depth = 0;
    shape_depth = 0;
    ctes = [];
    rows_scanned = st.st_rows_scanned;
    plan_mode = st.st_plan_mode;
    scalar = None;
    trigger_lists = [] }

let state_bytes st = Catalog.approx_bytes st.st_cat

let rows_scanned ctx = ctx.rows_scanned

let catalog ctx = ctx.cat

let probe ctx site key = Coverage.Bitmap.probe ctx.cov ~site ~key

let set_flag ctx name = Hashtbl.replace ctx.flags name ()

let flag ctx name = Hashtbl.mem ctx.flags name

let reset_transient ctx =
  Hashtbl.reset ctx.flags;
  ctx.ctes <- [];
  ctx.trigger_lists <- []

(* The table's triggers for [event] and [timing], in fold order. A
   statement fires the same few (table, event, timing) keys once per
   row, so each fold is kept until the statement ends ([reset_transient])
   or [exec] starts a statement other than DML or a query: every change
   to the trigger table (CREATE/DROP TRIGGER, DROP TABLE's cascade,
   RENAME TABLE and ALTER ... RENAME TO) is such a statement, wherever
   it runs from — a rule action, EXECUTE or a top-level statement. An
   unchanged table folds in the same order, so a kept list equals a
   fresh fold. *)
let triggers_for ctx table event timing =
  if Hashtbl.length ctx.cat.Catalog.triggers = 0 then []
  else
    let rec find = function
      | tl :: _
        when tl.tl_event = event && tl.tl_timing = timing
             && String.equal tl.tl_table table ->
        tl.tl_triggers
      | _ :: rest -> find rest
      | [] ->
        let trs =
          Hashtbl.fold
            (fun _ (t : Catalog.trigger) acc ->
               if String.equal t.tr_table table && t.tr_event = event
                  && t.tr_timing = timing
               then t :: acc
               else acc)
            ctx.cat.Catalog.triggers []
        in
        ctx.trigger_lists <-
          { tl_table = table; tl_event = event; tl_timing = timing;
            tl_triggers = trs }
          :: ctx.trigger_lists;
        trs
    in
    find ctx.trigger_lists

let vkind_of = function
  | Value.Null -> 0
  | Value.Int _ -> 1
  | Value.Float _ -> 2
  | Value.Text _ -> 3
  | Value.Bool _ -> 4

let row_sig row =
  (* type signature of up to the first three cells *)
  let n = Array.length row in
  let k i = if i < n then vkind_of row.(i) else 5 in
  (k 0 * 36) + (k 1 * 6) + k 2

let bucket n =
  if n = 0 then 0
  else if n = 1 then 1
  else if n <= 4 then 2
  else if n <= 16 then 3
  else if n <= 64 then 4
  else 5

(* A compact fingerprint of catalog shape, mixed into many probe keys so
   that the same statement in a differently-shaped database covers
   different cells. *)
let state_shape ctx =
  let c = ctx.cat in
  let bit b i = if b then 1 lsl i else 0 in
  bit (Hashtbl.length c.Catalog.triggers > 0) 0
  lor bit (Hashtbl.length c.Catalog.rules > 0) 1
  lor bit (Hashtbl.length c.Catalog.views > 0) 2
  lor bit (Hashtbl.length c.Catalog.indexes > 0) 3
  lor bit c.Catalog.in_txn 4
  lor bit (Hashtbl.length c.Catalog.locks > 0) 5

let analyzed ctx =
  match Hashtbl.find_opt ctx.cat.Catalog.global_vars "__analyzed" with
  | Some (Value.Bool true) -> true
  | _ -> false

let state_pred ctx name =
  let c = ctx.cat in
  match name with
  | "in_txn" -> c.Catalog.in_txn
  | "has_trigger" -> Hashtbl.length c.Catalog.triggers > 0
  | "has_rule" -> Hashtbl.length c.Catalog.rules > 0
  | "has_view" -> Hashtbl.length c.Catalog.views > 0
  | "has_matview" ->
    Hashtbl.fold
      (fun _ (v : Catalog.view) acc -> acc || v.v_materialized)
      c.Catalog.views false
  | "has_index" -> Hashtbl.length c.Catalog.indexes > 0
  | "has_sequence" -> Hashtbl.length c.Catalog.sequences > 0
  | "has_temp_table" ->
    Hashtbl.fold
      (fun _ t acc -> acc || Table.is_temp t)
      c.Catalog.tables false
  | "has_user" -> Hashtbl.length c.Catalog.users > 1
  | "locked" -> Hashtbl.length c.Catalog.locks > 0
  | "listening" -> c.Catalog.listening <> []
  | "notify_pending" -> c.Catalog.notify_queue <> []
  | "has_savepoint" -> c.Catalog.savepoints <> []
  | "handler_open" -> Hashtbl.length c.Catalog.handlers > 0
  | "has_prepared" -> Hashtbl.length c.Catalog.prepared > 0
  | "multi_db" -> Hashtbl.length c.Catalog.databases > 1
  | "many_tables" -> Hashtbl.length c.Catalog.tables > 3
  | "analyzed" -> analyzed ctx
  | "non_root" -> c.Catalog.current_user <> "root"
  | "big_table" ->
    Hashtbl.fold
      (fun _ t acc -> acc || Table.row_count t > 100)
      c.Catalog.tables false
  | "empty_table_exists" ->
    Hashtbl.fold
      (fun _ t acc -> acc || Table.row_count t = 0)
      c.Catalog.tables false
  | name -> flag ctx name

(* ------------------------------------------------------------------ *)
(* Row environments                                                    *)
(* ------------------------------------------------------------------ *)

type binding = {
  b_alias : string;
  b_cols : string array;
  b_vals : Value.t array;
}

type env_row = binding list

(* One SELECT's window plan for one OVER clause whose PARTITION BY and
   ORDER BY keys are all columns or literals. Evaluating such keys fires
   no probe and has no other effect, so partitioning once and sorting
   each partition once gives exactly what the per-row path computes. *)
type win_part = {
  pt_members : int list;  (* row indexes, ascending *)
  mutable pt_sorted : int array option;  (* window order, on first use *)
}

type win_plan = {
  wp_part_of : int array;  (* row index -> partition *)
  wp_parts : win_part array;
  wp_pos : int array;  (* row index -> place in its window order *)
  wp_rank : int array;
  wp_dense : int array;
}

(* Per SELECT: [None] for an OVER clause the per-row path serves. *)
type win_plans = (over_clause * win_plan option) list ref

module Kmap = Map.Make (Index.Key)
module Iset = Set.Make (Int)
module Vset = Set.Make (struct
    type t = Value.t
    let compare = Value.compare_total
  end)
module Sset = Set.Make (struct
    type t = string list
    let compare = compare
  end)

let resolve_col (row : env_row) q name =
  match q with
  | Some alias -> (
      match List.find_opt (fun b -> String.equal b.b_alias alias) row with
      | None -> None
      | Some b ->
        let rec loop i =
          if i >= Array.length b.b_cols then None
          else if String.equal b.b_cols.(i) name then Some b.b_vals.(i)
          else loop (i + 1)
        in
        loop 0)
  | None ->
    (* The first binding holding [name] wins: lax ambiguity resolution,
       MySQL-style. *)
    let rec in_binding b i =
      if i >= Array.length b.b_cols then None
      else if String.equal b.b_cols.(i) name then Some b.b_vals.(i)
      else in_binding b (i + 1)
    in
    let rec first = function
      | [] -> None
      | b :: rest -> (
          match in_binding b 0 with None -> first rest | hit -> hit)
    in
    first row

let null_binding b =
  { b with b_vals = Array.map (fun _ -> Value.Null) b.b_vals }

let col_names table = Array.map (fun c -> c.Table.c_name) (Table.cols table)

(* Where a FROM relation's rows come from (see [bind_rows]). *)
type rel_source = Rel_table | Rel_subquery | Rel_cte | Rel_view

(* ------------------------------------------------------------------ *)
(* Aggregate machinery                                                 *)
(* ------------------------------------------------------------------ *)

(* Does this expression use an aggregate at the current query level
   (not inside a subquery)? *)
let rec expr_has_agg = function
  | Agg _ -> true
  | Lit _ | Col _ | Exists _ | Subquery _ -> false
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> expr_has_agg a
  | Binop (_, a, b) -> expr_has_agg a || expr_has_agg b
  | Fn (_, args) -> List.exists expr_has_agg args
  | Case (whens, else_) ->
    List.exists (fun (c, v) -> expr_has_agg c || expr_has_agg v) whens
    || (match else_ with None -> false | Some e -> expr_has_agg e)
  | In_list { e; items; _ } -> expr_has_agg e || List.exists expr_has_agg items
  | Between { e; lo; hi; _ } ->
    expr_has_agg e || expr_has_agg lo || expr_has_agg hi
  | Like { e; pat; _ } -> expr_has_agg e || expr_has_agg pat
  | Win { args; _ } -> List.exists expr_has_agg args

let rec expr_has_win = function
  | Win _ -> true
  | Agg (_, _, Some a) -> expr_has_win a
  | Agg (_, _, None) | Lit _ | Col _ | Exists _ | Subquery _ -> false
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> expr_has_win a
  | Binop (_, a, b) -> expr_has_win a || expr_has_win b
  | Fn (_, args) -> List.exists expr_has_win args
  | Case (whens, else_) ->
    List.exists (fun (c, v) -> expr_has_win c || expr_has_win v) whens
    || (match else_ with None -> false | Some e -> expr_has_win e)
  | In_list { e; items; _ } -> expr_has_win e || List.exists expr_has_win items
  | Between { e; lo; hi; _ } ->
    expr_has_win e || expr_has_win lo || expr_has_win hi
  | Like { e; pat; _ } -> expr_has_win e || expr_has_win pat

let proj_exprs projs =
  List.filter_map (function Proj (e, _) -> Some e | Star | Star_of _ -> None)
    projs

(* ------------------------------------------------------------------ *)
(* Main recursive machinery                                            *)
(* ------------------------------------------------------------------ *)

let rec scalar_env ctx : Expr_eval.env =
  match ctx.scalar with
  | Some env -> env
  | None ->
    let env : Expr_eval.env =
      { cols = (fun _ _ -> None);
        run_query = (fun q -> run_query ctx q);
        agg = Expr_eval.no_agg;
        win = Expr_eval.no_win;
        probe = (fun ~site ~key -> probe ctx site key) }
    in
    ctx.scalar <- Some env;
    env

and row_env ctx (row : env_row) : Expr_eval.env =
  { (scalar_env ctx) with
    cols = (fun q name -> resolve_col row q name) }

and eval_scalar ctx e = Expr_eval.eval (scalar_env ctx) e

(* --- headers ------------------------------------------------------- *)

(* Header and shape computation never evaluates rows, so a
   self-referencing or cyclic view would make it diverge: past the
   evaluator's depth bound it answers [over] instead of recursing. *)
and shape_bounded : 'a 'b. ctx -> over:'b -> (ctx -> 'a -> 'b) -> 'a -> 'b =
  fun ctx ~over f x ->
  if ctx.shape_depth > ctx.limits.Limits.max_view_depth + 8 then over
  else begin
    ctx.shape_depth <- ctx.shape_depth + 1;
    let result = f ctx x in
    ctx.shape_depth <- ctx.shape_depth - 1;
    result
  end

and headers_of_query ctx (q : query) : string list =
  shape_bounded ctx ~over:[ "c1" ]
    (fun ctx -> function
       | Q_values rows ->
         let n = match rows with [] -> 0 | r :: _ -> List.length r in
         List.init n (fun i -> Printf.sprintf "column%d" (i + 1))
       | Q_compound (a, _, _) -> headers_of_query ctx a
       | Q_select s ->
         List.concat_map
           (fun p ->
              match (p, s.from) with
              | Star, None -> [ "star" ]
              | Star, Some f ->
                List.concat_map
                  (fun b -> Array.to_list b.b_cols)
                  (shape_of_from ctx f)
              | Star_of t, None -> [ t ^ ".star" ]
              | Star_of t, Some f -> (
                  match
                    List.find_opt
                      (fun b -> String.equal b.b_alias t)
                      (shape_of_from ctx f)
                  with
                  | None -> [ t ^ ".star" ]
                  | Some b -> Array.to_list b.b_cols)
              | Proj (_, Some alias), _ -> [ alias ]
              | Proj (Col (_, c), None), _ -> [ c ]
              | Proj (_, None), _ -> [ "expr" ])
           s.projs)
    q

(* The alias/column shape of a FROM clause, without evaluating rows. *)
and shape_of_from ctx (f : from_item) : binding list =
  let shape alias cols =
    [ { b_alias = alias; b_cols = cols;
        b_vals = Array.map (fun _ -> Value.Null) cols } ]
  in
  shape_bounded ctx ~over:[]
    (fun ctx -> function
       | From_table { name; alias } ->
         shape (Option.value ~default:name alias)
           (match List.assoc_opt name ctx.ctes with
            | Some rel -> Array.of_list rel.cr_headers
            | None -> (
                match Hashtbl.find_opt ctx.cat.Catalog.views name with
                | Some v -> Array.of_list (headers_of_query ctx v.v_query)
                | None -> (
                    match Hashtbl.find_opt ctx.cat.Catalog.tables name with
                    | Some t -> col_names t
                    | None -> [||])))
       | From_join { left; right; _ } ->
         shape_of_from ctx left @ shape_of_from ctx right
       | From_subquery { q; alias } ->
         shape alias (Array.of_list (headers_of_query ctx q)))
    f

(* --- FROM evaluation ------------------------------------------------ *)

and eval_from ctx ~where (f : from_item) : env_row list =
  match f with
  | From_table { name; alias } -> (
      let alias = Option.value ~default:name alias in
      (* CTE relations shadow everything, then views, then tables. *)
      match List.assoc_opt name ctx.ctes with
      | Some rel ->
        bind_rows ctx Rel_cte alias (Array.of_list rel.cr_headers) rel.cr_rows
      | None -> (
          match Hashtbl.find_opt ctx.cat.Catalog.views name with
          | Some v -> eval_view ctx v alias
          | None ->
            let table = Catalog.find_table ctx.cat name in
            check_lock ctx name `Read;
            let rows = scan_table ctx name table ~where in
            bind_rows ctx Rel_table alias (col_names table) rows))
  | From_subquery { q; alias } ->
    let rows = run_query ctx q in
    bind_rows ctx Rel_subquery alias
      (Array.of_list (headers_of_query ctx q)) rows
  | From_join { left; kind; right; on } ->
    let lrows = eval_from ctx ~where:None left in
    let rrows = eval_from ctx ~where:None right in
    join_rows ctx kind on left right lrows rrows

(* A base table's rows through the planner's access path. *)
and scan_table ctx name table ~where =
  let access =
    match ctx.plan_mode with
    | Plan_force_seq -> Planner.Seq_scan
    | Plan_auto ->
      Planner.choose_access ctx.cat ~analyzed:(analyzed ctx) ~table:name
        ~where
  in
  probe ctx s_access ((Planner.access_tag access * 8) lor state_shape ctx);
  match access with
  | Planner.Empty_short ->
    set_flag ctx "empty_scan";
    []
  | Planner.Index_eq (idx_name, key_expr) -> (
      set_flag ctx "index_scan";
      match Hashtbl.find_opt ctx.cat.Catalog.indexes idx_name with
      | None -> Table.rows table
      | Some spec ->
        let key = eval_scalar ctx key_expr in
        let rowids = Index.find (Catalog.index_data spec) [ key ] in
        let rowids =
          (* test-only planted planner bug: the index path silently
             loses its first match *)
          if Profile.quirk ctx.profile "index_eq_skips_first" then
            match rowids with [] -> [] | _ :: tl -> tl
          else rowids
        in
        List.filter_map (Table.find_row table) rowids)
  | Planner.Seq_scan -> Table.rows table

(* The one place a FROM relation's rows become bindings. Table and
   subquery rows count towards [rows_scanned] and fire the scan probe;
   CTE rows fire the CTE probe. Subquery and view rows are cut or
   NULL-padded to the header width; CTE rows are bound as they are. *)
and bind_rows ctx source alias cols rows : env_row list =
  (match source with
   | Rel_table | Rel_subquery ->
     let n = List.length rows in
     ctx.rows_scanned <- ctx.rows_scanned + n;
     probe ctx s_scan ((if source = Rel_subquery then 16 else 0) + bucket n)
   | Rel_cte -> probe ctx s_cte (bucket (List.length rows))
   | Rel_view -> ());
  let width = Array.length cols in
  let pad = source = Rel_subquery || source = Rel_view in
  List.map
    (fun vals ->
       let vals =
         if (not pad) || Array.length vals = width then vals
         else
           Array.init width (fun i ->
               if i < Array.length vals then vals.(i) else Value.Null)
       in
       [ { b_alias = alias; b_cols = cols; b_vals = vals } ])
    rows

(* The one join loop. Each outer row pairs with every inner row the ON
   condition keeps (CROSS keeps all); an outer join pads an unmatched
   outer row with the other side's NULL shape. RIGHT is LEFT mirrored:
   its outer rows are the right side's, and every pair still binds the
   left side first. *)
and join_rows ctx kind on left right lrows rrows : env_row list =
  let kind_tag =
    match kind with Inner -> 0 | Left -> 1 | Right -> 2 | Cross -> 3
  in
  probe ctx s_join
    ((kind_tag * 16) lor (bucket (List.length lrows) * 2)
     lor if rrows = [] then 1 else 0);
  if List.length lrows * List.length rrows
     > ctx.limits.Limits.max_result_rows * 4
  then Errors.fail (Errors.Limit_exceeded "join size");
  let outer, inner = if kind = Right then (rrows, lrows) else (lrows, rrows) in
  let pair o i = if kind = Right then i @ o else o @ i in
  let nulls =
    match kind with
    | Inner | Cross -> None
    | Left -> Some (List.map null_binding (shape_of_from ctx right))
    | Right -> Some (List.map null_binding (shape_of_from ctx left))
  in
  List.concat_map
    (fun o ->
       let matches =
         List.filter_map
           (fun i ->
              let combined = pair o i in
              match on with
              | Some e when kind <> Cross ->
                if Expr_eval.eval_bool (row_env ctx combined) e then
                  Some combined
                else None
              | _ -> Some combined)
           inner
       in
       match nulls with
       | Some nulls when matches = [] ->
         set_flag ctx "outer_null_row";
         [ pair o nulls ]
       | _ -> matches)
    outer

and eval_view ctx (v : Catalog.view) alias : env_row list =
  if ctx.query_depth > ctx.limits.Limits.max_view_depth then
    Errors.fail (Errors.Limit_exceeded "view nesting depth");
  probe ctx s_view
    ((if v.v_materialized then 8 else 0) lor state_shape ctx land 7);
  set_flag ctx "view_expanded";
  let cols = Array.of_list (headers_of_query ctx v.v_query) in
  let rows =
    if v.v_materialized then begin
      match v.v_cache with
      | Some rows ->
        set_flag ctx "matview_cache_hit";
        rows
      | None ->
        set_flag ctx "matview_stale";
        []
    end
    else run_query ctx v.v_query
  in
  bind_rows ctx Rel_view alias cols rows

and check_lock ctx table intent =
  match Hashtbl.find_opt ctx.cat.Catalog.locks table with
  | Some Lk_read when intent = `Write ->
    probe ctx s_txn 31;
    Errors.fail
      (Errors.Semantic (Printf.sprintf "table %s is READ locked" table))
  | _ ->
    if Hashtbl.length ctx.cat.Catalog.locks > 0 then probe ctx s_txn 30

(* --- query execution ------------------------------------------------ *)

and run_query ctx (q : query) : Value.t array list =
  ctx.query_depth <- ctx.query_depth + 1;
  probe ctx s_scan (48 + min 7 ctx.query_depth);
  if ctx.query_depth > ctx.limits.Limits.max_view_depth + 8 then begin
    ctx.query_depth <- ctx.query_depth - 1;
    Errors.fail (Errors.Limit_exceeded "query nesting depth")
  end;
  let finally () = ctx.query_depth <- ctx.query_depth - 1 in
  match
    (match q with
     | Q_values rows ->
       probe ctx s_values (bucket (List.length rows));
       List.map
         (fun row -> Array.of_list (List.map (eval_scalar ctx) row))
         rows
     | Q_select s -> run_select ctx s
     | Q_compound (a, op, b) ->
       let ra = run_query ctx a in
       let rb = run_query ctx b in
       let op_tag =
         match op with
         | Union -> 0
         | Union_all -> 1
         | Intersect -> 2
         | Except -> 3
       in
       probe ctx s_setop
         ((op_tag * 8) lor (if ra = [] then 1 else 0)
          lor if rb = [] then 2 else 0);
       probe ctx s_setop
         (64 + (op_tag * 8)
          + min 7 (bucket (List.length ra + List.length rb)));
       let module RS = Set.Make (struct
           type t = Value.t array
           let compare = Value.compare_rows
         end) in
       (match op with
        | Union_all -> ra @ rb
        | Union -> RS.elements (RS.union (RS.of_list ra) (RS.of_list rb))
        | Intersect ->
          RS.elements (RS.inter (RS.of_list ra) (RS.of_list rb))
        | Except -> RS.elements (RS.diff (RS.of_list ra) (RS.of_list rb))))
  with
  | rows ->
    finally ();
    if List.length rows > ctx.limits.Limits.max_result_rows then begin
      probe ctx s_limit 31;
      Errors.fail (Errors.Limit_exceeded "result rows")
    end;
    rows
  | exception e ->
    finally ();
    raise e

and run_select ctx (s : select) : Value.t array list =
  (* FROM *)
  let base_rows =
    match s.from with
    | None -> [ [] ]
    | Some f -> eval_from ctx ~where:s.where f
  in
  (* WHERE *)
  let rows =
    match s.where with
    | None -> base_rows
    | Some w ->
      let kept =
        List.filter (fun row -> Expr_eval.eval_bool (row_env ctx row) w)
          base_rows
      in
      let n = List.length kept in
      probe ctx s_where
        ((bucket n * 4)
         lor (if kept = [] && base_rows <> [] then 1 else 0)
         lor if n = List.length base_rows then 2 else 0);
      kept
  in
  let has_agg =
    List.exists expr_has_agg (proj_exprs s.projs)
    || (match s.having with Some h -> expr_has_agg h | None -> false)
  in
  let has_win = List.exists expr_has_win (proj_exprs s.projs) in
  (* Grouped and windowed SELECTs build one (env, row) pair per output
     row first; a plain SELECT projects straight from [rows]. *)
  let units =
    if s.group_by <> [] || has_agg then begin
      probe ctx s_group
        ((bucket (List.length rows) * 4)
         lor (if s.group_by = [] then 1 else 0)
         lor if s.having <> None then 2 else 0);
      let groups = group_rows ctx s.group_by rows in
      let groups =
        match s.having with
        | None -> groups
        | Some h ->
          let kept =
            List.filter
              (fun (rep, members) ->
                 Expr_eval.eval_bool (group_env ctx rep members) h)
              groups
          in
          probe ctx s_having (bucket (List.length kept));
          kept
      in
      Some
        (List.map (fun (rep, members) -> (group_env ctx rep members, rep))
           groups)
    end
    else if has_win then begin
      probe ctx s_window (bucket (List.length rows));
      set_flag ctx "window_executed";
      let arr = Array.of_list rows in
      let plans = ref [] in
      Some
        (Array.to_list
           (Array.mapi (fun i row -> (window_env ctx arr plans i row, row))
              arr))
    end
    else None
  in
  let project_all f =
    match units with
    | Some units -> List.map (fun (env, row) -> f env row) units
    | None -> List.map (fun row -> f (row_env ctx row) row) rows
  in
  let probe_projected n first =
    probe ctx s_proj (bucket n);
    Option.iter (fun out -> probe ctx s_proj (64 + row_sig out)) first
  in
  let dedup out_of l =
    if not s.distinct then l
    else begin
      probe ctx s_distinct (bucket (List.length l));
      let seen = Hashtbl.create 16 in
      List.filter
        (fun x ->
           let out = out_of x in
           let key =
             Array.fold_left
               (fun acc v -> (acc * 31) + Value.hash_value v)
               0 out
           in
           if List.exists
               (fun other -> Value.compare_rows other out = 0)
               (Hashtbl.find_all seen key)
           then false
           else begin
             Hashtbl.add seen key out;
             true
           end)
        l
    end
  in
  let rows =
    if s.order_by = [] then begin
      let outs = project_all (fun env row -> project ctx env row s.projs) in
      probe_projected (List.length outs)
        (match outs with first :: _ -> Some first | [] -> None);
      dedup Fun.id outs
    end
    else begin
      (* projection + order keys, then DISTINCT, then ORDER BY *)
      let keyed =
        project_all (fun env row ->
            let out = project ctx env row s.projs in
            let keys =
              List.map (fun (e, _) -> Expr_eval.eval env e) s.order_by
            in
            (keys, out))
      in
      probe_projected (List.length keyed)
        (match keyed with (_, first) :: _ -> Some first | [] -> None);
      let keyed = dedup snd keyed in
      probe ctx s_sort
        ((bucket (List.length keyed) * 2)
         lor if List.exists (fun (_, d) -> d = Desc) s.order_by then 1 else 0);
      (match keyed with
       | (k1 :: _, _) :: _ ->
         probe ctx s_sort
           (64 + (vkind_of k1 * 8) + min 7 (List.length s.order_by))
       | _ -> ());
      let dirs = List.map snd s.order_by in
      List.map snd
        (List.stable_sort
           (fun (ka, _) (kb, _) ->
              let rec cmp ks1 ks2 ds =
                match (ks1, ks2, ds) with
                | [], [], _ -> 0
                | k1 :: t1, k2 :: t2, d :: td ->
                  let c = Value.compare_total k1 k2 in
                  let c = match d with Asc -> c | Desc -> -c in
                  if c <> 0 then c else cmp t1 t2 td
                | _ -> 0
              in
              cmp ka kb dirs)
           keyed)
    end
  in
  (* OFFSET / LIMIT *)
  let rows =
    match s.offset with
    | None -> rows
    | Some off ->
      probe ctx s_limit 8;
      let rec drop n l =
        if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
      in
      drop off rows
  in
  match s.limit with
  | None -> rows
  | Some lim ->
    probe ctx s_limit
      (if List.length rows > lim then 1 else 2);
    let rec take n l =
      if n <= 0 then []
      else match l with [] -> [] | h :: t -> h :: take (n - 1) t
    in
    take (max 0 lim) rows

and group_rows ctx group_by rows : (env_row * env_row list) list =
  if group_by = [] then
    (* implicit single group, even over zero rows *)
    [ ((match rows with r :: _ -> r | [] -> []), rows) ]
  else begin
    let tbl : (string, env_row * env_row list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    List.iter
      (fun row ->
         let env = row_env ctx row in
         let key =
           String.concat "\x00"
             (List.map
                (fun e -> Value.to_display (Expr_eval.eval env e) ^ "|"
                          ^ Value.type_name (Expr_eval.eval env e))
                group_by)
         in
         match Hashtbl.find_opt tbl key with
         | Some (_, members) -> members := row :: !members
         | None ->
           let cell = (row, ref [ row ]) in
           Hashtbl.add tbl key cell;
           order := key :: !order)
      rows;
    List.rev_map
      (fun key ->
         let rep, members = Hashtbl.find tbl key in
         (rep, List.rev !members))
      !order
  end

and group_env ctx rep members : Expr_eval.env =
  let base = row_env ctx rep in
  { base with
    agg =
      (fun fn distinct arg ->
         compute_agg ctx fn distinct arg members) }

and compute_agg ctx fn distinct arg members =
  let fn_tag =
    match fn with
    | Count -> 0 | Sum -> 1 | Avg -> 2 | Min -> 3 | Max -> 4
    | Group_concat -> 5
  in
  probe ctx s_group
    (64
     + (fn_tag * 16)
     + (if distinct then 8 else 0)
     + min 7 (bucket (List.length members)));
  let values =
    match arg with
    | None -> List.map (fun _ -> Value.Int 1) members
    | Some e ->
      List.map (fun row -> Expr_eval.eval (row_env ctx row) e) members
  in
  let values =
    if distinct then begin
      let seen = ref Vset.empty in
      List.filter
        (fun v ->
           if Vset.mem v !seen then false
           else begin
             seen := Vset.add v !seen;
             true
           end)
        values
    end
    else values
  in
  let non_null = List.filter (fun v -> v <> Value.Null) values in
  match fn with
  | Count ->
    Value.Int
      (match arg with
       | None -> List.length values
       | Some _ -> List.length non_null)
  | Sum ->
    if non_null = [] then Value.Null
    else
      List.fold_left
        (fun acc v ->
           match (acc, v) with
           | Value.Int a, Value.Int b -> Value.Int (a + b)
           | _ ->
             let f = function
               | Value.Int n -> float_of_int n
               | Value.Float f -> f
               | Value.Bool b -> if b then 1.0 else 0.0
               | Value.Text s -> (
                   try float_of_string s with Failure _ -> 0.0)
               | Value.Null -> 0.0
             in
             Value.Float (f acc +. f v))
        (Value.Int 0) non_null
  | Avg -> (
      match compute_agg ctx Sum false arg members with
      | Value.Null -> Value.Null
      | sum ->
        let n = List.length non_null in
        if n = 0 then Value.Null
        else
          let f =
            match sum with
            | Value.Int s -> float_of_int s
            | Value.Float s -> s
            | _ -> 0.0
          in
          Value.Float (f /. float_of_int n))
  | Min ->
    (match non_null with
     | [] -> Value.Null
     | first :: rest ->
       List.fold_left
         (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
         first rest)
  | Max ->
    (match non_null with
     | [] -> Value.Null
     | first :: rest ->
       List.fold_left
         (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
         first rest)
  | Group_concat ->
    if non_null = [] then Value.Null
    else
      Value.Text
        (String.concat "," (List.map Value.to_display non_null))

and window_env ctx all_rows plans cur_idx row : Expr_eval.env =
  let base = row_env ctx row in
  { base with
    win =
      (fun fn args over ->
         compute_window ctx all_rows plans cur_idx fn args over) }

and compute_window ctx all_rows plans cur_idx fn args over =
  let fn_tag =
    match fn with
    | Row_number -> 0 | Rank -> 1 | Dense_rank -> 2 | Lead -> 3 | Lag -> 4
    | Ntile -> 5
  in
  probe ctx s_window
    (32
     + (fn_tag * 8)
     + (if over.partition_by <> [] then 4 else 0)
     + (match over.frame with
        | None -> 0
        | Some { f_kind = F_rows; _ } -> 1
        | Some { f_kind = F_range; _ } -> 2));
  (* [sorted] is the current row's partition in window order and [pos]
     the row's place in it; [rank] and [dense] are forced only by the
     functions that need them, as the per-row path evaluated them. *)
  let sorted, pos, rank, dense =
    match window_plan ctx all_rows plans over with
    | Some f when window_sort ctx all_rows over f cur_idx ->
      ( Option.get f.wp_parts.(f.wp_part_of.(cur_idx)).pt_sorted,
        f.wp_pos.(cur_idx),
        (fun () -> f.wp_rank.(cur_idx)),
        fun () -> f.wp_dense.(cur_idx) )
    | _ -> window_per_row ctx all_rows cur_idx over
  in
  if over.frame <> None then set_flag ctx "window_frame";
  match fn with
  | Row_number -> Value.Int (pos + 1)
  | Rank -> Value.Int (rank ())
  | Dense_rank -> Value.Int (dense ())
  | Lead | Lag ->
    let offset =
      match args with
      | _ :: o :: _ -> (
          match eval_scalar ctx o with
          | Value.Int n -> n
          | _ -> 1)
      | _ -> 1
    in
    let target = if fn = Lead then pos + offset else pos - offset in
    if target < 0 || target >= Array.length sorted then
      (match args with
       | _ :: _ :: d :: _ -> eval_scalar ctx d
       | _ -> Value.Null)
    else
      (match args with
       | e :: _ -> eval_at ctx all_rows sorted.(target) e
       | [] -> Value.Null)
  | Ntile ->
    let buckets =
      match args with
      | b :: _ -> (
          match eval_scalar ctx b with
          | Value.Int n when n > 0 -> n
          | _ -> 1)
      | [] -> 1
    in
    let total = Array.length sorted in
    Value.Int ((pos * buckets / max 1 total) + 1)

(* The per-row path: partitions and sorts the whole row set for each
   call, evaluating keys as it goes. Serves key shapes that may fire
   probes, and any key that fails to evaluate, so errors surface where
   and when they always did. *)
and window_per_row ctx all_rows cur_idx over =
  let n = Array.length all_rows in
  let part_key i = List.map (eval_at ctx all_rows i) over.partition_by in
  let keys_equal a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> Value.compare_total x y = 0) a b
  in
  let mine = part_key cur_idx in
  let part =
    List.filter
      (fun i -> keys_equal (part_key i) mine)
      (List.init n (fun i -> i))
  in
  let order_key i =
    List.map (fun (e, _) -> eval_at ctx all_rows i e) over.w_order_by
  in
  let cmp_order a b =
    compare_window_keys over (order_key a) (order_key b)
  in
  let sorted = List.stable_sort cmp_order part in
  let pos =
    let rec find i = function
      | [] -> 0
      | x :: _ when x = cur_idx -> i
      | _ :: t -> find (i + 1) t
    in
    find 0 sorted
  in
  let rank () =
    let before =
      List.filteri (fun i x -> i < pos && cmp_order x cur_idx < 0) sorted
    in
    List.length before + 1
  in
  let dense () =
    let distinct_before =
      List.sort_uniq compare
        (List.filteri (fun i _ -> i < pos) sorted
         |> List.filter_map (fun x ->
             if cmp_order x cur_idx < 0 then
               Some (List.map Value.to_display (order_key x))
             else None))
    in
    List.length distinct_before + 1
  in
  (Array.of_list sorted, pos, rank, dense)

and eval_at ctx all_rows i e = Expr_eval.eval (row_env ctx all_rows.(i)) e

and compare_window_keys over ka kb =
  let rec loop ka kb ds =
    match (ka, kb, ds) with
    | [], [], _ -> 0
    | x :: xs, y :: ys, d :: dt ->
      let c = Value.compare_total x y in
      let c = match d with Asc -> c | Desc -> -c in
      if c <> 0 then c else loop xs ys dt
    | _ -> 0
  in
  loop ka kb (List.map snd over.w_order_by)

(* The OVER clause's once-per-SELECT plan, partitioned on first use;
   [None] when its keys are not all columns and literals, or when a
   partition key fails to evaluate on some row. *)
and window_plan ctx all_rows (plans : win_plans) over =
  match List.assq_opt over !plans with
  | Some f -> f
  | None ->
    let simple = function Col _ | Lit _ -> true | _ -> false in
    let f =
      if not (List.for_all simple over.partition_by
              && List.for_all (fun (e, _) -> simple e) over.w_order_by)
      then None
      else
        let n = Array.length all_rows in
        match
          Array.init n (fun i ->
              List.map (eval_at ctx all_rows i) over.partition_by)
        with
        | exception Errors.Sql_error _ -> None
        | keys ->
          let ids = ref Kmap.empty and count = ref 0 in
          let part =
            Array.map
              (fun key ->
                 match Kmap.find_opt key !ids with
                 | Some p -> p
                 | None ->
                   let p = !count in
                   ids := Kmap.add key p !ids;
                   incr count;
                   p)
              keys
          in
          let buckets = Array.make !count [] in
          for i = n - 1 downto 0 do
            buckets.(part.(i)) <- i :: buckets.(part.(i))
          done;
          Some
            { wp_part_of = part;
              wp_parts =
                Array.map
                  (fun m -> { pt_members = m; pt_sorted = None })
                  buckets;
              wp_pos = Array.make n 0;
              wp_rank = Array.make n 1;
              wp_dense = Array.make n 1 }
    in
    plans := (over, f) :: !plans;
    f

(* Sorts the current row's partition on first use and fills [wp_pos],
   [wp_rank] and [wp_dense] for its rows (their initial values are a
   one-row partition's answers). [false] when an ORDER BY key
   of a partition of two or more rows fails to evaluate: the per-row
   path then raises the error the way it always did. *)
and window_sort ctx all_rows over f cur_idx =
  let part = f.wp_parts.(f.wp_part_of.(cur_idx)) in
  match part.pt_sorted, part.pt_members with
  | Some _, _ -> true
  | None, [ _ ] ->
    part.pt_sorted <- Some (Array.of_list part.pt_members);
    true
  | None, members -> (
      let order_key i =
        List.map (fun (e, _) -> eval_at ctx all_rows i e) over.w_order_by
      in
      match List.map (fun i -> (i, order_key i)) members with
      | exception Errors.Sql_error _ -> false
      | keyed ->
        let sorted =
          Array.of_list
            (List.stable_sort
               (fun (_, ka) (_, kb) -> compare_window_keys over ka kb)
               keyed)
        in
        (* Rows tied under the window order form a contiguous run; RANK
           counts the rows before the run, DENSE_RANK the distinct
           displayed keys before it. *)
        let seen = ref Sset.empty and distinct = ref 0 and start = ref 0 in
        Array.iteri
          (fun j (i, key) ->
             if j > 0 && compare_window_keys over (snd sorted.(j - 1)) key <> 0
             then begin
               for k = !start to j - 1 do
                 let shown = List.map Value.to_display (snd sorted.(k)) in
                 if not (Sset.mem shown !seen) then begin
                   seen := Sset.add shown !seen;
                   incr distinct
                 end
               done;
               start := j
             end;
             f.wp_pos.(i) <- j;
             f.wp_rank.(i) <- !start + 1;
             f.wp_dense.(i) <- !distinct + 1)
          sorted;
        part.pt_sorted <- Some (Array.map fst sorted);
        true)

and project ctx (env : Expr_eval.env) (row : env_row) projs : Value.t array =
  match (projs, row) with
  | [ Star ], [ b ] -> Array.copy b.b_vals
  | _ ->
    let out = ref [] in
    List.iter
      (fun p ->
         match p with
         | Star ->
           List.iter
             (fun b -> Array.iter (fun v -> out := v :: !out) b.b_vals)
             row
         | Star_of t -> (
             match List.find_opt (fun b -> String.equal b.b_alias t) row with
             | Some b -> Array.iter (fun v -> out := v :: !out) b.b_vals
             | None ->
               probe ctx s_err 7;
               Errors.fail (Errors.No_such_table t))
         | Proj (e, _) -> out := Expr_eval.eval env e :: !out)
      projs;
    Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

let priv_covers granted needed =
  List.exists (fun p -> p = P_all || p = needed) granted

let check_privs ctx stmt =
  let c = ctx.cat in
  if not (String.equal c.Catalog.current_user "root") then begin
    let user =
      match Hashtbl.find_opt c.Catalog.users c.Catalog.current_user with
      | Some u -> u
      | None ->
        probe ctx s_dcl 15;
        Errors.fail (Errors.Permission_denied "unknown current user")
    in
    let require table needed =
      if Hashtbl.mem c.Catalog.tables table then begin
        let granted =
          match List.assoc_opt table user.Catalog.us_privs with
          | Some ps -> ps
          | None -> []
        in
        if not (priv_covers granted needed) then begin
          probe ctx s_dcl 14;
          Errors.fail
            (Errors.Permission_denied
               (Printf.sprintf "table %s for user %s" table
                  c.Catalog.current_user))
        end
      end
    in
    List.iter (fun t -> require t P_select) (Ast_util.tables_read stmt);
    List.iter
      (fun t ->
         let needed =
           match Ast.type_of_stmt stmt with
           | Stmt_type.Insert | Stmt_type.Insert_select
           | Stmt_type.Replace_into | Stmt_type.Copy_from
           | Stmt_type.Load_data -> P_insert
           | Stmt_type.Update -> P_update
           | Stmt_type.Delete | Stmt_type.Truncate -> P_delete
           | _ -> P_all
         in
         require t needed)
      (Ast_util.tables_written stmt)
  end

let violates_not_null cols row =
  let rec from p =
    p < Array.length cols
    && ((cols.(p).Table.c_not_null && row.(p) = Value.Null) || from (p + 1))
  in
  from 0

let unique_key_sets ctx table_name table =
  (* Column positions whose value sets must be unique: each UNIQUE/PK
     column by itself, plus every unique index's column list (in
     [Catalog.indexes_on] order). *)
  let cols = Table.cols table in
  let singles = ref [] in
  for i = Array.length cols - 1 downto 0 do
    if cols.(i).Table.c_unique then singles := [ i ] :: !singles
  done;
  if Hashtbl.length ctx.cat.Catalog.indexes = 0 then !singles
  else
    !singles
    @ Hashtbl.fold
        (fun _ (spec : Catalog.index_spec) acc ->
           if spec.x_unique && String.equal spec.x_table table_name then
             let ps = List.filter_map (Table.col_index table) spec.x_cols in
             if List.length ps = List.length spec.x_cols then ps :: acc
             else acc
           else acc)
        ctx.cat.Catalog.indexes []

let find_conflicts ctx table_name table row ~exclude =
  match unique_key_sets ctx table_name table with
  | [] -> []
  | key_sets ->
    if Hashtbl.length ctx.cat.Catalog.indexes > 0 then probe ctx s_constraint 9;
    let conflicts = ref [] and seen = ref Iset.empty in
    let excluded rowid = exclude = Some rowid in
    let note rowid =
      if not (excluded rowid || Iset.mem rowid !seen) then begin
        conflicts := rowid :: !conflicts;
        seen := Iset.add rowid !seen
      end
    in
    List.iter
      (fun positions ->
         let mine = List.map (fun p -> row.(p)) positions in
         if not (List.exists (fun v -> v = Value.Null) mine) then
           match Table.find_key table positions mine with
           | Some rowids -> List.iter note rowids
           | None ->
             Table.iter
               (fun rowid other ->
                  if (not (excluded rowid))
                     && List.for_all
                          (fun p -> Value.compare_total row.(p) other.(p) = 0)
                          positions
                  then note rowid)
               table)
      key_sets;
    !conflicts

(* A table's dependent catalog entries (indexes, triggers or rules), as
   [(name, entry)] pairs in reverse fold order. *)
let dependents tbl table_of table =
  Hashtbl.fold
    (fun k v acc ->
       if String.equal (table_of v) table then (k, v) :: acc else acc)
    tbl []

let index_table (x : Catalog.index_spec) = x.x_table
let trigger_table (t : Catalog.trigger) = t.tr_table
let rule_table (r : Catalog.rule) = r.r_table

(* The one place trigger nesting deepens: EXECUTE, trigger bodies and
   rule actions run [f ()] one level down, or [at_limit ctx] once the
   depth has reached [limit]. [at_limit] takes [ctx] so that it can be
   a closed function, allocated once rather than per trigger firing. *)
let nested ctx ~limit ~at_limit f =
  if ctx.trigger_depth >= limit then at_limit ctx
  else begin
    ctx.trigger_depth <- ctx.trigger_depth + 1;
    match f () with
    | r ->
      ctx.trigger_depth <- ctx.trigger_depth - 1;
      r
    | exception e ->
      ctx.trigger_depth <- ctx.trigger_depth - 1;
      raise e
  end

(* A named object of [kind] the statement needs: probe and refuse when
   it is missing. *)
let find_object ctx site key kind tbl name =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    probe ctx site key;
    Errors.fail (Errors.No_such_object (kind, name))

(* A column the statement names: probe and refuse when it is missing. *)
let column_pos ctx site key table name =
  match Table.col_index table name with
  | Some p -> p
  | None ->
    probe ctx site key;
    Errors.fail (Errors.No_such_column name)

(* COPY FROM and LOAD DATA: an INSERT of literal rows. *)
let literal_insert table rows ~i_ignore =
  { i_table = table; i_cols = []; i_ignore;
    i_source = Src_values (List.map (List.map (fun l -> Lit l)) rows) }

let end_txn ctx =
  ctx.cat.Catalog.in_txn <- false;
  ctx.cat.Catalog.txn_snapshot <- None;
  ctx.cat.Catalog.savepoints <- []

(* A name the statement would create is already [taken]: probe and
   refuse. *)
let refuse_duplicate ctx ?(site = s_ddl) key kind name taken =
  if taken then begin
    probe ctx site key;
    Errors.fail (Errors.Duplicate_object (kind, name))
  end

let rec exec ctx stmt : result =
  let ty = Ast.type_of_stmt stmt in
  (* Real DBMSs share most code between statement types (parser, catalog,
     storage), so executing a new type buys a few branches, not a whole
     compartment: the dispatch key keeps only 3 state bits per type. *)
  let shape = state_shape ctx in
  probe ctx s_exec ((Stmt_type.to_index ty * 8) lor (shape land 7));
  probe ctx s_state shape;
  check_privs ctx stmt;
  (match stmt with
   | S_insert _ | S_replace _ | S_update _ | S_delete _ | S_select _
   | S_with _ | S_table _ -> ()
   | _ -> ctx.trigger_lists <- []);
  match stmt with
  (* ---------------- DDL ---------------- *)
  | S_create_table { temp; if_not_exists; name; cols } ->
    let taken = Catalog.name_in_use ctx.cat name in
    if taken && if_not_exists then begin
      probe ctx s_ddl 1;
      Done "table exists, skipped"
    end
    else begin
      refuse_duplicate ctx 1 "table" name taken;
      if cols = [] then Errors.fail (Errors.Semantic "table with no columns");
      let names = List.map (fun c -> c.col_name) cols in
      if List.length (List.sort_uniq String.compare names)
         <> List.length names
      then Errors.fail (Errors.Semantic "duplicate column name");
      let table =
        Table.create ~name ~temp (List.map Table.col_of_def cols)
      in
      Hashtbl.replace ctx.cat.Catalog.tables name table;
      probe ctx s_ddl (if temp then 2 else 0);
      if temp then set_flag ctx "temp_created";
      Done "table created"
    end
  | S_create_index { unique; name; table; cols } ->
    refuse_duplicate ctx 3 "index" name
      (Hashtbl.mem ctx.cat.Catalog.indexes name);
    let tbl = Catalog.find_table ctx.cat table in
    List.iter
      (fun c ->
         if Table.col_index tbl c = None then
           Errors.fail (Errors.No_such_column c))
      cols;
    let data, dup = Catalog.build_index ~unique cols (Some tbl) in
    if dup then begin
      probe ctx s_constraint 8;
      set_flag ctx "unique_violated";
      Errors.fail
        (Errors.Constraint_violation "duplicate key while building index")
    end;
    Hashtbl.replace ctx.cat.Catalog.indexes name
      { Catalog.x_name = name; x_table = table; x_cols = cols;
        x_unique = unique; x_version = Catalog.version_of_index data };
    probe ctx s_ddl (if unique then 5 else 4);
    Done "index created"
  | S_create_view { materialized; name; query } ->
    refuse_duplicate ctx 6 "view" name
      (Catalog.name_in_use ctx.cat name
       || Hashtbl.mem ctx.cat.Catalog.views name);
    let cache =
      if materialized then begin
        set_flag ctx "matview_refreshed";
        Some (run_query ctx query)
      end
      else None
    in
    Hashtbl.replace ctx.cat.Catalog.views name
      { Catalog.v_name = name; v_materialized = materialized;
        v_query = query; v_cache = cache };
    probe ctx s_ddl (if materialized then 8 else 7);
    Done "view created"
  | S_create_trigger { name; timing; event; table; body } ->
    ignore (Catalog.find_table ctx.cat table);
    refuse_duplicate ctx 9 "trigger" name
      (Hashtbl.mem ctx.cat.Catalog.triggers name);
    List.iter
      (fun s ->
         match s with
         | S_insert _ | S_replace _ | S_update _ | S_delete _ -> ()
         | _ ->
           probe ctx s_err 3;
           Errors.fail (Errors.Semantic "trigger body must be DML"))
      body;
    Hashtbl.replace ctx.cat.Catalog.triggers name
      { Catalog.tr_name = name; tr_table = table; tr_timing = timing;
        tr_event = event; tr_body = body };
    probe ctx s_ddl 10;
    set_flag ctx "trigger_created";
    Done "trigger created"
  | S_create_rule { name; table; event; instead; action } ->
    ignore (Catalog.find_table ctx.cat table);
    refuse_duplicate ctx 11 "rule" name
      (Hashtbl.mem ctx.cat.Catalog.rules name);
    Hashtbl.replace ctx.cat.Catalog.rules name
      { Catalog.r_name = name; r_table = table; r_event = event;
        r_instead = instead; r_action = action };
    probe ctx s_ddl (if instead then 13 else 12);
    set_flag ctx "rule_created";
    Done "rule created"
  | S_create_sequence { name; start; step } ->
    refuse_duplicate ctx 16 "sequence" name
      (Hashtbl.mem ctx.cat.Catalog.sequences name);
    if step = 0 then Errors.fail (Errors.Semantic "zero sequence step");
    Hashtbl.replace ctx.cat.Catalog.sequences name
      { Catalog.sq_value = start; sq_step = step; sq_start = start };
    probe ctx s_seq 0;
    Done "sequence created"
  | S_create_schema name ->
    refuse_duplicate ctx 17 "schema" name
      (Hashtbl.mem ctx.cat.Catalog.schemas name);
    Hashtbl.replace ctx.cat.Catalog.schemas name ();
    Done "schema created"
  | S_create_database name ->
    refuse_duplicate ctx 18 "database" name
      (Hashtbl.mem ctx.cat.Catalog.databases name);
    Hashtbl.replace ctx.cat.Catalog.databases name ();
    Done "database created"
  | S_create_user { user; password } ->
    refuse_duplicate ctx ~site:s_dcl 1 "user" user
      (Hashtbl.mem ctx.cat.Catalog.users user);
    Hashtbl.replace ctx.cat.Catalog.users user
      { Catalog.us_password = password; us_privs = [] };
    probe ctx s_dcl 0;
    Done "user created"
  | S_drop { target; if_exists } -> exec_drop ctx target if_exists
  | S_alter_table (table, action) -> exec_alter_table ctx table action
  | S_alter_sequence { name; step } ->
    let sq =
      find_object ctx s_seq 5 "sequence" ctx.cat.Catalog.sequences name
    in
    if step = 0 then Errors.fail (Errors.Semantic "zero sequence step");
    sq.Catalog.sq_step <- step;
    probe ctx s_seq 1;
    Done "sequence altered"
  | S_alter_user { user; password } ->
    let u = find_object ctx s_dcl 2 "user" ctx.cat.Catalog.users user in
    u.Catalog.us_password <- password;
    Done "user altered"
  | S_rename_table pairs ->
    List.iter
      (fun (a, b) ->
         rename_table ctx (Catalog.find_table ctx.cat a) a b ~taken_key:20)
      pairs;
    probe ctx s_ddl 19;
    Done "renamed"
  | S_truncate name ->
    let table = Catalog.find_table ctx.cat name in
    check_lock ctx name `Write;
    let n = Table.truncate table in
    Catalog.record_index_versions ~table:name ctx.cat;
    probe ctx s_ddl (21 + min 2 (bucket n));
    if ctx.cat.Catalog.in_txn then set_flag ctx "truncate_in_txn";
    Done (Printf.sprintf "truncated %d rows" n)
  | S_comment_on { table; comment } ->
    ignore (Catalog.find_table ctx.cat table);
    Hashtbl.replace ctx.cat.Catalog.comments table comment;
    probe ctx s_ddl 25;
    Done "comment set"
  (* ---------------- DML ---------------- *)
  | S_insert i -> exec_insert ctx ~replace:false ~in_with:false i
  | S_replace i -> exec_insert ctx ~replace:true ~in_with:false i
  | S_update u -> exec_update ctx ~in_with:false u
  | S_delete d -> exec_delete ctx ~in_with:false d
  | S_copy_to { src; header } ->
    let headers, rows =
      match src with
      | Cs_table t ->
        let table = Catalog.find_table ctx.cat t in
        (Array.to_list (col_names table), Table.rows table)
      | Cs_query q -> (headers_of_query ctx q, run_query ctx q)
    in
    probe ctx s_copy
      ((bucket (List.length rows) * 2) lor if header then 1 else 0);
    Rows (headers, rows)
  | S_copy_from { table; rows } ->
    exec_insert ctx ~replace:false ~in_with:false
      (literal_insert table rows ~i_ignore:false)
  | S_load_data { table; rows } ->
    probe ctx s_copy 8;
    exec_insert ctx ~replace:false ~in_with:false
      (literal_insert table rows ~i_ignore:true)
  (* ---------------- DQL ---------------- *)
  | S_select q -> Rows (headers_of_query ctx q, run_query ctx q)
  | S_with { ctes; body } -> exec_with ctx ctes body
  | S_table t ->
    let table = Catalog.find_table ctx.cat t in
    probe ctx s_scan (32 + bucket (Table.row_count table));
    Rows (Array.to_list (col_names table), Table.rows table)
  | S_explain inner ->
    let lines =
      Planner.explain_lines ctx.cat ~analyzed:(analyzed ctx) inner
    in
    probe ctx s_explain (bucket (List.length lines));
    Rows ([ "QUERY PLAN" ], List.map (fun l -> [| Value.Text l |]) lines)
  | S_describe t | S_show (Sh_columns t) ->
    let table = Catalog.find_table ctx.cat t in
    probe ctx s_show 1;
    Rows
      ( [ "Field"; "Type"; "Null"; "Key" ],
        Array.to_list
          (Array.map
             (fun c ->
                [| Value.Text c.Table.c_name;
                   Value.Text (Sql_printer.data_type c.Table.c_type);
                   Value.Text (if c.Table.c_not_null then "NO" else "YES");
                   Value.Text
                     (if c.Table.c_primary then "PRI"
                      else if c.Table.c_unique then "UNI"
                      else "") |])
             (Table.cols table)) )
  | S_show Sh_tables ->
    probe ctx s_show 0;
    let names =
      Hashtbl.fold (fun n _ acc -> n :: acc) ctx.cat.Catalog.tables []
      @ Hashtbl.fold (fun n _ acc -> n :: acc) ctx.cat.Catalog.views []
    in
    Rows
      ( [ "Tables" ],
        List.map (fun n -> [| Value.Text n |]) (List.sort String.compare names) )
  | S_show Sh_variables ->
    probe ctx s_show 2;
    let vars =
      Hashtbl.fold
        (fun n v acc -> (n, v) :: acc)
        ctx.cat.Catalog.session_vars []
    in
    Rows
      ( [ "Variable_name"; "Value" ],
        List.map
          (fun (n, v) -> [| Value.Text n; Value.Text (Value.to_display v) |])
          (List.sort compare vars) )
  | S_show Sh_status ->
    probe ctx s_show 3;
    Rows
      ( [ "Variable_name"; "Value" ],
        [ [| Value.Text "tables"; Value.Int (Hashtbl.length ctx.cat.Catalog.tables) |];
          [| Value.Text "objects"; Value.Int (Catalog.object_count ctx.cat) |];
          [| Value.Text "in_txn"; Value.Bool ctx.cat.Catalog.in_txn |] ] )
  (* ---------------- DCL ---------------- *)
  | S_grant { privs; table; user } ->
    ignore (Catalog.find_table ctx.cat table);
    let u = find_object ctx s_dcl 4 "user" ctx.cat.Catalog.users user in
    let existing =
      Option.value ~default:[] (List.assoc_opt table u.Catalog.us_privs)
    in
    let merged =
      List.fold_left
        (fun acc p -> if List.mem p acc then acc else p :: acc)
        existing privs
    in
    u.Catalog.us_privs <-
      (table, merged) :: List.remove_assoc table u.Catalog.us_privs;
    probe ctx s_dcl 3;
    set_flag ctx "granted";
    Done "granted"
  | S_revoke { privs; table; user } ->
    let u = find_object ctx s_dcl 6 "user" ctx.cat.Catalog.users user in
    let existing =
      Option.value ~default:[] (List.assoc_opt table u.Catalog.us_privs)
    in
    let remaining =
      List.filter
        (fun p -> not (List.mem p privs || List.mem P_all privs))
        existing
    in
    u.Catalog.us_privs <-
      (table, remaining) :: List.remove_assoc table u.Catalog.us_privs;
    probe ctx s_dcl 5;
    Done "revoked"
  | S_set_role user ->
    ignore (find_object ctx s_dcl 8 "user" ctx.cat.Catalog.users user);
    ctx.cat.Catalog.current_user <- user;
    probe ctx s_dcl 7;
    set_flag ctx "role_changed";
    Done "role set"
  (* ---------------- TCL ---------------- *)
  | S_begin ->
    if ctx.cat.Catalog.in_txn then begin
      probe ctx s_txn 1;
      Errors.fail (Errors.Semantic "transaction already in progress")
    end;
    ctx.cat.Catalog.txn_snapshot <- Some (Catalog.take_snapshot ctx.cat);
    ctx.cat.Catalog.in_txn <- true;
    probe ctx s_txn 0;
    Done "begin"
  | S_commit ->
    if ctx.cat.Catalog.in_txn then begin
      end_txn ctx;
      probe ctx s_txn 2;
      Done "commit"
    end
    else begin
      probe ctx s_txn 3;
      Done "commit (no transaction)"
    end
  | S_rollback ->
    (match ctx.cat.Catalog.txn_snapshot with
     | Some snap when ctx.cat.Catalog.in_txn ->
       Catalog.restore_snapshot ctx.cat snap;
       end_txn ctx;
       probe ctx s_txn 4;
       set_flag ctx "rolled_back";
       Done "rollback"
     | _ ->
       probe ctx s_txn 5;
       Done "rollback (no transaction)")
  | S_savepoint name ->
    if not ctx.cat.Catalog.in_txn then begin
      probe ctx s_txn 7;
      Errors.fail (Errors.Semantic "SAVEPOINT outside transaction")
    end;
    ctx.cat.Catalog.savepoints <-
      (name, Catalog.take_snapshot ctx.cat) :: ctx.cat.Catalog.savepoints;
    probe ctx s_txn 6;
    Done "savepoint"
  | S_release_savepoint name -> (
      match List.assoc_opt name ctx.cat.Catalog.savepoints with
      | None ->
        probe ctx s_txn 9;
        Errors.fail (Errors.No_such_object ("savepoint", name))
      | Some _ ->
        let rec drop = function
          | [] -> []
          | (n, _) :: rest when String.equal n name -> rest
          | _ :: rest -> drop rest
        in
        ctx.cat.Catalog.savepoints <- drop ctx.cat.Catalog.savepoints;
        probe ctx s_txn 8;
        Done "savepoint released")
  | S_rollback_to name -> (
      match List.assoc_opt name ctx.cat.Catalog.savepoints with
      | None ->
        probe ctx s_txn 11;
        Errors.fail (Errors.No_such_object ("savepoint", name))
      | Some snap ->
        Catalog.restore_snapshot ctx.cat snap;
        probe ctx s_txn 10;
        set_flag ctx "rolled_back_to_savepoint";
        Done "rolled back to savepoint")
  | S_set_transaction iso ->
    ctx.cat.Catalog.iso <- iso;
    probe ctx s_txn
      (12
       + match iso with
       | Read_committed -> 0
       | Repeatable_read -> 1
       | Serializable -> 2);
    Done "isolation set"
  | S_lock_tables locks ->
    List.iter (fun (t, _) -> ignore (Catalog.find_table ctx.cat t)) locks;
    Hashtbl.reset ctx.cat.Catalog.locks;
    List.iter
      (fun (t, m) -> Hashtbl.replace ctx.cat.Catalog.locks t m)
      locks;
    probe ctx s_txn (16 + min 3 (List.length locks));
    set_flag ctx "locked_now";
    Done "locked"
  | S_unlock_tables ->
    probe ctx s_txn
      (if Hashtbl.length ctx.cat.Catalog.locks = 0 then 21 else 20);
    Hashtbl.reset ctx.cat.Catalog.locks;
    Done "unlocked"
  (* ---------------- session / utility ---------------- *)
  | S_set_var { global; name; value } ->
    let tbl =
      if global then ctx.cat.Catalog.global_vars
      else ctx.cat.Catalog.session_vars
    in
    Hashtbl.replace tbl name (Value.of_literal value);
    probe ctx s_util ((Hashtbl.hash name land 15) lor if global then 16 else 0);
    Done "variable set"
  | S_reset_var name ->
    probe ctx s_util
      (32 lor if Hashtbl.mem ctx.cat.Catalog.session_vars name then 1 else 0);
    Hashtbl.remove ctx.cat.Catalog.session_vars name;
    Done "variable reset"
  | S_set_names charset ->
    Hashtbl.replace ctx.cat.Catalog.session_vars "names"
      (Value.Text charset);
    probe ctx s_util 34;
    Done "names set"
  | S_pragma { name; value } ->
    (match value with
     | Some l ->
       Hashtbl.replace ctx.cat.Catalog.session_vars ("pragma_" ^ name)
         (Value.of_literal l)
     | None -> ());
    probe ctx s_util (40 lor (Hashtbl.hash name land 7));
    Done "pragma"
  | S_vacuum target ->
    Option.iter (fun t -> ignore (Catalog.find_table ctx.cat t)) target;
    set_flag ctx "vacuumed";
    probe ctx s_util (48 lor if target = None then 1 else 0);
    Done "vacuumed"
  | S_analyze target ->
    Option.iter (fun t -> ignore (Catalog.find_table ctx.cat t)) target;
    Hashtbl.replace ctx.cat.Catalog.global_vars "__analyzed"
      (Value.Bool true);
    set_flag ctx "analyzed_now";
    probe ctx s_util (50 lor if target = None then 1 else 0);
    Done "analyzed"
  | S_reindex target ->
    (match target with
     | Some t ->
       ignore (Catalog.find_table ctx.cat t);
       Catalog.record_index_versions ~table:t ctx.cat
     | None -> Catalog.record_index_versions ctx.cat);
    probe ctx s_util (52 lor if target = None then 1 else 0);
    Done "reindexed"
  | S_checkpoint ->
    probe ctx s_util (54 lor if ctx.cat.Catalog.in_txn then 1 else 0);
    Done "checkpoint"
  | S_flush what ->
    probe ctx s_util
      (56
       + match what with Fl_tables -> 0 | Fl_status -> 1 | Fl_privileges -> 2);
    Done "flushed"
  | S_optimize t ->
    ignore (Catalog.find_table ctx.cat t);
    probe ctx s_util 60;
    Rows ([ "Table"; "Msg_text" ], [ [| Value.Text t; Value.Text "OK" |] ])
  | S_check_table t ->
    let table = Catalog.find_table ctx.cat t in
    probe ctx s_util (62 lor if Table.row_count table = 0 then 1 else 0);
    Rows ([ "Table"; "Msg_text" ], [ [| Value.Text t; Value.Text "OK" |] ])
  | S_repair t ->
    ignore (Catalog.find_table ctx.cat t);
    set_flag ctx "repaired";
    probe ctx s_util 64;
    Rows ([ "Table"; "Msg_text" ], [ [| Value.Text t; Value.Text "OK" |] ])
  | S_notify { channel; payload } -> do_notify ctx channel payload
  | S_listen channel ->
    if not (List.mem channel ctx.cat.Catalog.listening) then
      ctx.cat.Catalog.listening <- channel :: ctx.cat.Catalog.listening;
    probe ctx s_notify 4;
    Done "listening"
  | S_unlisten channel ->
    probe ctx s_notify
      (if List.mem channel ctx.cat.Catalog.listening then 5 else 6);
    ctx.cat.Catalog.listening <-
      List.filter
        (fun c -> not (String.equal c channel))
        ctx.cat.Catalog.listening;
    Done "unlistened"
  | S_discard what ->
    let drop_temps () =
      let temps =
        Hashtbl.fold
          (fun n t acc -> if Table.is_temp t then n :: acc else acc)
          ctx.cat.Catalog.tables []
      in
      List.iter (Hashtbl.remove ctx.cat.Catalog.tables) temps;
      if temps <> [] then 1 else 0
    in
    (match what with
     | Disc_all ->
       let dropped = drop_temps () in
       Hashtbl.reset ctx.cat.Catalog.prepared;
       ctx.cat.Catalog.listening <- [];
       probe ctx s_util (70 lor dropped);
       set_flag ctx "discarded_all"
     | Disc_temp -> probe ctx s_util (72 lor drop_temps ())
     | Disc_plans -> probe ctx s_util 74);
    Done "discarded"
  | S_prepare { name; stmt = inner } ->
    (match inner with
     | S_prepare _ | S_execute _ ->
       probe ctx s_prepare 3;
       Errors.fail (Errors.Semantic "nested PREPARE")
     | _ -> ());
    Hashtbl.replace ctx.cat.Catalog.prepared name inner;
    probe ctx s_prepare 0;
    Done "prepared"
  | S_execute name ->
    let inner =
      find_object ctx s_prepare 2 "prepared statement"
        ctx.cat.Catalog.prepared name
    in
    probe ctx s_prepare 1;
    nested ctx ~limit:(ctx.limits.Limits.max_trigger_depth + 1)
      ~at_limit:(fun _ ->
          Errors.fail (Errors.Limit_exceeded "execute recursion"))
      (fun () -> exec ctx inner)
  | S_deallocate name ->
    ignore
      (find_object ctx s_prepare 5 "prepared statement"
         ctx.cat.Catalog.prepared name);
    Hashtbl.remove ctx.cat.Catalog.prepared name;
    probe ctx s_prepare 4;
    Done "deallocated"
  | S_use db ->
    ignore (find_object ctx s_util 81 "database" ctx.cat.Catalog.databases db);
    ctx.cat.Catalog.current_db <- db;
    probe ctx s_util 80;
    Done "database changed"
  | S_do e ->
    let v = eval_scalar ctx e in
    probe ctx s_util (84 lor Hashtbl.hash (Value.type_name v) land 3);
    Done "do"
  | S_handler_open t ->
    ignore (Catalog.find_table ctx.cat t);
    if Hashtbl.mem ctx.cat.Catalog.handlers t then begin
      probe ctx s_handler 1;
      Errors.fail (Errors.Semantic "handler already open")
    end;
    Hashtbl.replace ctx.cat.Catalog.handlers t (-1);
    probe ctx s_handler 0;
    Done "handler open"
  | S_handler_read { table; dir } -> (
      match Hashtbl.find_opt ctx.cat.Catalog.handlers table with
      | None ->
        probe ctx s_handler 3;
        Errors.fail (Errors.Semantic "handler not open")
      | Some pos ->
        let tbl = Catalog.find_table ctx.cat table in
        let next = match dir with H_first -> 0 | H_next -> pos + 1 in
        Hashtbl.replace ctx.cat.Catalog.handlers table next;
        let rows = Table.to_rows tbl in
        probe ctx s_handler (if next < List.length rows then 4 else 5);
        Rows
          ( Array.to_list (col_names tbl),
            match List.nth_opt rows next with
            | Some (_, row) -> [ row ]
            | None -> [] ))
  | S_handler_close t ->
    if not (Hashtbl.mem ctx.cat.Catalog.handlers t) then begin
      probe ctx s_handler 7;
      Errors.fail (Errors.Semantic "handler not open")
    end;
    Hashtbl.remove ctx.cat.Catalog.handlers t;
    probe ctx s_handler 6;
    Done "handler closed"
  | S_alter_system param ->
    Hashtbl.replace ctx.cat.Catalog.global_vars ("__system_" ^ param)
      (Value.Bool true);
    set_flag ctx "system_altered";
    probe ctx s_util (90 lor (Hashtbl.hash param land 7));
    Done "system altered"
  | S_refresh_matview name -> (
      match Hashtbl.find_opt ctx.cat.Catalog.views name with
      | Some v when v.Catalog.v_materialized ->
        v.Catalog.v_cache <- Some (run_query ctx v.Catalog.v_query);
        set_flag ctx "matview_refreshed";
        probe ctx s_view 16;
        Done "materialized view refreshed"
      | Some _ ->
        probe ctx s_view 17;
        Errors.fail (Errors.Semantic "not a materialized view")
      | None ->
        probe ctx s_view 18;
        Errors.fail (Errors.No_such_object ("materialized view", name)))
  | S_kill n ->
    probe ctx s_util (96 lor if n = 0 then 1 else 0);
    if n = 0 then Errors.fail (Errors.Semantic "unknown thread id 0");
    Done "killed"
  | S_cluster target ->
    let do_one name =
      let table = Catalog.find_table ctx.cat name in
      let pk_pos =
        let cols = Table.cols table in
        let rec find i =
          if i >= Array.length cols then None
          else if cols.(i).Table.c_primary then Some i
          else find (i + 1)
        in
        find 0
      in
      match pk_pos with
      | None -> probe ctx s_util 100
      | Some p ->
        let rows = Table.rows table in
        let sorted =
          List.stable_sort
            (fun a b -> Value.compare_total a.(p) b.(p))
            rows
        in
        ignore (Table.truncate table);
        List.iter (fun r -> ignore (Table.insert table r)) sorted;
        Catalog.record_index_versions ~table:name ctx.cat;
        probe ctx s_util 101;
        set_flag ctx "clustered"
    in
    (match target with
     | Some t -> do_one t
     | None ->
       Hashtbl.iter (fun n _ -> do_one n) (Hashtbl.copy ctx.cat.Catalog.tables));
    Done "clustered"

and do_notify ctx channel payload =
  let delivered = List.mem channel ctx.cat.Catalog.listening in
  ctx.cat.Catalog.notify_queue <-
    (channel, payload) :: ctx.cat.Catalog.notify_queue;
  probe ctx s_notify (if delivered then 1 else 0);
  if delivered then set_flag ctx "notify_delivered";
  set_flag ctx "notified";
  Done "notified"

(* Moves [table] to [new_name] and retargets the indexes, triggers and
   rules on it. *)
and rename_table ctx table old_name new_name ~taken_key =
  refuse_duplicate ctx taken_key "table" new_name
    (Catalog.name_in_use ctx.cat new_name);
  Hashtbl.remove ctx.cat.Catalog.tables old_name;
  Table.set_name table new_name;
  Hashtbl.replace ctx.cat.Catalog.tables new_name table;
  let retarget tbl table_of moved =
    List.iter
      (fun (k, v) -> Hashtbl.replace tbl k (moved v))
      (dependents tbl table_of old_name)
  in
  retarget ctx.cat.Catalog.indexes index_table (fun x ->
      { x with Catalog.x_table = new_name });
  retarget ctx.cat.Catalog.triggers trigger_table (fun t ->
      { t with Catalog.tr_table = new_name });
  retarget ctx.cat.Catalog.rules rule_table (fun r ->
      { r with Catalog.r_table = new_name })

and exec_drop ctx target if_exists =
  let missing kind name =
    probe ctx s_ddl 30;
    if if_exists then Done (kind ^ " does not exist, skipped")
    else Errors.fail (Errors.No_such_object (kind, name))
  in
  let plain tbl kind key name =
    if not (Hashtbl.mem tbl name) then missing kind name
    else begin
      Hashtbl.remove tbl name;
      probe ctx s_ddl key;
      Done (kind ^ " dropped")
    end
  in
  match target with
  | D_table name ->
    if not (Hashtbl.mem ctx.cat.Catalog.tables name) then
      missing "table" name
    else begin
      Hashtbl.remove ctx.cat.Catalog.tables name;
      (* cascade: indexes, triggers, rules on the table *)
      let drop tbl table_of =
        let doomed = dependents tbl table_of name in
        List.iter (fun (k, _) -> Hashtbl.remove tbl k) doomed;
        List.length doomed
      in
      let indexes = drop ctx.cat.Catalog.indexes index_table in
      let triggers = drop ctx.cat.Catalog.triggers trigger_table in
      let rules = drop ctx.cat.Catalog.rules rule_table in
      let cascade = indexes + triggers + rules in
      Hashtbl.remove ctx.cat.Catalog.handlers name;
      Hashtbl.remove ctx.cat.Catalog.locks name;
      probe ctx s_ddl (31 + min 2 cascade);
      if cascade > 0 then set_flag ctx "drop_cascaded";
      Done "table dropped"
    end
  | D_index name -> plain ctx.cat.Catalog.indexes "index" 34 name
  | D_view name -> plain ctx.cat.Catalog.views "view" 35 name
  | D_trigger name -> plain ctx.cat.Catalog.triggers "trigger" 36 name
  | D_rule (name, _table) -> plain ctx.cat.Catalog.rules "rule" 37 name
  | D_sequence name -> plain ctx.cat.Catalog.sequences "sequence" 38 name
  | D_schema name -> plain ctx.cat.Catalog.schemas "schema" 39 name
  | D_database name ->
    if not (Hashtbl.mem ctx.cat.Catalog.databases name) then
      missing "database" name
    else if String.equal name ctx.cat.Catalog.current_db then begin
      probe ctx s_ddl 41;
      Errors.fail (Errors.Semantic "cannot drop the current database")
    end
    else begin
      Hashtbl.remove ctx.cat.Catalog.databases name;
      probe ctx s_ddl 40;
      Done "database dropped"
    end
  | D_user name ->
    if not (Hashtbl.mem ctx.cat.Catalog.users name) then missing "user" name
    else if String.equal name "root" then begin
      probe ctx s_dcl 10;
      Errors.fail (Errors.Semantic "cannot drop root")
    end
    else begin
      Hashtbl.remove ctx.cat.Catalog.users name;
      if String.equal ctx.cat.Catalog.current_user name then
        ctx.cat.Catalog.current_user <- "root";
      probe ctx s_dcl 9;
      Done "user dropped"
    end

and exec_alter_table ctx table_name action =
  let table = Catalog.find_table ctx.cat table_name in
  check_lock ctx table_name `Write;
  (match action with
   | Add_column def ->
     let col = Table.col_of_def def in
     refuse_duplicate ctx 45 "column" col.Table.c_name
       (Table.col_index table col.Table.c_name <> None);
     if
       col.Table.c_not_null && col.Table.c_default = None
       && Table.row_count table > 0
     then begin
       probe ctx s_ddl 46;
       Errors.fail
         (Errors.Constraint_violation
            "cannot add NOT NULL column without default to non-empty table")
     end;
     Table.add_column table col;
     probe ctx s_ddl 44
   | Drop_column name ->
     let pos = column_pos ctx s_ddl 48 table name in
     if Table.arity table = 1 then begin
       probe ctx s_ddl 49;
       Errors.fail (Errors.Semantic "cannot drop the only column")
     end;
     (* drop indexes that use the column *)
     let doomed =
       List.filter
         (fun (_, (x : Catalog.index_spec)) -> List.mem name x.x_cols)
         (dependents ctx.cat.Catalog.indexes index_table table_name)
     in
     List.iter (fun (k, _) -> Hashtbl.remove ctx.cat.Catalog.indexes k) doomed;
     if doomed <> [] then set_flag ctx "index_dropped_with_column";
     Table.drop_column table pos;
     probe ctx s_ddl 47
   | Rename_to new_name ->
     rename_table ctx table table_name new_name ~taken_key:51;
     probe ctx s_ddl 50
   | Rename_column (old_c, new_c) ->
     let pos = column_pos ctx s_ddl 53 table old_c in
     refuse_duplicate ctx 54 "column" new_c
       (Table.col_index table new_c <> None);
     Table.rename_column table pos new_c;
     probe ctx s_ddl 52
   | Alter_column_type (col, dt) ->
     let pos = column_pos ctx s_ddl 56 table col in
     Table.change_column_type table pos dt;
     probe ctx s_ddl 55;
     set_flag ctx "column_retyped");
  Catalog.record_index_versions ~table:table_name ctx.cat;
  Done "table altered"

and fire_triggers ctx table_name event ~timing =
  let trs = triggers_for ctx table_name event timing in
  if trs <> [] then
    nested ctx ~limit:ctx.limits.Limits.max_trigger_depth
      ~at_limit:(fun ctx ->
          probe ctx s_trigger 15;
          set_flag ctx "trigger_depth_limit")
      (fun () ->
         List.iter
           (fun (t : Catalog.trigger) ->
              probe ctx s_trigger
                ((match timing with Before -> 0 | After -> 8)
                 lor (ctx.trigger_depth land 7));
              set_flag ctx "trigger_fired";
              List.iter (fun s -> ignore (exec ctx s)) t.tr_body)
           trs)

(* The one DML prologue: a rule on the target table decides first
   (INSTEAD rules replace the statement); otherwise [plain] runs on the
   write-checked table. *)
and exec_dml ctx ~in_with table_name event plain =
  match
    if Hashtbl.mem ctx.cat.Catalog.tables table_name then
      Rewriter.rewrite_dml ctx.cat ~table:table_name ~event
    else Rewriter.No_rule
  with
  | Rewriter.No_rule ->
    let table = Catalog.find_table ctx.cat table_name in
    check_lock ctx table_name `Write;
    plain table
  | decision -> apply_rule ctx ~in_with decision

and exec_insert ctx ~replace ~in_with (i : insert) =
  exec_dml ctx ~in_with i.i_table Ev_insert
    (exec_plain_insert ctx ~replace ~in_with i)

and apply_rule ctx ~in_with decision =
  probe ctx s_rule
    ((Rewriter.decision_tag decision * 4) lor if in_with then 1 else 0);
  set_flag ctx "rule_rewrote";
  if in_with then set_flag ctx "dml_in_with_rewritten";
  match decision with
  | Rewriter.No_rule -> Affected 0
  | Rewriter.Instead_nothing _ -> Affected 0
  | Rewriter.Instead_notify (_, chan) ->
    if in_with then set_flag ctx "notify_rewrite_in_with";
    ignore (do_notify ctx chan None);
    Affected 0
  | Rewriter.Instead_stmt (_, s) ->
    if
      (* test-only planted rewriter bug: the substituted statement is
         dropped instead of executed *)
      Profile.quirk ctx.profile "rule_rewrite_noop"
    then Affected 0
    else
      nested ctx ~limit:ctx.limits.Limits.max_trigger_depth
        ~at_limit:(fun ctx ->
            probe ctx s_rule 15;
            Affected 0)
        (fun () ->
           match exec ctx s with Affected n -> Affected n | _ -> Affected 0)

and exec_plain_insert ctx ~replace ~in_with (i : insert) table =
  let cols = Table.cols table in
  let arity = Array.length cols in
  let positions =
    if i.i_cols = [] then Array.init arity (fun x -> x)
    else Array.of_list (List.map (column_pos ctx s_insert 14 table) i.i_cols)
  in
  let src_rows =
    match i.i_source with
    | Src_values rows ->
      List.map
        (fun row -> Array.of_list (List.map (fun e -> eval_scalar ctx e) row))
        rows
    | Src_query q ->
      probe ctx s_insert 12;
      set_flag ctx "insert_select";
      run_query ctx q
  in
  let inserted = ref 0 in
  let skip_row reason_key =
    probe ctx s_constraint reason_key;
    set_flag ctx "row_skipped"
  in
  (* every row starts from the column defaults *)
  let defaults =
    Array.map
      (fun c ->
         match c.Table.c_default with Some d -> d | None -> Value.Null)
      cols
  in
  List.iter
    (fun src ->
       if Array.length src <> Array.length positions then begin
         if i.i_ignore then skip_row 15
         else begin
           probe ctx s_insert 13;
           Errors.fail
             (Errors.Semantic "INSERT value count does not match columns")
         end
       end
       else begin
         let row = Array.copy defaults in
         let coerce_err = ref None in
         for k = 0 to Array.length src - 1 do
           let p = positions.(k) in
           match Value.coerce src.(k) cols.(p).Table.c_type with
           | Ok v ->
             if cols.(p).Table.c_zerofill then probe ctx s_insert 20;
             row.(p) <- v
           | Error msg -> coerce_err := Some msg
         done;
         match !coerce_err with
         | Some msg ->
           if i.i_ignore then skip_row 16
           else begin
             probe ctx s_insert 17;
             Errors.fail (Errors.Type_error msg)
           end
         | None ->
           (* NOT NULL *)
           if violates_not_null cols row then begin
             if i.i_ignore then skip_row 1
             else begin
               probe ctx s_constraint 0;
               set_flag ctx "not_null_violated";
               Errors.fail
                 (Errors.Constraint_violation "NOT NULL constraint")
             end
           end
           else begin
             let conflicts =
               find_conflicts ctx i.i_table table row ~exclude:None
             in
             if conflicts <> [] then begin
               if replace then begin
                 probe ctx s_constraint 4;
                 set_flag ctx "replace_displaced";
                 List.iter (Table.delete_row table) conflicts;
                 fire_triggers ctx i.i_table Ev_delete ~timing:After;
                 do_store ctx table i.i_table row inserted ~in_with
               end
               else if i.i_ignore then skip_row 2
               else begin
                 probe ctx s_constraint 3;
                 set_flag ctx "unique_violated";
                 Errors.fail
                   (Errors.Constraint_violation "UNIQUE constraint")
               end
             end
             else do_store ctx table i.i_table row inserted ~in_with
           end
       end)
    src_rows;
  Catalog.record_index_versions ~table:i.i_table ctx.cat;
  (* non-INSTEAD rules run after the original statement *)
  List.iter
    (fun (r : Catalog.rule) ->
       probe ctx s_rule 14;
       match r.r_action with
       | Ra_nothing -> ()
       | Ra_notify chan -> ignore (do_notify ctx chan None)
       | Ra_stmt s ->
         nested ctx ~limit:ctx.limits.Limits.max_trigger_depth
           ~at_limit:ignore
           (fun () -> ignore (exec ctx s)))
    (Rewriter.also_rules ctx.cat ~table:i.i_table ~event:Ev_insert);
  probe ctx s_insert (min 7 !inserted);
  Affected !inserted

and do_store ctx table table_name row inserted ~in_with =
  if Table.row_count table >= ctx.limits.Limits.max_rows_per_table then begin
    probe ctx s_insert 21;
    Errors.fail (Errors.Limit_exceeded "table rows")
  end;
  fire_triggers ctx table_name Ev_insert ~timing:Before;
  ignore (Table.insert table row);
  incr inserted;
  if in_with then set_flag ctx "dml_in_with_executed";
  fire_triggers ctx table_name Ev_insert ~timing:After

(* UPDATE's and DELETE's target rows, in rowid order: those WHERE
   keeps, then the first LIMIT of them. *)
and dml_targets ctx site table_name table where limit =
  let matching =
    match where with
    | None -> Table.to_rows table
    | Some w ->
      let cols = col_names table in
      List.filter
        (fun (_, row) ->
           Expr_eval.eval_bool
             (row_env ctx
                [ { b_alias = table_name; b_cols = cols; b_vals = row } ])
             w)
        (Table.to_rows table)
  in
  let matching =
    match limit with
    | None -> matching
    | Some n ->
      probe ctx site 12;
      List.filteri (fun i _ -> i < n) matching
  in
  probe ctx site (bucket (List.length matching));
  matching

and exec_update ctx ~in_with (u : update) =
  exec_dml ctx ~in_with u.u_table Ev_update (fun table ->
      let cols = Table.cols table in
      let set_positions =
        List.map
          (fun (c, e) -> (column_pos ctx s_update 14 table c, e))
          u.u_sets
      in
      let matching =
        dml_targets ctx s_update u.u_table table u.u_where u.u_limit
      in
      let col_names = col_names table in
      let updated = ref 0 in
      List.iter
        (fun (rowid, row) ->
           let env =
             row_env ctx
               [ { b_alias = u.u_table; b_cols = col_names; b_vals = row } ]
           in
           let row' = Array.copy row in
           List.iter
             (fun (p, e) ->
                let v = Expr_eval.eval env e in
                match Value.coerce v cols.(p).Table.c_type with
                | Ok v -> row'.(p) <- v
                | Error msg ->
                  probe ctx s_update 13;
                  Errors.fail (Errors.Type_error msg))
             set_positions;
           if violates_not_null cols row' then begin
             probe ctx s_constraint 5;
             set_flag ctx "not_null_violated";
             Errors.fail (Errors.Constraint_violation "NOT NULL constraint")
           end;
           let conflicts =
             find_conflicts ctx u.u_table table row' ~exclude:(Some rowid)
           in
           if conflicts <> [] then begin
             probe ctx s_constraint 6;
             set_flag ctx "unique_violated";
             Errors.fail (Errors.Constraint_violation "UNIQUE constraint")
           end;
           fire_triggers ctx u.u_table Ev_update ~timing:Before;
           Table.update_row table rowid row';
           incr updated;
           if in_with then set_flag ctx "dml_in_with_executed";
           fire_triggers ctx u.u_table Ev_update ~timing:After)
        matching;
      Catalog.record_index_versions ~table:u.u_table ctx.cat;
      Affected !updated)

and exec_delete ctx ~in_with (d : delete) =
  exec_dml ctx ~in_with d.d_table Ev_delete (fun table ->
      let matching =
        dml_targets ctx s_delete d.d_table table d.d_where d.d_limit
      in
      let ids = Iset.of_list (List.map fst matching) in
      if not (Iset.is_empty ids) then
        fire_triggers ctx d.d_table Ev_delete ~timing:Before;
      let n = Table.delete_rows table (fun id -> Iset.mem id ids) in
      if n > 0 then begin
        if in_with then set_flag ctx "dml_in_with_executed";
        fire_triggers ctx d.d_table Ev_delete ~timing:After
      end;
      Catalog.record_index_versions ~table:d.d_table ctx.cat;
      Affected n)

and exec_with ctx ctes body =
  let saved = ctx.ctes in
  let restore () = ctx.ctes <- saved in
  probe ctx s_cte (16 + min 3 (List.length ctes));
  try
    List.iter
      (fun { cte_name; cte_body } ->
         let rel =
           match cte_body with
           | W_query q ->
             { cr_headers = headers_of_query ctx q; cr_rows = run_query ctx q }
           | dml ->
             ignore (exec_with_body ctx dml);
             { cr_headers = []; cr_rows = [] }
         in
         ctx.ctes <- (cte_name, rel) :: ctx.ctes)
      ctes;
    let result = exec_with_body ctx body in
    restore ();
    result
  with e ->
    restore ();
    raise e

and exec_with_body ctx = function
  | W_query q -> Rows (headers_of_query ctx q, run_query ctx q)
  | W_insert i ->
    set_flag ctx "dml_in_with";
    exec_insert ctx ~replace:false ~in_with:true i
  | W_update u ->
    set_flag ctx "dml_in_with";
    exec_update ctx ~in_with:true u
  | W_delete d ->
    set_flag ctx "dml_in_with";
    exec_delete ctx ~in_with:true d
