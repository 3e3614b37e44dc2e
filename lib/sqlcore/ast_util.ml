open Ast

(* ------------------------------------------------------------------ *)
(* Expression map (bottom-up), recursing into nested queries.          *)
(* ------------------------------------------------------------------ *)

let rec map_expr f e =
  let e' =
    match e with
    | Lit _ | Col _ -> e
    | Unop (op, a) -> Unop (op, map_expr f a)
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Fn (n, args) -> Fn (n, List.map (map_expr f) args)
    | Agg (fn, d, arg) -> Agg (fn, d, Option.map (map_expr f) arg)
    | Case (whens, else_) ->
      Case
        ( List.map (fun (c, v) -> (map_expr f c, map_expr f v)) whens,
          Option.map (map_expr f) else_ )
    | Cast (a, dt) -> Cast (map_expr f a, dt)
    | In_list { e; items; negated } ->
      In_list
        { e = map_expr f e; items = List.map (map_expr f) items; negated }
    | Between { e; lo; hi; negated } ->
      Between
        { e = map_expr f e; lo = map_expr f lo; hi = map_expr f hi; negated }
    | Is_null (a, n) -> Is_null (map_expr f a, n)
    | Like { e; pat; negated } ->
      Like { e = map_expr f e; pat = map_expr f pat; negated }
    | Exists (q, n) -> Exists (map_query_exprs f q, n)
    | Subquery q -> Subquery (map_query_exprs f q)
    | Win { fn; args; over } ->
      Win
        { fn;
          args = List.map (map_expr f) args;
          over =
            { partition_by = List.map (map_expr f) over.partition_by;
              w_order_by =
                List.map (fun (e, d) -> (map_expr f e, d)) over.w_order_by;
              frame = over.frame } }
  in
  f e'

and map_query_exprs f = function
  | Q_select s -> Q_select (map_select_exprs f s)
  | Q_values rows -> Q_values (List.map (List.map (map_expr f)) rows)
  | Q_compound (a, op, b) ->
    Q_compound (map_query_exprs f a, op, map_query_exprs f b)

and map_select_exprs f s =
  { s with
    projs =
      List.map
        (function
          | Star -> Star
          | Star_of t -> Star_of t
          | Proj (e, a) -> Proj (map_expr f e, a))
        s.projs;
    from = Option.map (map_from_exprs f) s.from;
    where = Option.map (map_expr f) s.where;
    group_by = List.map (map_expr f) s.group_by;
    having = Option.map (map_expr f) s.having;
    order_by = List.map (fun (e, d) -> (map_expr f e, d)) s.order_by }

and map_from_exprs f = function
  | From_table _ as t -> t
  | From_join { left; kind; right; on } ->
    From_join
      { left = map_from_exprs f left;
        kind;
        right = map_from_exprs f right;
        on = Option.map (map_expr f) on }
  | From_subquery { q; alias } ->
    From_subquery { q = map_query_exprs f q; alias }

let map_insert_exprs f (i : insert) =
  { i with
    i_source =
      (match i.i_source with
       | Src_values rows -> Src_values (List.map (List.map (map_expr f)) rows)
       | Src_query q -> Src_query (map_query_exprs f q)) }

let map_update_exprs f (u : update) =
  { u with
    u_sets = List.map (fun (c, e) -> (c, map_expr f e)) u.u_sets;
    u_where = Option.map (map_expr f) u.u_where }

let map_delete_exprs f (d : delete) =
  { d with d_where = Option.map (map_expr f) d.d_where }

let map_with_body_exprs f = function
  | W_query q -> W_query (map_query_exprs f q)
  | W_insert i -> W_insert (map_insert_exprs f i)
  | W_update u -> W_update (map_update_exprs f u)
  | W_delete d -> W_delete (map_delete_exprs f d)

let rec map_exprs f = function
  | S_create_view v -> S_create_view { v with query = map_query_exprs f v.query }
  | S_create_trigger t ->
    S_create_trigger { t with body = List.map (map_exprs f) t.body }
  | S_create_rule r ->
    S_create_rule
      { r with
        action =
          (match r.action with
           | Ra_nothing | Ra_notify _ -> r.action
           | Ra_stmt s -> Ra_stmt (map_exprs f s)) }
  | S_insert i -> S_insert (map_insert_exprs f i)
  | S_replace i -> S_replace (map_insert_exprs f i)
  | S_update u -> S_update (map_update_exprs f u)
  | S_delete d -> S_delete (map_delete_exprs f d)
  | S_copy_to { src = Cs_query q; header } ->
    S_copy_to { src = Cs_query (map_query_exprs f q); header }
  | S_select q -> S_select (map_query_exprs f q)
  | S_with { ctes; body } ->
    S_with
      { ctes =
          List.map
            (fun c -> { c with cte_body = map_with_body_exprs f c.cte_body })
            ctes;
        body = map_with_body_exprs f body }
  | S_explain s -> S_explain (map_exprs f s)
  | S_prepare { name; stmt } -> S_prepare { name; stmt = map_exprs f stmt }
  | S_do e -> S_do (map_expr f e)
  | ( S_create_table _ | S_create_index _ | S_create_sequence _
    | S_create_schema _ | S_create_database _ | S_create_user _ | S_drop _
    | S_alter_table _ | S_alter_sequence _ | S_alter_user _ | S_rename_table _
    | S_truncate _ | S_comment_on _ | S_copy_to { src = Cs_table _; _ }
    | S_copy_from _ | S_load_data _ | S_table _ | S_describe _ | S_show _
    | S_grant _ | S_revoke _ | S_set_role _ | S_begin | S_commit | S_rollback
    | S_savepoint _ | S_release_savepoint _ | S_rollback_to _
    | S_set_transaction _ | S_lock_tables _ | S_unlock_tables | S_set_var _
    | S_reset_var _ | S_set_names _ | S_pragma _ | S_vacuum _ | S_analyze _
    | S_reindex _ | S_checkpoint | S_flush _ | S_optimize _ | S_check_table _
    | S_repair _ | S_notify _ | S_listen _ | S_unlisten _ | S_discard _
    | S_execute _ | S_deallocate _ | S_use _ | S_handler_open _
    | S_handler_read _ | S_handler_close _ | S_alter_system _
    | S_refresh_matview _ | S_kill _ | S_cluster _ ) as s -> s

(* ------------------------------------------------------------------ *)
(* Expression fold: the nodes [map_exprs] rewrites, without rebuilding. *)
(* ------------------------------------------------------------------ *)

(* [fold_exprs f] hands [f] the nodes in exactly the order [map_exprs]
   does. That order is OCaml's evaluation order for the rebuilt tree:
   the arguments of a constructor, tuple or record right to left, list
   elements left to right, every node after its children. So a
   [Binop]'s right operand comes first and a SELECT's clauses run from
   ORDER BY back to the projections. *)
let rec fold_expr f acc e =
  let acc =
    match e with
    | Lit _ | Col _ -> acc
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> fold_expr f acc a
    | Binop (_, a, b) | Like { e = a; pat = b; _ } ->
      fold_expr f (fold_expr f acc b) a
    | Fn (_, args) -> fold_list f acc args
    | Agg (_, _, arg) -> fold_opt f acc arg
    | Case (whens, else_) -> fold_arms f (fold_opt f acc else_) whens
    | In_list { e; items; _ } -> fold_expr f (fold_list f acc items) e
    | Between { e; lo; hi; _ } ->
      fold_expr f (fold_expr f (fold_expr f acc hi) lo) e
    | Exists (q, _) | Subquery q -> fold_query f acc q
    | Win { args; over; _ } ->
      fold_list f
        (fold_list f (fold_keyed f acc over.w_order_by) over.partition_by)
        args
  in
  f acc e

and fold_opt f acc = function None -> acc | Some e -> fold_expr f acc e

and fold_list f acc = function
  | [] -> acc
  | e :: rest -> fold_list f (fold_expr f acc e) rest

and fold_rows f acc = function
  | [] -> acc
  | row :: rest -> fold_rows f (fold_list f acc row) rest

(* ORDER BY items *)
and fold_keyed f acc = function
  | [] -> acc
  | (e, _) :: rest -> fold_keyed f (fold_expr f acc e) rest

(* CASE arms: each arm's result before its condition *)
and fold_arms f acc = function
  | [] -> acc
  | (c, v) :: rest -> fold_arms f (fold_expr f (fold_expr f acc v) c) rest

and fold_query f acc = function
  | Q_select s -> fold_select f acc s
  | Q_values rows -> fold_rows f acc rows
  | Q_compound (a, _, b) -> fold_query f (fold_query f acc b) a

and fold_select f acc s =
  let acc = fold_keyed f acc s.order_by in
  let acc = fold_opt f acc s.having in
  let acc = fold_list f acc s.group_by in
  let acc = fold_opt f acc s.where in
  let acc = match s.from with None -> acc | Some fr -> fold_from f acc fr in
  fold_projs f acc s.projs

and fold_projs f acc = function
  | [] -> acc
  | Proj (e, _) :: rest -> fold_projs f (fold_expr f acc e) rest
  | (Star | Star_of _) :: rest -> fold_projs f acc rest

and fold_from f acc = function
  | From_table _ -> acc
  | From_join { left; right; on; _ } ->
    fold_from f (fold_from f (fold_opt f acc on) right) left
  | From_subquery { q; _ } -> fold_query f acc q

let fold_insert f acc (i : insert) =
  match i.i_source with
  | Src_values rows -> fold_rows f acc rows
  | Src_query q -> fold_query f acc q

let fold_update f acc (u : update) =
  let rec sets acc = function
    | [] -> acc
    | (_, e) :: rest -> sets (fold_expr f acc e) rest
  in
  sets (fold_opt f acc u.u_where) u.u_sets

let fold_with_body f acc = function
  | W_query q -> fold_query f acc q
  | W_insert i -> fold_insert f acc i
  | W_update u -> fold_update f acc u
  | W_delete d -> fold_opt f acc d.d_where

let rec fold_exprs f acc = function
  | S_create_view { query; _ } -> fold_query f acc query
  | S_create_trigger { body; _ } ->
    List.fold_left (fun acc s -> fold_exprs f acc s) acc body
  | S_create_rule { action = Ra_stmt s; _ } | S_explain s
  | S_prepare { stmt = s; _ } -> fold_exprs f acc s
  | S_insert i | S_replace i -> fold_insert f acc i
  | S_update u -> fold_update f acc u
  | S_delete d -> fold_opt f acc d.d_where
  | S_copy_to { src = Cs_query q; _ } | S_select q -> fold_query f acc q
  | S_with { ctes; body } ->
    List.fold_left
      (fun acc c -> fold_with_body f acc c.cte_body)
      (fold_with_body f acc body) ctes
  | S_do e -> fold_expr f acc e
  | S_create_rule { action = Ra_nothing | Ra_notify _; _ }
  | S_create_table _ | S_create_index _ | S_create_sequence _
  | S_create_schema _ | S_create_database _ | S_create_user _ | S_drop _
  | S_alter_table _ | S_alter_sequence _ | S_alter_user _ | S_rename_table _
  | S_truncate _ | S_comment_on _ | S_copy_to { src = Cs_table _; _ }
  | S_copy_from _ | S_load_data _ | S_table _ | S_describe _ | S_show _
  | S_grant _ | S_revoke _ | S_set_role _ | S_begin | S_commit | S_rollback
  | S_savepoint _ | S_release_savepoint _ | S_rollback_to _
  | S_set_transaction _ | S_lock_tables _ | S_unlock_tables | S_set_var _
  | S_reset_var _ | S_set_names _ | S_pragma _ | S_vacuum _ | S_analyze _
  | S_reindex _ | S_checkpoint | S_flush _ | S_optimize _ | S_check_table _
  | S_repair _ | S_notify _ | S_listen _ | S_unlisten _ | S_discard _
  | S_execute _ | S_deallocate _ | S_use _ | S_handler_open _
  | S_handler_read _ | S_handler_close _ | S_alter_system _
  | S_refresh_matview _ | S_kill _ | S_cluster _ -> acc

(* ------------------------------------------------------------------ *)
(* Table-reference renaming.                                           *)
(* ------------------------------------------------------------------ *)

let rec rn_query g = function
  | Q_select s -> Q_select (rn_select g s)
  | Q_values rows -> Q_values rows
  | Q_compound (a, op, b) -> Q_compound (rn_query g a, op, rn_query g b)

and rn_select g s =
  let s = { s with from = Option.map (rn_from g) s.from } in
  (* Qualified column references follow the table rename too. *)
  map_select_exprs
    (function Col (Some t, c) -> Col (Some (g t), c) | e -> e)
    { s with
      projs =
        List.map
          (function Star_of t -> Star_of (g t) | p -> p)
          s.projs }

and rn_from g = function
  | From_table { name; alias } -> From_table { name = g name; alias }
  | From_join { left; kind; right; on } ->
    From_join { left = rn_from g left; kind; right = rn_from g right; on }
  | From_subquery { q; alias } -> From_subquery { q = rn_query g q; alias }

let rn_insert g (i : insert) =
  { i with
    i_table = g i.i_table;
    i_source =
      (match i.i_source with
       | Src_values _ as v -> v
       | Src_query q -> Src_query (rn_query g q)) }

let rn_update g (u : update) = { u with u_table = g u.u_table }

let rn_delete g (d : delete) = { d with d_table = g d.d_table }

let rn_with_body g = function
  | W_query q -> W_query (rn_query g q)
  | W_insert i -> W_insert (rn_insert g i)
  | W_update u -> W_update (rn_update g u)
  | W_delete d -> W_delete (rn_delete g d)

let rec map_table_refs g stmt =
  (* First rename table-position names, then rename column qualifiers and
     subquery FROMs via the expression rewriter. *)
  let stmt =
    match stmt with
    | S_create_table c -> S_create_table { c with name = g c.name }
    | S_create_index i -> S_create_index { i with table = g i.table }
    | S_create_view v ->
      S_create_view { v with name = g v.name; query = rn_query g v.query }
    | S_create_trigger t ->
      S_create_trigger
        { t with table = g t.table; body = List.map (map_table_refs g) t.body }
    | S_create_rule r ->
      S_create_rule
        { r with
          table = g r.table;
          action =
            (match r.action with
             | Ra_nothing | Ra_notify _ -> r.action
             | Ra_stmt s -> Ra_stmt (map_table_refs g s)) }
    | S_drop { target; if_exists } ->
      let target =
        match target with
        | D_table n -> D_table (g n)
        | D_view n -> D_view (g n)
        | D_rule (n, t) -> D_rule (n, g t)
        | (D_index _ | D_trigger _ | D_sequence _ | D_schema _ | D_database _
          | D_user _) as t -> t
      in
      S_drop { target; if_exists }
    | S_alter_table (t, a) -> S_alter_table (g t, a)
    | S_rename_table pairs ->
      S_rename_table (List.map (fun (a, b) -> (g a, g b)) pairs)
    | S_truncate t -> S_truncate (g t)
    | S_comment_on c -> S_comment_on { c with table = g c.table }
    | S_insert i -> S_insert (rn_insert g i)
    | S_replace i -> S_replace (rn_insert g i)
    | S_update u -> S_update (rn_update g u)
    | S_delete d -> S_delete (rn_delete g d)
    | S_copy_to { src; header } ->
      let src =
        match src with
        | Cs_table t -> Cs_table (g t)
        | Cs_query q -> Cs_query (rn_query g q)
      in
      S_copy_to { src; header }
    | S_copy_from c -> S_copy_from { c with table = g c.table }
    | S_load_data l -> S_load_data { l with table = g l.table }
    | S_select q -> S_select (rn_query g q)
    | S_with { ctes; body } ->
      S_with
        { ctes =
            List.map
              (fun c -> { c with cte_body = rn_with_body g c.cte_body })
              ctes;
          body = rn_with_body g body }
    | S_table t -> S_table (g t)
    | S_explain s -> S_explain (map_table_refs g s)
    | S_describe t -> S_describe (g t)
    | S_show (Sh_columns t) -> S_show (Sh_columns (g t))
    | S_grant gr -> S_grant { gr with table = g gr.table }
    | S_revoke r -> S_revoke { r with table = g r.table }
    | S_lock_tables locks ->
      S_lock_tables (List.map (fun (t, m) -> (g t, m)) locks)
    | S_vacuum t -> S_vacuum (Option.map g t)
    | S_analyze t -> S_analyze (Option.map g t)
    | S_reindex t -> S_reindex (Option.map g t)
    | S_optimize t -> S_optimize (g t)
    | S_check_table t -> S_check_table (g t)
    | S_repair t -> S_repair (g t)
    | S_prepare { name; stmt } ->
      S_prepare { name; stmt = map_table_refs g stmt }
    | S_handler_open t -> S_handler_open (g t)
    | S_handler_read { table; dir } -> S_handler_read { table = g table; dir }
    | S_handler_close t -> S_handler_close (g t)
    | S_refresh_matview v -> S_refresh_matview (g v)
    | S_cluster t -> S_cluster (Option.map g t)
    | ( S_create_sequence _ | S_create_schema _ | S_create_database _
      | S_create_user _ | S_alter_sequence _ | S_alter_user _
      | S_show (Sh_tables | Sh_variables | Sh_status) | S_set_role _ | S_begin
      | S_commit | S_rollback | S_savepoint _ | S_release_savepoint _
      | S_rollback_to _ | S_set_transaction _ | S_unlock_tables | S_set_var _
      | S_reset_var _ | S_set_names _ | S_pragma _ | S_checkpoint | S_flush _
      | S_notify _ | S_listen _ | S_unlisten _ | S_discard _ | S_execute _
      | S_deallocate _ | S_use _ | S_do _ | S_alter_system _ | S_kill _ ) as s
      -> s
  in
  map_exprs
    (function Col (Some t, c) -> Col (Some (g t), c) | e -> e)
    stmt

(* ------------------------------------------------------------------ *)
(* Read / write table collection.                                      *)
(* ------------------------------------------------------------------ *)

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
       if Hashtbl.mem seen x then false
       else begin
         Hashtbl.add seen x ();
         true
       end)
    xs

(* One walk serves the table sets and [stmt_size]: it reaches exactly the
   expression nodes [fold_exprs] does, and [c_depth] adds each node's
   [expr_depth] to [size] while returning it, so sizing a statement sums
   the depths bottom-up instead of re-measuring every subtree. *)
type collect = {
  mutable reads : string list;
  mutable writes : string list;
  mutable size : int;
}

let rec c_query acc = function
  | Q_select s -> c_select acc s
  | Q_values rows -> c_rows acc rows
  | Q_compound (a, _, b) ->
    c_query acc a;
    c_query acc b

and c_select acc s =
  (match s.from with None -> () | Some fr -> c_from acc fr);
  c_projs acc s.projs;
  c_opt acc s.where;
  c_exprs acc s.group_by;
  c_opt acc s.having;
  ignore (c_depth_keyed acc 0 s.order_by)

and c_projs acc = function
  | [] -> ()
  | Proj (e, _) :: rest ->
    c_expr acc e;
    c_projs acc rest
  | (Star | Star_of _) :: rest -> c_projs acc rest

and c_from acc = function
  | From_table { name; _ } -> acc.reads <- name :: acc.reads
  | From_join { left; right; on; _ } ->
    c_from acc left;
    c_from acc right;
    c_opt acc on
  | From_subquery { q; _ } -> c_query acc q

and c_expr acc e = ignore (c_depth acc e)

and c_exprs acc l = ignore (c_depth_list acc 0 l)

and c_opt acc = function None -> () | Some e -> c_expr acc e

and c_rows acc = function
  | [] -> ()
  | row :: rest ->
    c_exprs acc row;
    c_rows acc rest

and c_depth acc e =
  let d =
    match e with
    | Lit _ | Col _ -> 1
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> 1 + c_depth acc a
    | Binop (_, a, b) | Like { e = a; pat = b; _ } ->
      let da = c_depth acc a in
      1 + max da (c_depth acc b)
    | Fn (_, args) -> 1 + c_depth_list acc 0 args
    | Agg (_, _, None) -> 1
    | Agg (_, _, Some a) -> 1 + c_depth acc a
    | Case (whens, else_) ->
      let m = c_depth_arms acc 0 whens in
      1 + (match else_ with None -> m | Some e -> max m (c_depth acc e))
    | In_list { e; items; _ } ->
      let de = c_depth acc e in
      1 + max de (c_depth_list acc 0 items)
    | Between { e; lo; hi; _ } ->
      let de = c_depth acc e in
      let dl = c_depth acc lo in
      1 + max de (max dl (c_depth acc hi))
    | Exists (q, _) | Subquery q ->
      c_query acc q;
      2
    | Win { args; over; _ } ->
      let da = c_depth_list acc 0 args in
      let dp = c_depth_list acc 0 over.partition_by in
      1 + max da (max dp (c_depth_keyed acc 0 over.w_order_by))
  in
  acc.size <- acc.size + d;
  d

and c_depth_list acc m = function
  | [] -> m
  | e :: rest -> c_depth_list acc (max m (c_depth acc e)) rest

and c_depth_keyed acc m = function
  | [] -> m
  | (e, _) :: rest -> c_depth_keyed acc (max m (c_depth acc e)) rest

and c_depth_arms acc m = function
  | [] -> m
  | (c, v) :: rest ->
    let dc = c_depth acc c in
    c_depth_arms acc (max m (max dc (c_depth acc v))) rest

let c_insert acc (i : insert) =
  acc.writes <- i.i_table :: acc.writes;
  match i.i_source with
  | Src_values rows -> c_rows acc rows
  | Src_query q -> c_query acc q

let c_update acc (u : update) =
  acc.writes <- u.u_table :: acc.writes;
  List.iter (fun (_, e) -> c_expr acc e) u.u_sets;
  c_opt acc u.u_where

let c_delete acc (d : delete) =
  acc.writes <- d.d_table :: acc.writes;
  c_opt acc d.d_where

let c_with_body acc = function
  | W_query q -> c_query acc q
  | W_insert i -> c_insert acc i
  | W_update u -> c_update acc u
  | W_delete d -> c_delete acc d

let rec c_stmt acc = function
  | S_create_view { query; _ } -> c_query acc query
  | S_create_trigger { table; body; _ } ->
    acc.reads <- table :: acc.reads;
    List.iter (c_stmt acc) body
  | S_create_rule { table; action; _ } ->
    acc.reads <- table :: acc.reads;
    (match action with
     | Ra_nothing | Ra_notify _ -> ()
     | Ra_stmt s -> c_stmt acc s)
  | S_insert i -> c_insert acc i
  | S_replace i -> c_insert acc i
  | S_update u -> c_update acc u
  | S_delete d -> c_delete acc d
  | S_truncate t -> acc.writes <- t :: acc.writes
  | S_copy_to { src = Cs_table t; _ } -> acc.reads <- t :: acc.reads
  | S_copy_to { src = Cs_query q; _ } -> c_query acc q
  | S_copy_from { table; _ } -> acc.writes <- table :: acc.writes
  | S_load_data { table; _ } -> acc.writes <- table :: acc.writes
  | S_select q -> c_query acc q
  | S_with { ctes; body } ->
    List.iter (fun c -> c_with_body acc c.cte_body) ctes;
    c_with_body acc body
  | S_table t -> acc.reads <- t :: acc.reads
  | S_explain s -> c_stmt acc s
  | S_describe t | S_show (Sh_columns t) -> acc.reads <- t :: acc.reads
  | S_prepare { stmt; _ } -> c_stmt acc stmt
  | S_do e -> c_expr acc e
  | S_handler_open t | S_handler_read { table = t; _ } ->
    acc.reads <- t :: acc.reads
  | S_alter_table (t, _) -> acc.writes <- t :: acc.writes
  | S_optimize t | S_check_table t | S_repair t ->
    acc.reads <- t :: acc.reads
  | S_vacuum (Some t) | S_analyze (Some t) | S_reindex (Some t)
  | S_cluster (Some t) -> acc.reads <- t :: acc.reads
  | S_create_table _ | S_create_index _ | S_create_sequence _
  | S_create_schema _ | S_create_database _ | S_create_user _ | S_drop _
  | S_alter_sequence _ | S_alter_user _ | S_rename_table _ | S_comment_on _
  | S_show (Sh_tables | Sh_variables | Sh_status) | S_grant _ | S_revoke _
  | S_set_role _ | S_begin | S_commit | S_rollback | S_savepoint _
  | S_release_savepoint _ | S_rollback_to _ | S_set_transaction _
  | S_lock_tables _ | S_unlock_tables | S_set_var _ | S_reset_var _
  | S_set_names _ | S_pragma _ | S_vacuum None | S_analyze None
  | S_reindex None | S_checkpoint | S_flush _ | S_notify _ | S_listen _
  | S_unlisten _ | S_discard _ | S_execute _ | S_deallocate _ | S_use _
  | S_handler_close _ | S_alter_system _ | S_refresh_matview _ | S_kill _
  | S_cluster None -> ()

let collect stmt =
  let acc = { reads = []; writes = []; size = 0 } in
  c_stmt acc stmt;
  (dedup (List.rev acc.reads), dedup (List.rev acc.writes))

let tables_read stmt = fst (collect stmt)

let tables_written stmt = snd (collect stmt)

let objects_created = function
  | S_create_table { name; temp; _ } ->
    [ ((if temp then "temp_table" else "table"), name) ]
  | S_create_index { name; _ } -> [ ("index", name) ]
  | S_create_view { name; _ } -> [ ("view", name) ]
  | S_create_trigger { name; _ } -> [ ("trigger", name) ]
  | S_create_rule { name; _ } -> [ ("rule", name) ]
  | S_create_sequence { name; _ } -> [ ("sequence", name) ]
  | S_create_schema n -> [ ("schema", n) ]
  | S_create_database n -> [ ("database", n) ]
  | S_create_user { user; _ } -> [ ("user", user) ]
  | _ -> []

let has_window_fn stmt =
  fold_exprs (fun acc e -> acc || match e with Win _ -> true | _ -> false)
    false stmt

let has_subquery stmt =
  fold_exprs
    (fun acc e ->
       acc || match e with Subquery _ | Exists _ -> true | _ -> false)
    false stmt

let has_aggregate stmt =
  fold_exprs (fun acc e -> acc || match e with Agg _ -> true | _ -> false)
    false stmt

let column_refs stmt =
  List.rev
    (fold_exprs
       (fun acc e -> match e with Col (q, c) -> (q, c) :: acc | _ -> acc)
       [] stmt)

let rec expr_depth = function
  | Lit _ | Col _ -> 1
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> 1 + expr_depth a
  | Binop (_, a, b) -> 1 + max (expr_depth a) (expr_depth b)
  | Fn (_, args) -> 1 + depth_of_list args
  | Agg (_, _, arg) ->
    1 + (match arg with None -> 0 | Some a -> expr_depth a)
  | Case (whens, else_) ->
    let d =
      List.fold_left
        (fun acc (c, v) -> max acc (max (expr_depth c) (expr_depth v)))
        0 whens
    in
    1 + max d (match else_ with None -> 0 | Some e -> expr_depth e)
  | In_list { e; items; _ } ->
    1 + max (expr_depth e) (depth_of_list items)
  | Between { e; lo; hi; _ } ->
    1 + max (expr_depth e) (max (expr_depth lo) (expr_depth hi))
  | Like { e; pat; _ } -> 1 + max (expr_depth e) (expr_depth pat)
  | Exists _ | Subquery _ -> 2
  | Win { args; over; _ } ->
    1
    + max (depth_of_list args)
        (max
           (depth_of_list over.partition_by)
           (depth_of_list (List.map fst over.w_order_by)))

and depth_of_list = function
  | [] -> 0
  | xs -> List.fold_left (fun acc e -> max acc (expr_depth e)) 0 xs

(* Distinct names, without building the deduplicated list: an element
   counts at its last occurrence. *)
let rec mem_string x = function
  | [] -> false
  | y :: ys -> String.equal x y || mem_string x ys

let rec count_distinct = function
  | [] -> 0
  | x :: rest -> (if mem_string x rest then 0 else 1) + count_distinct rest

let stmt_size stmt =
  let acc = { reads = []; writes = []; size = 1 } in
  c_stmt acc stmt;
  acc.size + count_distinct acc.reads + count_distinct acc.writes
