open Ast

(* ------------------------------------------------------------------ *)
(* Expression map (bottom-up), recursing into nested queries.          *)
(* ------------------------------------------------------------------ *)

(* The maps share what they leave alone: a node whose children and [f]
   result are all physically unchanged is returned itself, so a
   statement no rewrite touches comes back [==] to its input and the
   physical-identity memos downstream (Harness's statement memo) keep
   hitting. They hand [f] the nodes in [fold_exprs]' order (see below),
   which the [let]s spell out: the arguments of a constructor, tuple or
   record right to left, list elements left to right, every node after
   its children. *)

let map_opt g o =
  match o with
  | None -> o
  | Some x ->
    let x' = g x in
    if x' == x then o else Some x'

let rec map_list g l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = g x in
    let rest' = map_list g rest in
    if x' == x && rest' == rest then l else x' :: rest'

let rec map_expr f e =
  let e' =
    match e with
    | Lit _ | Col _ -> e
    | Unop (op, a) ->
      let a' = map_expr f a in
      if a' == a then e else Unop (op, a')
    | Binop (op, a, b) ->
      let b' = map_expr f b in
      let a' = map_expr f a in
      if a' == a && b' == b then e else Binop (op, a', b')
    | Fn (n, args) ->
      let args' = map_exprs_list f args in
      if args' == args then e else Fn (n, args')
    | Agg (fn, d, arg) ->
      let arg' = map_expr_opt f arg in
      if arg' == arg then e else Agg (fn, d, arg')
    | Case (whens, else_) ->
      let else' = map_expr_opt f else_ in
      let whens' = map_arms f whens in
      if whens' == whens && else' == else_ then e else Case (whens', else')
    | Cast (a, dt) ->
      let a' = map_expr f a in
      if a' == a then e else Cast (a', dt)
    | In_list { e = a; items; negated } ->
      let items' = map_exprs_list f items in
      let a' = map_expr f a in
      if a' == a && items' == items then e
      else In_list { e = a'; items = items'; negated }
    | Between { e = a; lo; hi; negated } ->
      let hi' = map_expr f hi in
      let lo' = map_expr f lo in
      let a' = map_expr f a in
      if a' == a && lo' == lo && hi' == hi then e
      else Between { e = a'; lo = lo'; hi = hi'; negated }
    | Is_null (a, n) ->
      let a' = map_expr f a in
      if a' == a then e else Is_null (a', n)
    | Like { e = a; pat; negated } ->
      let pat' = map_expr f pat in
      let a' = map_expr f a in
      if a' == a && pat' == pat then e else Like { e = a'; pat = pat'; negated }
    | Exists (q, n) ->
      let q' = map_query_exprs f q in
      if q' == q then e else Exists (q', n)
    | Subquery q ->
      let q' = map_query_exprs f q in
      if q' == q then e else Subquery q'
    | Win { fn; args; over } ->
      let order' = map_keyed f over.w_order_by in
      let part' = map_exprs_list f over.partition_by in
      let args' = map_exprs_list f args in
      if args' == args && part' == over.partition_by
         && order' == over.w_order_by
      then e
      else
        Win
          { fn; args = args';
            over =
              { partition_by = part'; w_order_by = order';
                frame = over.frame } }
  in
  f e'

and map_expr_opt f o =
  match o with
  | None -> o
  | Some x ->
    let x' = map_expr f x in
    if x' == x then o else Some x'

and map_exprs_list f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = map_expr f x in
    let rest' = map_exprs_list f rest in
    if x' == x && rest' == rest then l else x' :: rest'

and map_rows f rows =
  match rows with
  | [] -> rows
  | row :: rest ->
    let row' = map_exprs_list f row in
    let rest' = map_rows f rest in
    if row' == row && rest' == rest then rows else row' :: rest'

(* ORDER BY items *)
and map_keyed f l =
  match l with
  | [] -> l
  | ((x, d) as item) :: rest ->
    let x' = map_expr f x in
    let rest' = map_keyed f rest in
    if x' == x && rest' == rest then l
    else (if x' == x then item else (x', d)) :: rest'

(* CASE arms: each arm's result before its condition *)
and map_arms f l =
  match l with
  | [] -> l
  | ((c, v) as arm) :: rest ->
    let v' = map_expr f v in
    let c' = map_expr f c in
    let rest' = map_arms f rest in
    if c' == c && v' == v && rest' == rest then l
    else (if c' == c && v' == v then arm else (c', v')) :: rest'

and map_query_exprs f q =
  match q with
  | Q_select s ->
    let s' = map_select_exprs f s in
    if s' == s then q else Q_select s'
  | Q_values rows ->
    let rows' = map_rows f rows in
    if rows' == rows then q else Q_values rows'
  | Q_compound (a, op, b) ->
    let b' = map_query_exprs f b in
    let a' = map_query_exprs f a in
    if a' == a && b' == b then q else Q_compound (a', op, b')

and map_select_exprs f s =
  let order_by = map_keyed f s.order_by in
  let having = map_expr_opt f s.having in
  let group_by = map_exprs_list f s.group_by in
  let where = map_expr_opt f s.where in
  let from =
    match s.from with
    | None -> s.from
    | Some fr ->
      let fr' = map_from_exprs f fr in
      if fr' == fr then s.from else Some fr'
  in
  let projs = map_projs f s.projs in
  if projs == s.projs && from == s.from && where == s.where
     && group_by == s.group_by && having == s.having
     && order_by == s.order_by
  then s
  else { s with projs; from; where; group_by; having; order_by }

and map_projs f l =
  match l with
  | [] -> l
  | p :: rest ->
    let p' =
      match p with
      | Star | Star_of _ -> p
      | Proj (e, a) ->
        let e' = map_expr f e in
        if e' == e then p else Proj (e', a)
    in
    let rest' = map_projs f rest in
    if p' == p && rest' == rest then l else p' :: rest'

and map_from_exprs f fr =
  match fr with
  | From_table _ -> fr
  | From_join { left; kind; right; on } ->
    let on' = map_expr_opt f on in
    let right' = map_from_exprs f right in
    let left' = map_from_exprs f left in
    if left' == left && right' == right && on' == on then fr
    else From_join { left = left'; kind; right = right'; on = on' }
  | From_subquery { q; alias } ->
    let q' = map_query_exprs f q in
    if q' == q then fr else From_subquery { q = q'; alias }

let map_insert_exprs f (i : insert) =
  match i.i_source with
  | Src_values rows ->
    let rows' = map_rows f rows in
    if rows' == rows then i else { i with i_source = Src_values rows' }
  | Src_query q ->
    let q' = map_query_exprs f q in
    if q' == q then i else { i with i_source = Src_query q' }

let map_update_exprs f (u : update) =
  let where = map_expr_opt f u.u_where in
  let sets =
    map_list
      (fun ((c, e) as set) ->
         let e' = map_expr f e in
         if e' == e then set else (c, e'))
      u.u_sets
  in
  if sets == u.u_sets && where == u.u_where then u
  else { u with u_sets = sets; u_where = where }

let map_delete_exprs f (d : delete) =
  let where = map_expr_opt f d.d_where in
  if where == d.d_where then d else { d with d_where = where }

let map_with_body_exprs f b =
  match b with
  | W_query q ->
    let q' = map_query_exprs f q in
    if q' == q then b else W_query q'
  | W_insert i ->
    let i' = map_insert_exprs f i in
    if i' == i then b else W_insert i'
  | W_update u ->
    let u' = map_update_exprs f u in
    if u' == u then b else W_update u'
  | W_delete d ->
    let d' = map_delete_exprs f d in
    if d' == d then b else W_delete d'

(* A WITH statement's body before its CTEs, the CTEs left to right;
   any other statement as it is. *)
let map_with_bodies g s =
  match s with
  | S_with { ctes; body } ->
    let body' = g body in
    let ctes' =
      map_list
        (fun c ->
           let b = g c.cte_body in
           if b == c.cte_body then c else { c with cte_body = b })
        ctes
    in
    if ctes' == ctes && body' == body then s
    else S_with { ctes = ctes'; body = body' }
  | _ -> s

let rec map_exprs f s =
  match s with
  | S_create_view v ->
    let q = map_query_exprs f v.query in
    if q == v.query then s else S_create_view { v with query = q }
  | S_create_trigger t ->
    let body = map_list (map_exprs f) t.body in
    if body == t.body then s else S_create_trigger { t with body }
  | S_create_rule ({ action = Ra_stmt a; _ } as r) ->
    let a' = map_exprs f a in
    if a' == a then s else S_create_rule { r with action = Ra_stmt a' }
  | S_insert i ->
    let i' = map_insert_exprs f i in
    if i' == i then s else S_insert i'
  | S_replace i ->
    let i' = map_insert_exprs f i in
    if i' == i then s else S_replace i'
  | S_update u ->
    let u' = map_update_exprs f u in
    if u' == u then s else S_update u'
  | S_delete d ->
    let d' = map_delete_exprs f d in
    if d' == d then s else S_delete d'
  | S_copy_to { src = Cs_query q; header } ->
    let q' = map_query_exprs f q in
    if q' == q then s else S_copy_to { src = Cs_query q'; header }
  | S_select q ->
    let q' = map_query_exprs f q in
    if q' == q then s else S_select q'
  | S_with _ -> map_with_bodies (map_with_body_exprs f) s
  | S_explain e ->
    let e' = map_exprs f e in
    if e' == e then s else S_explain e'
  | S_prepare { name; stmt } ->
    let stmt' = map_exprs f stmt in
    if stmt' == stmt then s else S_prepare { name; stmt = stmt' }
  | S_do e ->
    let e' = map_expr f e in
    if e' == e then s else S_do e'
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
  | S_refresh_matview _ | S_kill _ | S_cluster _ -> s

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

(* Like the expression maps, the renaming shares what [g] leaves alone.
   Its calls to [g] come in a fixed order, which the RNG draws of
   dependency repair follow (test/golden/repair-outcomes.txt pins
   them): a statement's table positions first, right to left as a
   record's fields are built, then every column qualifier through
   [map_exprs]. A SELECT's FROM and [t.*] names and qualifiers are
   renamed inside [rn_select] as well, so qualifiers there meet [g]
   twice. *)

(* Qualified column references follow the table rename. *)
let qualify g e =
  match e with
  | Col (Some t, c) ->
    let t' = g t in
    if t' == t then e else Col (Some t', c)
  | _ -> e

let rec rn_query g q =
  match q with
  | Q_select s ->
    let s' = rn_select g s in
    if s' == s then q else Q_select s'
  | Q_values _ -> q
  | Q_compound (a, op, b) ->
    let b' = rn_query g b in
    let a' = rn_query g a in
    if a' == a && b' == b then q else Q_compound (a', op, b')

and rn_select g s =
  let from = map_opt (rn_from g) s.from in
  let projs =
    map_list
      (fun p ->
         match p with
         | Star_of t ->
           let t' = g t in
           if t' == t then p else Star_of t'
         | Star | Proj _ -> p)
      s.projs
  in
  let s =
    if from == s.from && projs == s.projs then s else { s with from; projs }
  in
  map_select_exprs (qualify g) s

and rn_from g fr =
  match fr with
  | From_table { name; alias } ->
    let name' = g name in
    if name' == name then fr else From_table { name = name'; alias }
  | From_join { left; kind; right; on } ->
    let right' = rn_from g right in
    let left' = rn_from g left in
    if left' == left && right' == right then fr
    else From_join { left = left'; kind; right = right'; on }
  | From_subquery { q; alias } ->
    let q' = rn_query g q in
    if q' == q then fr else From_subquery { q = q'; alias }

let rn_insert g (i : insert) =
  let source =
    match i.i_source with
    | Src_values _ -> i.i_source
    | Src_query q ->
      let q' = rn_query g q in
      if q' == q then i.i_source else Src_query q'
  in
  let table = g i.i_table in
  if table == i.i_table && source == i.i_source then i
  else { i with i_table = table; i_source = source }

let rn_update g (u : update) =
  let table = g u.u_table in
  if table == u.u_table then u else { u with u_table = table }

let rn_delete g (d : delete) =
  let table = g d.d_table in
  if table == d.d_table then d else { d with d_table = table }

let rn_with_body g b =
  match b with
  | W_query q ->
    let q' = rn_query g q in
    if q' == q then b else W_query q'
  | W_insert i ->
    let i' = rn_insert g i in
    if i' == i then b else W_insert i'
  | W_update u ->
    let u' = rn_update g u in
    if u' == u then b else W_update u'
  | W_delete d ->
    let d' = rn_delete g d in
    if d' == d then b else W_delete d'

(* [k] rebuilds the statement around a renamed name. *)
let rn_name g s name k =
  let name' = g name in
  if name' == name then s else k name'

let rn_name_opt g s name k =
  match name with
  | None -> s
  | Some n -> rn_name g s n (fun n -> k (Some n))

let rec map_table_refs g stmt =
  let stmt =
    match stmt with
    | S_create_table c ->
      rn_name g stmt c.name (fun name -> S_create_table { c with name })
    | S_create_index i ->
      rn_name g stmt i.table (fun table -> S_create_index { i with table })
    | S_create_view v ->
      let query = rn_query g v.query in
      let name = g v.name in
      if name == v.name && query == v.query then stmt
      else S_create_view { v with name; query }
    | S_create_trigger t ->
      let body = map_list (map_table_refs g) t.body in
      let table = g t.table in
      if table == t.table && body == t.body then stmt
      else S_create_trigger { t with table; body }
    | S_create_rule r ->
      let action =
        match r.action with
        | Ra_nothing | Ra_notify _ -> r.action
        | Ra_stmt a ->
          let a' = map_table_refs g a in
          if a' == a then r.action else Ra_stmt a'
      in
      let table = g r.table in
      if table == r.table && action == r.action then stmt
      else S_create_rule { r with table; action }
    | S_drop { target; if_exists } ->
      let drop target = S_drop { target; if_exists } in
      (match target with
       | D_table n -> rn_name g stmt n (fun n -> drop (D_table n))
       | D_view n -> rn_name g stmt n (fun n -> drop (D_view n))
       | D_rule (n, t) -> rn_name g stmt t (fun t -> drop (D_rule (n, t)))
       | D_index _ | D_trigger _ | D_sequence _ | D_schema _ | D_database _
       | D_user _ -> stmt)
    | S_alter_table (t, a) -> rn_name g stmt t (fun t -> S_alter_table (t, a))
    | S_rename_table pairs ->
      let pairs' =
        map_list
          (fun ((a, b) as pair) ->
             let b' = g b in
             let a' = g a in
             if a' == a && b' == b then pair else (a', b'))
          pairs
      in
      if pairs' == pairs then stmt else S_rename_table pairs'
    | S_truncate t -> rn_name g stmt t (fun t -> S_truncate t)
    | S_comment_on c ->
      rn_name g stmt c.table (fun table -> S_comment_on { c with table })
    | S_insert i ->
      let i' = rn_insert g i in
      if i' == i then stmt else S_insert i'
    | S_replace i ->
      let i' = rn_insert g i in
      if i' == i then stmt else S_replace i'
    | S_update u ->
      let u' = rn_update g u in
      if u' == u then stmt else S_update u'
    | S_delete d ->
      let d' = rn_delete g d in
      if d' == d then stmt else S_delete d'
    | S_copy_to { src = Cs_table t; header } ->
      rn_name g stmt t (fun t -> S_copy_to { src = Cs_table t; header })
    | S_copy_to { src = Cs_query q; header } ->
      let q' = rn_query g q in
      if q' == q then stmt else S_copy_to { src = Cs_query q'; header }
    | S_copy_from c ->
      rn_name g stmt c.table (fun table -> S_copy_from { c with table })
    | S_load_data l ->
      rn_name g stmt l.table (fun table -> S_load_data { l with table })
    | S_select q ->
      let q' = rn_query g q in
      if q' == q then stmt else S_select q'
    | S_with _ -> map_with_bodies (rn_with_body g) stmt
    | S_table t -> rn_name g stmt t (fun t -> S_table t)
    | S_explain s ->
      let s' = map_table_refs g s in
      if s' == s then stmt else S_explain s'
    | S_describe t -> rn_name g stmt t (fun t -> S_describe t)
    | S_show (Sh_columns t) -> rn_name g stmt t (fun t -> S_show (Sh_columns t))
    | S_grant gr ->
      rn_name g stmt gr.table (fun table -> S_grant { gr with table })
    | S_revoke r ->
      rn_name g stmt r.table (fun table -> S_revoke { r with table })
    | S_lock_tables locks ->
      let locks' =
        map_list
          (fun ((t, m) as lock) ->
             let t' = g t in
             if t' == t then lock else (t', m))
          locks
      in
      if locks' == locks then stmt else S_lock_tables locks'
    | S_vacuum t -> rn_name_opt g stmt t (fun t -> S_vacuum t)
    | S_analyze t -> rn_name_opt g stmt t (fun t -> S_analyze t)
    | S_reindex t -> rn_name_opt g stmt t (fun t -> S_reindex t)
    | S_optimize t -> rn_name g stmt t (fun t -> S_optimize t)
    | S_check_table t -> rn_name g stmt t (fun t -> S_check_table t)
    | S_repair t -> rn_name g stmt t (fun t -> S_repair t)
    | S_prepare { name; stmt = s } ->
      let s' = map_table_refs g s in
      if s' == s then stmt else S_prepare { name; stmt = s' }
    | S_handler_open t -> rn_name g stmt t (fun t -> S_handler_open t)
    | S_handler_read { table; dir } ->
      rn_name g stmt table (fun table -> S_handler_read { table; dir })
    | S_handler_close t -> rn_name g stmt t (fun t -> S_handler_close t)
    | S_refresh_matview v -> rn_name g stmt v (fun v -> S_refresh_matview v)
    | S_cluster t -> rn_name_opt g stmt t (fun t -> S_cluster t)
    | S_create_sequence _ | S_create_schema _ | S_create_database _
    | S_create_user _ | S_alter_sequence _ | S_alter_user _
    | S_show (Sh_tables | Sh_variables | Sh_status) | S_set_role _ | S_begin
    | S_commit | S_rollback | S_savepoint _ | S_release_savepoint _
    | S_rollback_to _ | S_set_transaction _ | S_unlock_tables | S_set_var _
    | S_reset_var _ | S_set_names _ | S_pragma _ | S_checkpoint | S_flush _
    | S_notify _ | S_listen _ | S_unlisten _ | S_discard _ | S_execute _
    | S_deallocate _ | S_use _ | S_do _ | S_alter_system _ | S_kill _ -> stmt
  in
  map_exprs (qualify g) stmt

(* ------------------------------------------------------------------ *)
(* Read / write table collection.                                      *)
(* ------------------------------------------------------------------ *)

let rec mem_string x = function
  | [] -> false
  | y :: ys -> String.equal x y || mem_string x ys

(* First occurrences in order. The lists are a statement's table names,
   a handful long, so a scan of the kept ones beats a hash table. *)
let dedup xs =
  let rec go kept = function
    | [] -> List.rev kept
    | x :: rest -> go (if mem_string x kept then kept else x :: kept) rest
  in
  go [] xs

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

let tables stmt =
  let acc = { reads = []; writes = []; size = 0 } in
  c_stmt acc stmt;
  (dedup (List.rev acc.reads), dedup (List.rev acc.writes))

let tables_read stmt = fst (tables stmt)

let tables_written stmt = snd (tables stmt)

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
let rec count_distinct = function
  | [] -> 0
  | x :: rest -> (if mem_string x rest then 0 else 1) + count_distinct rest

let stmt_size stmt =
  let acc = { reads = []; writes = []; size = 1 } in
  c_stmt acc stmt;
  acc.size + count_distinct acc.reads + count_distinct acc.writes
