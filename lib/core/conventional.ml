open Sqlcore
open Sqlcore.Ast
module Rng = Reprutil.Rng

(* Replace the [target]-th literal (in traversal order) with a new one. *)
let mutate_data rng stmt =
  let count =
    Ast_util.fold_exprs
      (fun acc e -> match e with Lit _ -> acc + 1 | _ -> acc)
      0 stmt
  in
  if count = 0 then stmt
  else begin
    let target = Rng.int rng count in
    let seen = ref (-1) in
    Ast_util.map_exprs
      (function
        | Lit _ as e ->
          incr seen;
          if !seen = target then Lit (Generator.literal rng
            (Rng.choose rng [ T_int; T_float; T_text; T_bool ]))
          else e
        | e -> e)
      stmt
  end

(* Replace a random sub-expression with a freshly generated one. *)
let mutate_expr rng schema stmt =
  let cols =
    match Sym_schema.pick_table schema rng with
    | Some (_, cols) -> cols
    | None -> []
  in
  let count = Ast_util.fold_exprs (fun acc _ -> acc + 1) 0 stmt in
  if count = 0 then stmt
  else begin
    let target = Rng.int rng count in
    let seen = ref (-1) in
    Ast_util.map_exprs
      (fun e ->
         incr seen;
         if !seen = target then Generator.expr rng ~cols ~depth:2 else e)
      stmt
  end

let cols_for rng schema stmt =
  let tables = Ast_util.tables_read stmt @ Ast_util.tables_written stmt in
  match
    List.find_map (fun t -> Sym_schema.table_cols schema t) tables
  with
  | Some cols when cols <> [] -> cols
  | _ -> (
      match Sym_schema.pick_table schema rng with
      | Some (_, cols) -> cols
      | None -> [])

(* Structural tweaks on SELECT bodies, like SQUIRREL's mutation areas. *)
let mutate_select rng schema stmt =
  let cols = cols_for rng schema stmt in
  let tweak (s : select) =
    match Rng.int rng 9 with
    | 0 -> { s with distinct = not s.distinct }
    | 1 ->
      { s with
        order_by =
          (if s.order_by = [] && cols <> [] then
             [ (Col (None, (Rng.choose rng cols).Sym_schema.sc_name),
                if Rng.bool rng then Asc else Desc) ]
           else []) }
    | 2 ->
      { s with
        where =
          (match s.where with
           | Some _ when Rng.bool rng -> None
           | _ when cols <> [] -> Some (Generator.predicate rng ~cols)
           | w -> w) }
    | 3 ->
      { s with
        limit =
          (match s.limit with None -> Some (Rng.int rng 16) | Some _ -> None) }
    | 4 when cols <> [] ->
      let gcol = Col (None, (Rng.choose rng cols).Sym_schema.sc_name) in
      if s.group_by = [] then
        { s with
          group_by = [ gcol ];
          projs = [ Proj (gcol, None); Proj (Agg (Count, false, None), None) ];
          having =
            (if Rng.bool rng then
               Some (Binop (Gt, Agg (Count, false, None), Lit (L_int 0)))
             else None) }
      else { s with group_by = []; having = None }
    | 5 when cols <> [] && s.group_by = [] ->
      (* add a window-function projection *)
      { s with
        projs =
          s.projs
          @ [ Proj
                ( Win
                    { fn = Rng.choose rng [ Row_number; Rank; Lead; Lag ];
                      args = [];
                      over =
                        { partition_by = [];
                          w_order_by =
                            [ (Col (None,
                                    (Rng.choose rng cols).Sym_schema.sc_name),
                               Asc) ];
                          frame = None } },
                  Some "w" ) ] }
    | 6 ->
      { s with offset = (match s.offset with None -> Some (Rng.int rng 4) | Some _ -> None) }
    | 7 -> (
        (* bolt a join onto a plain single-table FROM *)
        match (s.from, Sym_schema.pick_table schema rng) with
        | Some (From_table _ as left), Some (t2, cols2) when cols2 <> [] ->
          { s with
            from =
              Some
                (From_join
                   { left;
                     kind = Rng.choose rng [ Inner; Left; Cross ];
                     right = From_table { name = t2; alias = None };
                     on =
                       (if Rng.bool rng then None
                        else
                          Some
                            (Binop
                               ( Eq,
                                 Col (None, (List.hd cols2).Sym_schema.sc_name),
                                 Lit (L_int (Rng.int rng 8)) ))) }) }
        | _ -> s)
    | _ -> s
  in
  let fixed_win (s : select) =
    (* LEAD/LAG need an argument; normalise the empty-args case. *)
    { s with
      projs =
        List.map
          (function
            | Proj (Win ({ fn = (Lead | Lag); args = []; _ } as w), a)
              when cols <> [] ->
              Proj
                ( Win
                    { w with
                      args =
                        [ Col (None, (Rng.choose rng cols).Sym_schema.sc_name) ] },
                  a )
            | p -> p)
          s.projs }
  in
  let rec in_query = function
    | Q_select s -> Q_select (fixed_win (tweak s))
    | Q_values rows -> Q_values rows
    | Q_compound (a, op, b) ->
      if Rng.bool rng then Q_compound (in_query a, op, b)
      else Q_compound (a, op, in_query b)
  in
  match stmt with
  | S_select q -> S_select (in_query q)
  | S_create_view v -> S_create_view { v with query = in_query v.query }
  | S_copy_to { src = Cs_query q; header } ->
    S_copy_to { src = Cs_query (in_query q); header }
  | S_insert ({ i_source = Src_query q; _ } as i) ->
    S_insert { i with i_source = Src_query (in_query q) }
  | s -> s

(* INSERT-specific tweaks: grow the data set, toggle IGNORE. *)
let mutate_insert rng schema stmt =
  let grow (i : insert) =
    match i.i_source with
    | Src_values (first :: _ as rows) when Rng.bool rng ->
      let row' = List.map (fun _ -> Lit (Generator.literal rng T_int)) first in
      { i with i_source = Src_values (rows @ [ row' ]) }
    | _ -> { i with i_ignore = not i.i_ignore }
  in
  ignore schema;
  match stmt with
  | S_insert i -> S_insert (grow i)
  | S_replace i -> S_replace (grow i)
  | s -> s

let mutate_stmt rng schema stmt =
  match Rng.int rng 6 with
  | 0 -> mutate_data rng stmt
  | 1 -> mutate_expr rng schema stmt
  | 2 -> (
      match mutate_insert rng schema stmt with
      | s when s = stmt -> mutate_data rng stmt
      | s -> s)
  | _ -> (
      match mutate_select rng schema stmt with
      | s when s = stmt -> mutate_data rng stmt
      | s -> s)

let mutate_testcase_at rng tc =
  match tc with
  | [] -> ([], 0)
  | _ ->
    let target = Rng.int rng (List.length tc) in
    let schema = Sym_schema.empty () in
    let mutated =
      List.mapi
        (fun i stmt ->
           let stmt' =
             if i = target then mutate_stmt rng schema stmt else stmt
           in
           Sym_schema.apply schema stmt';
           stmt')
        tc
    in
    (Instantiate.repair rng mutated, target)

let mutate_testcase_at_biased rng ~novelty tc =
  let ((m1, _) as r1) = mutate_testcase_at rng tc in
  let ((m2, _) as r2) = mutate_testcase_at rng tc in
  if novelty m2 > novelty m1 then r2 else r1
