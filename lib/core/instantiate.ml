open Sqlcore
open Sqlcore.Ast
module Rng = Reprutil.Rng

(* Every repair below returns what it leaves alone physically: a
   statement repair does not change comes back [==] to its input, which
   keeps the harness's physical-identity statement memo hitting on the
   statements mutants share with their parent. *)

(* --- table-reference repair ---------------------------------------- *)

let fix_tables rng schema stmt =
  let created = List.map snd (Ast_util.objects_created stmt) in
  let known = Sym_schema.relations schema in
  (* names remapped so far in this statement; rarely more than one *)
  let mapping = ref [] in
  let remember name n =
    mapping := (name, n) :: !mapping;
    n
  in
  let remap name =
    if List.mem name created then begin
      (* freshen clashing CREATE targets *)
      if List.mem name known then begin
        match List.assoc_opt name !mapping with
        | Some n -> n
        | None -> remember name (Sym_schema.fresh schema ~prefix:"v")
      end
      else name
    end
    else if List.mem name known then name
    else
      match List.assoc_opt name !mapping with
      | Some n -> n
      | None -> (
          match Sym_schema.pick_table schema rng with
          | Some (existing, _) -> remember name existing
          | None -> name)
  in
  Ast_util.map_table_refs remap stmt

(* --- column-reference repair ---------------------------------------- *)

let referenced_cols schema stmt =
  let reads, writes = Ast_util.tables stmt in
  List.concat_map
    (fun t ->
       match Sym_schema.table_cols schema t with
       | Some cols -> cols
       | None -> [])
    (reads @ writes)

(* The index columns of CREATE INDEX are left as written: [Ast_util.tables]
   reports no table for it, so there are no columns to remap them to. *)
let fix_columns rng schema stmt =
  match referenced_cols schema stmt with
  | [] -> stmt
  | cols ->
    let names = List.map (fun c -> c.Sym_schema.sc_name) cols in
    let pick () = Rng.choose rng names in
    let fix_name n = if List.mem n names then n else pick () in
    let stmt =
      Ast_util.map_exprs
        (function
          | Col (q, n) when not (List.mem n names) -> Col (q, pick ())
          | e -> e)
        stmt
    in
    let fix_cols i =
      let cols = Ast_util.map_list fix_name i.i_cols in
      if cols == i.i_cols then i else { i with i_cols = cols }
    in
    (match stmt with
     | S_update u ->
       let sets =
         Ast_util.map_list
           (fun ((c, e) as set) ->
              let c' = fix_name c in
              if c' == c then set else (c', e))
           u.u_sets
       in
       if sets == u.u_sets then stmt else S_update { u with u_sets = sets }
     | S_insert i when i.i_cols <> [] ->
       let i' = fix_cols i in
       if i' == i then stmt else S_insert i'
     | S_replace i when i.i_cols <> [] ->
       let i' = fix_cols i in
       if i' == i then stmt else S_replace i'
     | s -> s)

(* --- INSERT arity repair -------------------------------------------- *)

(* Cut [row] to the table's arity, or pad it with literals of the
   missing columns' types ([lit] wraps them). Padding draws a literal
   for every column and keeps the missing ones. *)
let resize_row rng (cols : Sym_schema.col list) lit row =
  let arity = List.length cols in
  let n = List.length row in
  if n = arity then row
  else if n > arity then List.filteri (fun i _ -> i < arity) row
  else
    row
    @ List.filteri
        (fun i _ -> i >= n)
        (List.map (fun c -> lit (Generator.literal rng c.Sym_schema.sc_type))
           cols)

let lit_expr l = Lit l

let fix_arity rng schema stmt =
  let fix_insert (i : insert) =
    match (i.i_cols, i.i_source, Sym_schema.table_cols schema i.i_table) with
    | [], Src_values rows, Some cols when cols <> [] ->
      let rows' = Ast_util.map_list (resize_row rng cols lit_expr) rows in
      if rows' == rows then i else { i with i_source = Src_values rows' }
    | _ -> i
  in
  let fix_lit_rows table rows k =
    match Sym_schema.table_cols schema table with
    | Some cols when cols <> [] ->
      let rows' = Ast_util.map_list (resize_row rng cols Fun.id) rows in
      if rows' == rows then stmt else k rows'
    | _ -> stmt
  in
  let fix_body b =
    match b with
    | W_insert i ->
      let i' = fix_insert i in
      if i' == i then b else W_insert i'
    | W_query _ | W_update _ | W_delete _ -> b
  in
  match stmt with
  | S_insert i ->
    let i' = fix_insert i in
    if i' == i then stmt else S_insert i'
  | S_replace i ->
    let i' = fix_insert i in
    if i' == i then stmt else S_replace i'
  | S_copy_from { table; rows } ->
    fix_lit_rows table rows (fun rows -> S_copy_from { table; rows })
  | S_load_data { table; rows } ->
    fix_lit_rows table rows (fun rows -> S_load_data { table; rows })
  | S_with _ -> Ast_util.map_with_bodies fix_body stmt
  | s -> s

(* Unbounded mutation chains would otherwise grow expressions without
   limit (the paper's C3: seeds that stall the fuzzer). Clamp bottom-up:
   any node whose subtree exceeds the depth budget collapses to a
   literal. *)
let max_expr_depth = 12

let clamp_exprs stmt =
  Ast_util.map_exprs
    (fun e ->
       if Ast_util.expr_depth e > max_expr_depth then Ast.Lit (Ast.L_int 1)
       else e)
    stmt

let repair rng tc =
  let schema = Sym_schema.empty () in
  Ast_util.map_list
    (fun stmt ->
       let stmt = fix_tables rng schema stmt in
       let stmt = fix_columns rng schema stmt in
       let stmt = fix_arity rng schema stmt in
       let stmt = clamp_exprs stmt in
       Sym_schema.apply schema stmt;
       stmt)
    tc

let statement rng ~skeletons ~schema ty =
  let from_library =
    if Rng.ratio rng 7 10 then Skeleton_library.pick skeletons rng ty
    else None
  in
  match from_library with
  | Some s -> s
  | None -> Generator.stmt rng schema ty

let sequence rng ~skeletons types =
  let schema = Sym_schema.empty () in
  let raw =
    List.map
      (fun ty ->
         let s = statement rng ~skeletons ~schema ty in
         Sym_schema.apply schema s;
         s)
      types
  in
  repair rng raw
