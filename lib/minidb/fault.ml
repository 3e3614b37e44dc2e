type kind = Uaf | Bof | Sbof | Hbof | Af | Segv | Uap | Npd | Ub

let kind_name = function
  | Uaf -> "UAF"
  | Bof -> "BOF"
  | Sbof -> "SBOF"
  | Hbof -> "HBOF"
  | Af -> "AF"
  | Segv -> "SEGV"
  | Uap -> "UAP"
  | Npd -> "NPD"
  | Ub -> "UB"

let kind_of_name = function
  | "UAF" -> Some Uaf
  | "BOF" -> Some Bof
  | "SBOF" -> Some Sbof
  | "HBOF" -> Some Hbof
  | "AF" -> Some Af
  | "SEGV" -> Some Segv
  | "UAP" -> Some Uap
  | "NPD" -> Some Npd
  | "UB" -> Some Ub
  | _ -> None

type stmt_feature =
  | F_window
  | F_subquery
  | F_aggregate
  | F_group_by
  | F_order_by
  | F_join
  | F_distinct
  | F_having
  | F_ignore
  | F_compound
  | F_where
  | F_offset
  | F_limit

type cond =
  | Subseq of Sqlcore.Stmt_type.t list
  | Ends_with of Sqlcore.Stmt_type.t list
  | State of string
  | Stmt_has of stmt_feature
  | All of cond list
  | Any of cond list
  | Not of cond

type bug = {
  bug_id : string;
  identifier : string;
  component : string;
  kind : kind;
  cond : cond;
}

type crash = { c_bug : bug; c_stack : string list }

exception Crashed of crash

(* Slot [p] (0 = oldest) holds a type index in bits [7p, 7p + 7); the
   length sits above the eight slots. *)
type window = int

let window_cap = 8
let slot_bits = 7
let slots_mask = (1 lsl (slot_bits * window_cap)) - 1
let () = assert (Sqlcore.Stmt_type.count < 1 lsl slot_bits)

let empty_window = 0
let window_length w = w lsr (slot_bits * window_cap)
let slot w p = (w lsr (slot_bits * p)) land ((1 lsl slot_bits) - 1)

let push_window w ty =
  let n = window_length w and i = Sqlcore.Stmt_type.to_index ty in
  if n < window_cap then
    ((n + 1) lsl (slot_bits * window_cap))
    lor (w land slots_mask)
    lor (i lsl (slot_bits * n))
  else
    (window_cap lsl (slot_bits * window_cap))
    lor ((w land slots_mask) lsr slot_bits)
    lor (i lsl (slot_bits * (window_cap - 1)))

let last_index w =
  match window_length w with 0 -> -1 | n -> slot w (n - 1)

let window_of_list types = List.fold_left push_window empty_window types

let window_to_list w =
  List.init (window_length w) (fun p -> Sqlcore.Stmt_type.of_index (slot w p))

type ctx = {
  window : window;
  stmt : Sqlcore.Ast.stmt;
  state : string -> bool;
}

let all_features =
  [ F_window; F_subquery; F_aggregate; F_group_by; F_order_by; F_join;
    F_distinct; F_having; F_ignore; F_compound; F_where; F_offset; F_limit ]

let feature_bit = function
  | F_window -> 0x1
  | F_subquery -> 0x2
  | F_aggregate -> 0x4
  | F_group_by -> 0x8
  | F_order_by -> 0x10
  | F_join -> 0x20
  | F_distinct -> 0x40
  | F_having -> 0x80
  | F_ignore -> 0x100
  | F_compound -> 0x200
  | F_where -> 0x400
  | F_offset -> 0x800
  | F_limit -> 0x1000

let add_if c f m = if c then m lor feature_bit f else m

(* Expression-level features: anywhere in the statement, nested
   subqueries and trigger/rule bodies included. *)
let expr_features m (e : Sqlcore.Ast.expr) =
  match e with
  | Win _ -> m lor feature_bit F_window
  | Subquery _ | Exists _ -> m lor feature_bit F_subquery
  | Agg _ -> m lor feature_bit F_aggregate
  | _ -> m

(* Clause-level features: the statement's own select bodies, through
   FROM subqueries and compound arms, but not expression subqueries. *)
let rec query_features m (q : Sqlcore.Ast.query) =
  match q with
  | Q_select s ->
    let m =
      m
      |> add_if (s.group_by <> []) F_group_by
      |> add_if (s.order_by <> []) F_order_by
      |> add_if (s.having <> None) F_having
      |> add_if s.distinct F_distinct
      |> add_if (s.where <> None) F_where
      |> add_if (s.offset <> None) F_offset
      |> add_if (s.limit <> None) F_limit
    in
    (match s.from with
     | Some (From_join _) -> m lor feature_bit F_join
     | Some (From_subquery { q; _ }) -> query_features m q
     | Some (From_table _) | None -> m)
  | Q_values _ -> m
  | Q_compound (a, _, b) ->
    query_features (query_features (m lor feature_bit F_compound) a) b

let with_body_features m (b : Sqlcore.Ast.with_body) =
  match b with
  | W_query q | W_insert { i_source = Src_query q; _ } -> query_features m q
  | W_update { u_where = Some _; _ } | W_delete { d_where = Some _; _ } ->
    m lor feature_bit F_where
  | W_insert _ | W_update _ | W_delete _ -> m

(* Every feature of [stmt] as a bit set: one expression fold plus a walk
   of the statement's own select clauses. *)
let feature_mask (stmt : Sqlcore.Ast.stmt) =
  let m = Sqlcore.Ast_util.fold_exprs expr_features 0 stmt in
  match stmt with
  | S_select q | S_create_view { query = q; _ }
  | S_copy_to { src = Cs_query q; _ } -> query_features m q
  | S_insert { i_ignore; i_source; _ } | S_replace { i_ignore; i_source; _ }
    ->
    let m = add_if i_ignore F_ignore m in
    (match i_source with Src_query q -> query_features m q | Src_values _ -> m)
  | S_update { u_where = Some _; _ } | S_delete { d_where = Some _; _ } ->
    m lor feature_bit F_where
  | S_with { ctes; body } ->
    List.fold_left
      (fun m (c : Sqlcore.Ast.cte) -> with_body_features m c.cte_body)
      (with_body_features m body) ctes
  | _ -> m

let features_of_stmt stmt =
  let m = feature_mask stmt in
  List.filter (fun f -> m land feature_bit f <> 0) all_features

(* ------------------------------------------------------------------ *)
(* Compiled conditions                                                 *)
(* ------------------------------------------------------------------ *)

(* A condition with its statement types as dense indices. [C_subseq]
   also carries the presence mask of its types: a window whose mask
   lacks one of them cannot contain the sequence, and that test is one
   [land]. The mask folds type indices onto the bits of an [int], so it
   only ever rules windows out; the sequence scan decides. *)
type compiled =
  | C_false
  | C_subseq of int * int array
  | C_ends of int array
  | C_state of string
  | C_has of int
  | C_all of compiled list
  | C_any of compiled list
  | C_not of compiled

(* A type index's bit in a presence mask. *)
let type_bit i = 1 lsl (i mod Sys.int_size)

(* Evaluation order within [All]/[Any]: window tests, then engine state,
   then statement features (a walk of the statement, the first time one
   is asked for). Every condition is pure, so the order cannot change
   the outcome. *)
let rec rank = function
  | C_false | C_subseq _ | C_ends _ -> 0
  | C_state _ -> 1
  | C_has _ -> 2
  | C_all cs | C_any cs -> List.fold_left (fun r c -> max r (rank c)) 0 cs
  | C_not c -> rank c

let by_rank cs = List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) cs

let indices types = Array.of_list (List.map Sqlcore.Stmt_type.to_index types)

let rec compile_cond = function
  | Subseq [] | Ends_with [] -> C_false
  | Subseq types ->
    let seq = indices types in
    C_subseq (Array.fold_left (fun m i -> m lor type_bit i) 0 seq, seq)
  | Ends_with types -> C_ends (indices types)
  | State name -> C_state name
  | Stmt_has f -> C_has (feature_bit f)
  | All cs -> C_all (by_rank (List.map compile_cond cs))
  | Any cs -> C_any (by_rank (List.map compile_cond cs))
  | Not c -> C_not (compile_cond c)

(* What one check knows about its context: the window's presence mask
   and length, and the statement's feature set, computed on first use
   ([-1] until then). *)
type env = {
  e_ctx : ctx;
  e_wmask : int;
  e_wlen : int;
  mutable e_feats : int;
}

(* [seq.(k..)] matches the window from slot [p] on. *)
let rec seq_at seq k env p =
  k = Array.length seq
  || p < env.e_wlen
     && slot env.e_ctx.window p = Array.unsafe_get seq k
     && seq_at seq (k + 1) env (p + 1)

let rec occurs seq env p =
  p < env.e_wlen && (seq_at seq 0 env p || occurs seq env (p + 1))

let rec eval env = function
  | C_false -> false
  | C_subseq (mask, seq) -> env.e_wmask land mask = mask && occurs seq env 0
  | C_ends seq ->
    let n = Array.length seq in
    n <= env.e_wlen && seq_at seq 0 env (env.e_wlen - n)
  | C_state name -> env.e_ctx.state name
  | C_has bit ->
    if env.e_feats < 0 then env.e_feats <- feature_mask env.e_ctx.stmt;
    env.e_feats land bit <> 0
  | C_all cs -> eval_all env cs
  | C_any cs -> eval_any env cs
  | C_not c -> not (eval env c)

and eval_all env = function
  | [] -> true
  | c :: cs -> eval env c && eval_all env cs

and eval_any env = function
  | [] -> false
  | c :: cs -> eval env c || eval_any env cs

let window_mask w =
  let m = ref 0 in
  for p = 0 to window_length w - 1 do
    m := !m lor type_bit (slot w p)
  done;
  !m

let frame_pool =
  [| "plan_query"; "rewrite_target_list"; "eval_expr"; "exec_scan";
     "build_join_rel"; "check_stack_depth"; "heap_insert"; "btree_search";
     "fill_record"; "optimize_group_by"; "make_sort_plan"; "open_table";
     "lock_rows"; "free_item_tree"; "parse_and_resolve"; "fix_fields";
     "copy_row_buffer"; "store_field"; "mem_alloc"; "page_split" |]

let stack_of_bug bug =
  (* Deterministic pseudo-stack: distinct bugs get distinct stacks so that
     stack-hash deduplication separates them, like distinct ASan reports. *)
  let h = ref (Hashtbl.hash (bug.bug_id, bug.identifier)) in
  let frames = ref [] in
  for i = 0 to 3 do
    h := (!h * 0x9E3779B1) + i;
    let idx = abs !h mod Array.length frame_pool in
    frames :=
      Printf.sprintf "%s+0x%x" frame_pool.(idx) (abs !h land 0xfff)
      :: !frames
  done;
  Printf.sprintf "%s_%s" (String.lowercase_ascii bug.component)
    (String.lowercase_ascii (kind_name bug.kind))
  :: !frames

type checker = { k_bugs : bug array; k_conds : compiled array }

let compile bugs =
  let k_bugs = Array.of_list bugs in
  { k_bugs; k_conds = Array.map (fun b -> compile_cond b.cond) k_bugs }

let rec find_from env conds i =
  if i = Array.length conds then -1
  else if eval env (Array.unsafe_get conds i) then i
  else find_from env conds (i + 1)

let check k ctx =
  if Array.length k.k_conds > 0 then
    match
      find_from
        { e_ctx = ctx; e_wmask = window_mask ctx.window;
          e_wlen = window_length ctx.window; e_feats = -1 }
        k.k_conds 0
    with
    | -1 -> ()
    | i ->
      let bug = k.k_bugs.(i) in
      raise (Crashed { c_bug = bug; c_stack = stack_of_bug bug })

let pp_crash fmt { c_bug; c_stack } =
  Format.fprintf fmt "%s (%s) in %s [%s]@\n  %a" c_bug.bug_id
    (kind_name c_bug.kind) c_bug.component c_bug.identifier
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "@\n  ")
       Format.pp_print_string)
    c_stack
