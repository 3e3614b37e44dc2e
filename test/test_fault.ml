(* Tests for the fault-injection trigger DSL and crash machinery. *)

open Sqlcore
module F = Minidb.Fault

let sel_stmt = Sqlparser.Parser.parse_stmt_exn "SELECT 1"

let ctx ?(window = []) ?(stmt = sel_stmt) ?(state = fun _ -> false) () =
  { F.window = F.window_of_list window; stmt; state }

(* The bug the compiled checker reports, if any. *)
let first_match checker ctx =
  match F.check checker ctx with
  | () -> None
  | exception F.Crashed c -> Some c.F.c_bug

(* Does [cond] hold in [ctx]? Asked of the compiled checker, through a
   one-bug registry. *)
let matches cond ctx =
  let bug =
    { F.bug_id = "T"; identifier = "T"; component = "DML"; kind = F.Af;
      cond }
  in
  first_match (F.compile [ bug ]) ctx <> None

let test_subseq_matching () =
  let w = [ Stmt_type.Create_table; Stmt_type.Insert; Stmt_type.Select ] in
  let m cond = matches cond (ctx ~window:w ()) in
  Alcotest.(check bool) "whole window" true
    (m (F.Subseq [ Stmt_type.Create_table; Stmt_type.Insert; Stmt_type.Select ]));
  Alcotest.(check bool) "middle pair" true
    (m (F.Subseq [ Stmt_type.Insert; Stmt_type.Select ]));
  Alcotest.(check bool) "non-contiguous rejected" false
    (m (F.Subseq [ Stmt_type.Create_table; Stmt_type.Select ]));
  Alcotest.(check bool) "wrong order rejected" false
    (m (F.Subseq [ Stmt_type.Select; Stmt_type.Insert ]));
  Alcotest.(check bool) "empty subseq never fires" false (m (F.Subseq []))

let test_ends_with () =
  let w = [ Stmt_type.Insert; Stmt_type.Select ] in
  let m cond = matches cond (ctx ~window:w ()) in
  Alcotest.(check bool) "suffix" true (m (F.Ends_with [ Stmt_type.Select ]));
  Alcotest.(check bool) "full" true
    (m (F.Ends_with [ Stmt_type.Insert; Stmt_type.Select ]));
  Alcotest.(check bool) "not a suffix" false
    (m (F.Ends_with [ Stmt_type.Insert ]))

let test_combinators () =
  let w = [ Stmt_type.Insert ] in
  let state name = name = "flag" in
  let m cond = matches cond (ctx ~window:w ~state ()) in
  Alcotest.(check bool) "all true" true
    (m (F.All [ F.Subseq [ Stmt_type.Insert ]; F.State "flag" ]));
  Alcotest.(check bool) "all short-circuits" false
    (m (F.All [ F.Subseq [ Stmt_type.Insert ]; F.State "other" ]));
  Alcotest.(check bool) "any" true
    (m (F.Any [ F.State "other"; F.State "flag" ]));
  Alcotest.(check bool) "not" true (m (F.Not (F.State "other")))

let test_stmt_features () =
  let s =
    Sqlparser.Parser.parse_stmt_exn
      "SELECT DISTINCT a, COUNT(*) FROM t JOIN u ON TRUE WHERE a > 0 GROUP \
       BY a HAVING (COUNT(*) > 1) ORDER BY a ASC LIMIT 3 OFFSET 1"
  in
  let feats = F.features_of_stmt s in
  List.iter
    (fun f ->
       Alcotest.(check bool) "feature present" true (List.mem f feats))
    [ F.F_group_by; F.F_order_by; F.F_join; F.F_distinct; F.F_having;
      F.F_where; F.F_aggregate; F.F_offset; F.F_limit ];
  Alcotest.(check bool) "no window fn" false (List.mem F.F_window feats);
  let w =
    Sqlparser.Parser.parse_stmt_exn
      "SELECT RANK() OVER (ORDER BY a ASC) FROM t"
  in
  Alcotest.(check bool) "window detected" true
    (List.mem F.F_window (F.features_of_stmt w))

let test_check_raises_first_match () =
  let bug1 =
    { F.bug_id = "B1"; identifier = "CVE-TEST-1"; component = "Optimizer";
      kind = F.Segv; cond = F.Subseq [ Stmt_type.Insert ] }
  in
  let bug2 =
    { bug1 with F.bug_id = "B2"; cond = F.Subseq [ Stmt_type.Insert ] }
  in
  (try
     F.check (F.compile [ bug1; bug2 ]) (ctx ~window:[ Stmt_type.Insert ] ());
     Alcotest.fail "expected crash"
   with F.Crashed c ->
     Alcotest.(check string) "first bug wins" "B1" c.F.c_bug.F.bug_id);
  (* no match: no crash *)
  F.check (F.compile [ bug1 ]) (ctx ~window:[ Stmt_type.Select ] ())

let test_stacks_distinct_and_stable () =
  let mk id =
    { F.bug_id = id; identifier = id; component = "DML"; kind = F.Uaf;
      cond = F.Subseq [ Stmt_type.Insert ] }
  in
  let s1 = F.stack_of_bug (mk "X1") in
  let s1' = F.stack_of_bug (mk "X1") in
  let s2 = F.stack_of_bug (mk "X2") in
  Alcotest.(check bool) "stable" true (s1 = s1');
  Alcotest.(check bool) "distinct bugs distinct stacks" true (s1 <> s2);
  Alcotest.(check bool) "stack has frames" true (List.length s1 >= 4)

let test_kind_names () =
  List.iter
    (fun k ->
       match F.kind_of_name (F.kind_name k) with
       | Some k' -> Alcotest.(check bool) "roundtrip" true (k = k')
       | None -> Alcotest.fail "kind name roundtrip")
    [ F.Uaf; F.Bof; F.Sbof; F.Hbof; F.Af; F.Segv; F.Uap; F.Npd; F.Ub ]

(* ------------------------------------------------------------------ *)
(* The compiled checker against the interpreter it replaced            *)
(* ------------------------------------------------------------------ *)

(* The condition interpreter as first written: every [Stmt_has] walks
   the statement again and every [Subseq] scans the window at every
   offset. The reference for the compiled checker. *)
module Reference = struct
  let has p stmt =
    let found = ref false in
    ignore
      (Ast_util.map_exprs
         (fun e ->
            if p e then found := true;
            e)
         stmt);
    !found

  let features (stmt : Ast.stmt) =
    let feats = ref [] in
    let add f = if not (List.mem f !feats) then feats := f :: !feats in
    if has (function Ast.Win _ -> true | _ -> false) stmt then add F.F_window;
    if has (function Ast.Subquery _ | Ast.Exists _ -> true | _ -> false) stmt
    then add F.F_subquery;
    if has (function Ast.Agg _ -> true | _ -> false) stmt then
      add F.F_aggregate;
    let rec query (q : Ast.query) =
      match q with
      | Q_select s ->
        if s.group_by <> [] then add F.F_group_by;
        if s.order_by <> [] then add F.F_order_by;
        if s.having <> None then add F.F_having;
        if s.distinct then add F.F_distinct;
        if s.where <> None then add F.F_where;
        if s.offset <> None then add F.F_offset;
        if s.limit <> None then add F.F_limit;
        (match s.from with
         | Some (From_join _) -> add F.F_join
         | Some (From_subquery { q; _ }) -> query q
         | Some (From_table _) | None -> ())
      | Q_values _ -> ()
      | Q_compound (a, _, b) ->
        add F.F_compound;
        query a;
        query b
    in
    let with_body (b : Ast.with_body) =
      match b with
      | W_query q | W_insert { i_source = Src_query q; _ } -> query q
      | W_update { u_where = Some _; _ } | W_delete { d_where = Some _; _ } ->
        add F.F_where
      | W_insert _ | W_update _ | W_delete _ -> ()
    in
    (match stmt with
     | S_select q | S_create_view { query = q; _ }
     | S_copy_to { src = Cs_query q; _ } -> query q
     | S_insert { i_ignore; i_source; _ } | S_replace { i_ignore; i_source; _ }
       ->
       if i_ignore then add F.F_ignore;
       (match i_source with Src_query q -> query q | Src_values _ -> ())
     | S_update { u_where = Some _; _ } | S_delete { d_where = Some _; _ } ->
       add F.F_where
     | S_with { ctes; body } ->
       List.iter (fun (c : Ast.cte) -> with_body c.cte_body) ctes;
       with_body body
     | _ -> ());
    !feats

  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> Stmt_type.equal x y && is_prefix xs ys

  let rec contains xs ys =
    match ys with [] -> xs = [] | _ :: rest -> is_prefix xs ys || contains xs rest

  let ends_with xs ys =
    let lx = List.length xs and ly = List.length ys in
    lx <= ly
    && List.for_all2 Stmt_type.equal xs (List.filteri (fun i _ -> i >= ly - lx) ys)

  let rec matches cond (ctx : F.ctx) =
    match cond with
    | F.Subseq types ->
      types <> [] && contains types (F.window_to_list ctx.window)
    | F.Ends_with types ->
      types <> [] && ends_with types (F.window_to_list ctx.window)
    | F.State name -> ctx.state name
    | F.Stmt_has f -> List.mem f (features ctx.stmt)
    | F.All cs -> List.for_all (fun c -> matches c ctx) cs
    | F.Any cs -> List.exists (fun c -> matches c ctx) cs
    | F.Not c -> not (matches c ctx)

  let first_match bugs ctx =
    List.find_opt (fun (b : F.bug) -> matches b.F.cond ctx) bugs
end

let rec cond_types = function
  | F.Subseq ts | F.Ends_with ts -> [ ts ]
  | F.State _ | F.Stmt_has _ -> []
  | F.All cs | F.Any cs -> List.concat_map cond_types cs
  | F.Not c -> cond_types c

let rec cond_states = function
  | F.State n -> [ n ]
  | F.Subseq _ | F.Ends_with _ | F.Stmt_has _ -> []
  | F.All cs | F.Any cs -> List.concat_map cond_states cs
  | F.Not c -> cond_states c

(* One case: a window of up to [Engine]'s 8 types that often splices in a
   bug's own sequence, a pool statement, and a random assignment of every
   state name the profile's bugs ask about (the concurrency bugs' [other_*]
   names, which only the server's fault hook answers, included). *)
let draw_case profile seed =
  let module Rng = Reprutil.Rng in
  let rng = Rng.create seed in
  let bugs = Array.of_list (Minidb.Profile.bugs profile) in
  let types = Array.of_list (Minidb.Profile.types profile) in
  let noise n = List.init n (fun _ -> Rng.choose_arr rng types) in
  let spliced =
    match cond_types bugs.(Rng.int rng (Array.length bugs)).F.cond with
    | ts :: _ when Rng.int rng 4 > 0 -> noise (Rng.int rng 4) @ ts
    | _ -> []
  in
  let w = noise (Rng.int rng 9) @ spliced @ noise (Rng.int rng 3) in
  let window = List.filteri (fun i _ -> i >= List.length w - 8) w in
  let names =
    List.sort_uniq compare
      (List.concat_map (fun (b : F.bug) -> cond_states b.F.cond)
         (Array.to_list bugs))
  in
  let truths = List.filter (fun _ -> Rng.bool rng) names in
  (window, Stmt_pool.draw (Rng.int rng 1_000_000), truths)

let print_case (window, stmt, truths) =
  Printf.sprintf "window [%s]; stmt %s; true states [%s]"
    (String.concat " > " (List.map Stmt_type.name window))
    (Sql_printer.stmt stmt) (String.concat ", " truths)

let test_prop_features () =
  Reprutil.Prop.check ~count:1000 ~name:"one-pass features = reference"
    Stmt_pool.arb (fun s ->
        List.sort compare (F.features_of_stmt s)
        = List.sort compare (Reference.features s))

let test_prop_compiled_checker () =
  List.iter
    (fun profile ->
       let bugs = Minidb.Profile.bugs profile in
       let checker = Minidb.Profile.checker profile in
       let hits = ref 0 and cc_hits = ref 0 in
       let arb =
         Reprutil.Prop.map ~print:print_case (draw_case profile)
           (Reprutil.Prop.int_range 0 1_000_000)
       in
       Reprutil.Prop.check ~count:1000
         ~name:
           ("compiled checker = interpreter on "
            ^ Minidb.Profile.name profile)
         arb
         (fun (window, stmt, truths) ->
            let ctx = ctx ~window ~stmt ~state:(fun n -> List.mem n truths) () in
            let expected = Reference.first_match bugs ctx in
            (match expected with
             | Some b ->
               incr hits;
               if String.starts_with ~prefix:"CC-" b.F.bug_id then incr cc_hits
             | None -> ());
            first_match checker ctx = expected);
       (* the cases must reach bugs, the concurrency ones included *)
       Alcotest.(check bool)
         (Minidb.Profile.name profile ^ ": cases match bugs") true
         (!hits > 100 && !cc_hits > 0))
    Dialects.Registry.all

(* The packed window against the list it stands for: every push keeps
   the last eight types, the current one last. *)
let test_prop_packed_window () =
  let arb =
    Reprutil.Prop.map
      ~print:(fun ts -> String.concat " > " (List.map Stmt_type.name ts))
      (List.map Stmt_type.of_index)
      (Reprutil.Prop.list ~max_len:20
         (Reprutil.Prop.int_range 0 (Stmt_type.count - 1)))
  in
  Reprutil.Prop.check ~count:500 ~name:"packed window = list window" arb
    (fun types ->
       let _, ok =
         List.fold_left
           (fun (w, ok) ty ->
              let w = F.push_window w ty in
              (w, ok && F.last_index w = Stmt_type.to_index ty))
           (F.empty_window, true) types
       in
       let last8 =
         List.filteri (fun i _ -> i >= List.length types - 8) types
       in
       let w = F.window_of_list types in
       ok
       && F.window_to_list w = last8
       && F.window_length w = List.length last8
       && F.last_index w
          = (match List.rev types with
              | [] -> -1
              | ty :: _ -> Stmt_type.to_index ty))

let suite =
  [ ("subseq matching", `Quick, test_subseq_matching);
    ("ends_with", `Quick, test_ends_with);
    ("combinators", `Quick, test_combinators);
    ("stmt features", `Quick, test_stmt_features);
    ("check first match", `Quick, test_check_raises_first_match);
    ("stacks distinct and stable", `Quick, test_stacks_distinct_and_stable);
    ("kind names", `Quick, test_kind_names);
    ("features = reference (1000 cases)", `Quick, test_prop_features);
    ("compiled checker = interpreter (4 x 1000 cases)", `Quick,
     test_prop_compiled_checker);
    ("packed window = list window (500 cases)", `Quick,
     test_prop_packed_window) ]
