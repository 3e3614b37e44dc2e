(* Tests for the LEGO core machinery: generator totality, instantiation
   repair, conventional mutation, sequence-oriented mutation. *)

open Sqlcore
module Rng = Reprutil.Rng

let parse = Sqlparser.Parser.parse_testcase_exn

(* --- generator ------------------------------------------------------ *)

let prop_generator_type_exact =
  QCheck.Test.make
    ~name:"generated statement has exactly the requested type" ~count:1000
    QCheck.(pair small_nat (int_bound (Stmt_type.count - 1)))
    (fun (seed, idx) ->
       let rng = Rng.create (seed * 7 + 1) in
       let schema = Lego.Sym_schema.empty () in
       Lego.Sym_schema.apply schema
         (Sqlparser.Parser.parse_stmt_exn "CREATE TABLE base (c1 INT, c2 TEXT)");
       let ty = Stmt_type.of_index idx in
       let stmt = Lego.Generator.stmt rng schema ty in
       Stmt_type.equal (Ast.type_of_stmt stmt) ty)

let test_generator_no_tables () =
  (* even with an empty schema, generation must not raise *)
  let rng = Rng.create 99 in
  let schema = Lego.Sym_schema.empty () in
  List.iter
    (fun ty -> ignore (Lego.Generator.stmt rng schema ty))
    Stmt_type.all

(* --- sym_schema ----------------------------------------------------- *)

let test_sym_schema_tracking () =
  let schema =
    Lego.Sym_schema.of_testcase
      (parse
         "CREATE TABLE a (x INT, y TEXT);\n\
          CREATE TABLE b (z INT);\n\
          ALTER TABLE a ADD COLUMN w INT;\n\
          ALTER TABLE a RENAME COLUMN x TO x2;\n\
          DROP TABLE b;\n\
          ALTER TABLE a RENAME TO c;")
  in
  Alcotest.(check (list string)) "one table left" [ "c" ]
    (List.map fst (Lego.Sym_schema.tables schema));
  match Lego.Sym_schema.table_cols schema "c" with
  | Some cols ->
    Alcotest.(check (list string)) "columns tracked" [ "x2"; "y"; "w" ]
      (List.map (fun c -> c.Lego.Sym_schema.sc_name) cols)
  | None -> Alcotest.fail "table lost"

let test_sym_schema_fresh () =
  let schema = Lego.Sym_schema.of_testcase (parse "CREATE TABLE v1 (a INT);") in
  let n1 = Lego.Sym_schema.fresh schema ~prefix:"v" in
  Alcotest.(check bool) "avoids collision" true (n1 <> "v1")

(* --- instantiation & repair ----------------------------------------- *)

let test_repair_fixes_dangling_table () =
  (* the paper's own example: INSERT INTO v2 ... becomes INSERT INTO v0 *)
  let rng = Rng.create 5 in
  let tc =
    parse
      "CREATE TABLE v0 (x INT, y INT);\n\
       INSERT INTO v2 (v1) VALUES (100);"
  in
  match Lego.Instantiate.repair rng tc with
  | [ _; Ast.S_insert { i_table; i_cols; _ } ] ->
    Alcotest.(check string) "retargeted" "v0" i_table;
    List.iter
      (fun c ->
         Alcotest.(check bool) "col belongs to v0" true
           (List.mem c [ "x"; "y" ]))
      i_cols
  | _ -> Alcotest.fail "unexpected repair result"

let test_repair_freshens_clashing_create () =
  let rng = Rng.create 5 in
  let tc = parse "CREATE TABLE t (a INT); CREATE TABLE t (b INT);" in
  match Lego.Instantiate.repair rng tc with
  | [ Ast.S_create_table { name = n1; _ };
      Ast.S_create_table { name = n2; _ } ] ->
    Alcotest.(check bool) "renamed" true (n1 <> n2)
  | _ -> Alcotest.fail "unexpected repair result"

let test_repair_fixes_insert_arity () =
  let rng = Rng.create 5 in
  let tc =
    parse "CREATE TABLE t (a INT, b INT, c INT); INSERT INTO t VALUES (1);"
  in
  match Lego.Instantiate.repair rng tc with
  | [ _; Ast.S_insert { i_source = Ast.Src_values [ row ]; _ } ] ->
    Alcotest.(check int) "padded to arity" 3 (List.length row)
  | _ -> Alcotest.fail "unexpected repair result"

let test_repair_clamps_deep_exprs () =
  let deep =
    let rec nest n acc =
      if n = 0 then acc else nest (n - 1) (Ast.Unop (Ast.Neg, acc))
    in
    nest 64 (Ast.Lit (Ast.L_int 1))
  in
  let tc = [ Ast.S_do deep ] in
  match Lego.Instantiate.repair (Rng.create 1) tc with
  | [ Ast.S_do e ] ->
    Alcotest.(check bool) "clamped" true (Ast_util.expr_depth e <= 14)
  | _ -> Alcotest.fail "unexpected repair result"

(* Every outcome [Repair_pin] computes must equal the committed line:
   the printed repaired testcase and the generator's next draw. On a
   mismatch the current outcomes are written to repair-outcomes.actual
   beside the test binary for diffing. *)
let test_repair_outcomes_pinned () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let actual = Repair_pin.outcomes ~shapes:(read "golden/exec-shapes.sql") in
  let expected =
    String.split_on_char '\n' (read "golden/repair-outcomes.txt")
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "at least 5000 inputs" true
    (List.length actual >= 5000);
  if List.map (fun (_, _, l) -> l) actual <> expected then begin
    Out_channel.with_open_bin "repair-outcomes.actual" (fun oc ->
        List.iter (fun (_, _, l) -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | (input, _, a) :: xs, e :: ys ->
        if a = e then first_diff (i + 1) (xs, ys) else (i, input, a, e)
      | (input, _, a) :: _, [] -> (i, input, a, "<missing>")
      | [], _ -> (i, [], "<missing>", "<extra lines>")
    in
    let i, input, a, e = first_diff 1 (actual, expected) in
    Alcotest.failf "line %d differs on input %S\nexpected: %s\nactual:   %s"
      i (Sql_printer.testcase input) e a
  end

(* Each witness reaches the branch it stands for, so it comes back
   changed. *)
let test_repair_witnesses_change () =
  let ws = parse Repair_pin.witness_schema in
  List.iter
    (fun w ->
       let tc = ws @ parse w in
       let out, _ = Repair_pin.repair tc in
       Alcotest.(check bool) ("repair changes " ^ w) true
         (Sql_printer.testcase out <> Sql_printer.testcase tc))
    Repair_pin.witnesses

(* Repair shares what it leaves alone: over every pin input, a statement
   that comes back structurally equal to its input is the input itself,
   and an input repair leaves whole comes back as the same list. *)
let test_repair_shares_unchanged () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (tc, out, _) ->
       List.iter2
         (fun s s' ->
            if s = s' && s != s' then
              Alcotest.failf "rebuilt unchanged statement %s"
                (Sql_printer.stmt s))
         tc out;
       if tc = out && tc != out then
         Alcotest.failf "rebuilt unchanged testcase %s"
           (Sql_printer.testcase tc))
    (Repair_pin.outcomes ~shapes:(read "golden/exec-shapes.sql"))

let prop_instantiate_preserves_type_sequence =
  QCheck.Test.make ~name:"instantiated sequence keeps its type sequence"
    ~count:300
    QCheck.(pair small_nat (list_of_size (Gen.int_range 1 5)
                              (int_bound (Stmt_type.count - 1))))
    (fun (seed, idxs) ->
       let rng = Rng.create (seed + 11) in
       let skeletons = Lego.Skeleton_library.create () in
       let types = List.map Stmt_type.of_index idxs in
       let tc = Lego.Instantiate.sequence rng ~skeletons types in
       List.map Stmt_type.to_index (Ast.type_sequence tc) = idxs)

(* --- skeleton library ----------------------------------------------- *)

let test_skeleton_harvest_pick () =
  let lib = Lego.Skeleton_library.create () in
  let tc = parse "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
  let stored = Lego.Skeleton_library.harvest lib tc in
  Alcotest.(check int) "stored both" 2 stored;
  Alcotest.(check int) "dedupe" 0 (Lego.Skeleton_library.harvest lib tc);
  (match Lego.Skeleton_library.pick lib (Rng.create 1) Stmt_type.Insert with
   | Some (Ast.S_insert _) -> ()
   | _ -> Alcotest.fail "expected harvested insert");
  Alcotest.(check bool) "absent type" true
    (Lego.Skeleton_library.pick lib (Rng.create 1) Stmt_type.Vacuum = None);
  Alcotest.(check int) "types covered" 2
    (Lego.Skeleton_library.types_covered lib)

let test_skeleton_journal_and_store () =
  (* Harvested structures are journaled for exchange export; [store]d
     (imported) ones are kept but never journaled, so importers can't
     re-export foreign structures. *)
  let lib = Lego.Skeleton_library.create () in
  let tc = parse "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
  ignore (Lego.Skeleton_library.harvest lib tc);
  Alcotest.(check int) "harvest journals" 2
    (Lego.Skeleton_library.journal_length lib);
  Alcotest.(check int) "journal suffix" 1
    (List.length (Lego.Skeleton_library.journal_since lib 1));
  let foreign = List.hd (parse "SELECT 1;") in
  Alcotest.(check bool) "store accepts fresh" true
    (Lego.Skeleton_library.store lib foreign);
  Alcotest.(check bool) "store dedups" false
    (Lego.Skeleton_library.store lib foreign);
  Alcotest.(check int) "stored counted" 3 (Lego.Skeleton_library.count lib);
  Alcotest.(check int) "stored not journaled" 2
    (Lego.Skeleton_library.journal_length lib);
  (match Lego.Skeleton_library.pick lib (Rng.create 1) Stmt_type.Select with
   | Some (Ast.S_select _) -> ()
   | _ -> Alcotest.fail "expected the stored select to be pickable")

(* Each statement type keeps at most 64 structures. Past the cap a new
   structure overwrites a slot rather than growing the library, and it
   is journaled for export like any other harvest. *)
let test_skeleton_cap_per_type () =
  let lib = Lego.Skeleton_library.create () in
  let selects lo hi =
    parse
      (String.concat " "
         (List.init (hi - lo) (fun i -> Printf.sprintf "SELECT %d;" (lo + i))))
  in
  Alcotest.(check int) "first 64 stored" 64
    (Lego.Skeleton_library.harvest lib (selects 0 64));
  Alcotest.(check int) "count at the cap" 64 (Lego.Skeleton_library.count lib);
  Alcotest.(check int) "later structures still new" 136
    (Lego.Skeleton_library.harvest lib (selects 64 200));
  Alcotest.(check int) "count stops at the cap" 64
    (Lego.Skeleton_library.count lib);
  Alcotest.(check int) "every new structure journaled" 200
    (Lego.Skeleton_library.journal_length lib);
  let rng = Rng.create 7 and picked = Hashtbl.create 64 in
  for _ = 1 to 4096 do
    match Lego.Skeleton_library.pick lib rng Stmt_type.Select with
    | Some s -> Hashtbl.replace picked (Sql_printer.stmt s) ()
    | None -> Alcotest.fail "select structures vanished"
  done;
  Alcotest.(check int) "64 distinct structures pickable" 64
    (Hashtbl.length picked);
  let late = ref 0 in
  for i = 64 to 199 do
    if Hashtbl.mem picked (Sql_printer.stmt (List.hd (selects i (i + 1))))
    then incr late
  done;
  Alcotest.(check bool) "later structures replaced slots" true (!late > 0)

(* --- conventional mutation ------------------------------------------ *)

let prop_conventional_preserves_type_sequence =
  QCheck.Test.make
    ~name:"conventional mutation preserves the SQL type sequence"
    ~count:500 QCheck.small_nat
    (fun seed ->
       let rng = Rng.create (seed + 3) in
       let tc =
         parse
           "CREATE TABLE t (a INT, b INT);\n\
            INSERT INTO t VALUES (1, 2);\n\
            UPDATE t SET a = 3 WHERE b = 2;\n\
            SELECT a, b FROM t ORDER BY a ASC;"
       in
       let mutated = fst (Lego.Conventional.mutate_testcase_at rng tc) in
       Ast.type_sequence mutated = Ast.type_sequence tc)

let test_conventional_changes_something () =
  let rng = Rng.create 4 in
  let tc = parse "CREATE TABLE t (a INT); SELECT a FROM t WHERE a = 5;" in
  let changed = ref 0 in
  for _ = 1 to 50 do
    if fst (Lego.Conventional.mutate_testcase_at rng tc) <> tc then
      incr changed
  done;
  Alcotest.(check bool) "mutations usually change the case" true
    (!changed > 25)

(* --- sequence-oriented mutation (Algorithm 1) ------------------------ *)

let all_types = Stmt_type.all

let test_seq_mutation_ops () =
  let rng = Rng.create 8 in
  let skeletons = Lego.Skeleton_library.create () in
  let tc =
    parse
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;"
  in
  let mutants =
    Lego.Seq_mutation.mutate_at rng ~skeletons ~types:all_types tc ~pos:1
  in
  Alcotest.(check int) "three ops" 3 (List.length mutants);
  List.iter
    (fun (op, mutant) ->
       match op with
       | Lego.Seq_mutation.Substitution ->
         Alcotest.(check int) "same length" 3 (List.length mutant);
         Alcotest.(check bool) "type changed at pos" true
           (not
              (Stmt_type.equal
                 (Ast.type_of_stmt (List.nth mutant 1))
                 Stmt_type.Insert))
       | Lego.Seq_mutation.Insertion ->
         Alcotest.(check int) "one longer" 4 (List.length mutant)
       | Lego.Seq_mutation.Deletion ->
         Alcotest.(check int) "one shorter" 2 (List.length mutant))
    mutants

let test_seq_mutation_no_delete_singleton () =
  let rng = Rng.create 8 in
  let skeletons = Lego.Skeleton_library.create () in
  let tc = parse "SELECT 1;" in
  let mutants =
    Lego.Seq_mutation.mutate_at rng ~skeletons ~types:all_types tc ~pos:0
  in
  Alcotest.(check bool) "no deletion of the only statement" true
    (List.for_all
       (fun (op, _) -> op <> Lego.Seq_mutation.Deletion)
       mutants)

let test_seq_mutation_all_positions () =
  let rng = Rng.create 8 in
  let skeletons = Lego.Skeleton_library.create () in
  let tc =
    parse "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT 1;"
  in
  let mutants =
    Lego.Seq_mutation.mutate_all rng ~skeletons ~types:all_types tc
  in
  Alcotest.(check int) "3 ops x 3 positions" 9 (List.length mutants)

let test_seq_mutation_caps_length () =
  let rng = Rng.create 8 in
  let skeletons = Lego.Skeleton_library.create () in
  let long_tc =
    List.concat (List.init 30 (fun _ -> parse "SELECT 1;"))
  in
  let mutants =
    Lego.Seq_mutation.mutate_at rng ~skeletons ~types:all_types long_tc
      ~pos:0
  in
  Alcotest.(check bool) "no insertion past the cap" true
    (List.for_all
       (fun (op, _) -> op <> Lego.Seq_mutation.Insertion)
       mutants)

let suite =
  [ QCheck_alcotest.to_alcotest prop_generator_type_exact;
    ("generator with empty schema", `Quick, test_generator_no_tables);
    ("sym_schema tracking", `Quick, test_sym_schema_tracking);
    ("sym_schema fresh", `Quick, test_sym_schema_fresh);
    ("repair dangling table", `Quick, test_repair_fixes_dangling_table);
    ("repair clashing create", `Quick, test_repair_freshens_clashing_create);
    ("repair insert arity", `Quick, test_repair_fixes_insert_arity);
    ("repair clamps deep exprs", `Quick, test_repair_clamps_deep_exprs);
    ("repair outcomes pinned", `Quick, test_repair_outcomes_pinned);
    ("repair witnesses change", `Quick, test_repair_witnesses_change);
    ("repair shares unchanged statements", `Quick,
     test_repair_shares_unchanged);
    QCheck_alcotest.to_alcotest prop_instantiate_preserves_type_sequence;
    ("skeleton harvest/pick", `Quick, test_skeleton_harvest_pick);
    ("skeleton journal/store", `Quick, test_skeleton_journal_and_store);
    ("skeleton cap per type", `Quick, test_skeleton_cap_per_type);
    QCheck_alcotest.to_alcotest prop_conventional_preserves_type_sequence;
    ("conventional changes something", `Quick,
     test_conventional_changes_something);
    ("seq mutation ops", `Quick, test_seq_mutation_ops);
    ("seq mutation singleton", `Quick, test_seq_mutation_no_delete_singleton);
    ("seq mutation all positions", `Quick, test_seq_mutation_all_positions);
    ("seq mutation caps length", `Quick, test_seq_mutation_caps_length) ]
