(* Farm layer (DESIGN.md §16): store round-trip properties, crash
   recovery, UCB1 bandit behaviour, and the resume golden test. *)

open Sqlcore
module Store = Farm.Store
module Bandit = Farm.Bandit
module Spec = Farm.Spec
module Resume = Farm.Resume
module Scheduler = Farm.Scheduler
module Prop = Reprutil.Prop
module Bitmap = Coverage.Bitmap
module Sync = Fuzz.Sync

let parse = Sqlparser.Parser.parse_testcase_exn
let parse_stmt = Sqlparser.Parser.parse_stmt_exn

(* --- scratch directories --------------------------------------------- *)

let fresh_dir prefix =
  let f = Filename.temp_file ("legofuzz-" ^ prefix ^ "-") "" in
  Sys.remove f;
  Store.ensure_dir f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir prefix f =
  let dir = fresh_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i =
    i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1))
  in
  scan 0

(* --- generators ------------------------------------------------------- *)

let pick ~print arr =
  Prop.map ~print
    (fun i -> arr.(i))
    (Prop.int_range 0 (Array.length arr - 1))

let pick_str arr = pick ~print:Fun.id arr

(* A testcase the LEGO generator emits once a table has lost its last
   column: the INSERT prints as [VALUES ()]. Built as an AST so the pool
   does not depend on the parser accepting it. *)
let zero_column_testcase =
  parse "CREATE TABLE v1 (c1 INT); ALTER TABLE v1 DROP COLUMN c1"
  @ [ Ast.S_insert
        { i_table = "v1"; i_cols = []; i_source = Ast.Src_values [ [] ];
          i_ignore = true } ]

let testcase_pool =
  Array.append
    (Array.map parse
       [| "SELECT 1";
          "SELECT a FROM t WHERE a > 0";
          "CREATE TABLE t (a INT, b TEXT)";
          "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t";
          "INSERT INTO t VALUES (1, 'x')";
          "UPDATE t SET a = 2 WHERE b = 'x'";
          "DELETE FROM t WHERE a IS NOT NULL";
          "DROP TABLE IF EXISTS t";
          "SELECT a, b FROM t ORDER BY a LIMIT 3" |])
    [| zero_column_testcase |]

let stmt_pool =
  Array.map parse_stmt
    [| "SELECT 1";
       "CREATE TABLE s (c INT)";
       "INSERT INTO s VALUES (9)";
       "UPDATE s SET c = c + 1";
       "DELETE FROM s WHERE c = 0" |]

let gen_int64 =
  Prop.map
    ~print:(Printf.sprintf "%#Lx")
    (fun (hi, lo) ->
       Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
    (Prop.pair (Prop.int_range 0 0xFFFFFFFF) (Prop.int_range 0 0xFFFFFFFF))

let print_xseed (s : Sync.xseed) =
  Printf.sprintf "%s #%Lx" (Sql_printer.testcase s.xs_tc) s.xs_cov_hash

let gen_xseed =
  Prop.map ~print:print_xseed
    (fun (tc, (hash, branches, cost)) ->
       { Sync.xs_tc = tc;
         xs_cov_hash = hash;
         xs_new_branches = branches;
         xs_cost = cost })
    (Prop.pair
       (pick ~print:Sql_printer.testcase testcase_pool)
       (Prop.triple gen_int64 (Prop.int_range 0 512) (Prop.int_range 0 9999)))

let gen_stmt_type =
  Prop.map ~print:Stmt_type.name Stmt_type.of_index
    (Prop.int_range 0 (Stmt_type.count - 1))

let gen_affinities =
  Prop.list ~max_len:16 (Prop.pair gen_stmt_type gen_stmt_type)

let gen_skeletons =
  Prop.list ~max_len:8 (pick ~print:Sql_printer.stmt stmt_pool)

(* compact_of_cells wants the canonical form: unique indices, ascending. *)
let canonical_cells cells =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, v) -> if not (Hashtbl.mem tbl i) then Hashtbl.add tbl i v)
    cells;
  Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let gen_compact =
  Prop.map
    ~print:(fun c ->
      Printf.sprintf "%d cells" (List.length (Bitmap.compact_cells c)))
    (fun cells -> Bitmap.compact_of_cells (canonical_cells cells))
    (Prop.list ~max_len:64
       (Prop.pair (Prop.int_range 0 (Bitmap.size - 1)) (Prop.int_range 1 255)))

(* Dedup keys exercise the JSON string escaper: quotes, backslashes,
   control characters, raw UTF-8 bytes. *)
let key_pool =
  [| "minidb:Index.lookup:34";
     "engine \"quoted\" frame";
     "back\\slash\\key";
     "multi\nline\nstack";
     "tab\there";
     "plain_key_1";
     "plain_key_2";
     "\xce\xbb-unicode";
     "spaces in key" |]

let gen_keys = Prop.list ~max_len:10 (pick_str key_pool)

let id_pool = [| "a"; "camp-1"; "x.y_z"; "A09"; "dots.in.id"; "under_score" |]
let fuzzer_pool = [| "lego"; "lego-"; "squirrel"; "sqlancer"; "sqlsmith" |]
let dialect_pool = [| "postgresql"; "mysql"; "mariadb"; "comdb2" |]

let quirk_pool =
  [| "index_eq_skips_first"; "or_drops_right"; "limit_off_by_one" |]

let feedback_pool = [| Fuzz.Harness.Edges; Fuzz.Harness.Grammar;
                       Fuzz.Harness.Both |]

let gen_campaign =
  Prop.map
    ~print:(fun c -> c.Store.sc_id ^ "/" ^ c.Store.sc_fuzzer)
    (fun ((id, fuzzer, dialect),
          (quirks, feedback, (oracles, cache, (seed, budget)))) ->
      { Store.sc_id = id;
        sc_fuzzer = fuzzer;
        sc_dialect = dialect;
        sc_quirks = quirks;
        sc_feedback = feedback;
        sc_oracles = oracles;
        sc_exec_cache = cache;
        sc_seed = seed;
        sc_budget = budget })
    (Prop.pair
       (Prop.triple (pick_str id_pool) (pick_str fuzzer_pool)
          (pick_str dialect_pool))
       (Prop.triple
          (Prop.list ~max_len:2 (pick_str quirk_pool))
          (pick ~print:(fun _ -> "feedback") feedback_pool)
          (Prop.triple Prop.bool
             (Prop.int_range 0 4096)
             (Prop.pair (Prop.int_range 0 1_000_000)
                (Prop.int_range 1 1_000_000)))))

let gen_progress =
  Prop.map
    ~print:(fun p ->
      Printf.sprintf "execs=%d epoch=%d" p.Store.pr_execs_done p.Store.pr_epoch)
    (fun (execs, epoch) -> { Store.pr_execs_done = execs; pr_epoch = epoch })
    (Prop.pair (Prop.int_range 0 2_000_000) (Prop.int_range 0 12))

let base_campaign =
  { Store.sc_id = "prop";
    sc_fuzzer = "lego";
    sc_dialect = "postgresql";
    sc_quirks = [];
    sc_feedback = Fuzz.Harness.Both;
    sc_oracles = false;
    sc_exec_cache = 0;
    sc_seed = 1;
    sc_budget = 1000 }

let base () = Store.empty_snapshot base_campaign

(* --- store round-trip battery ----------------------------------------- *)

let roundtrips dir sn =
  let (_ : int) = Store.save ~keep:1 ~dir sn in
  match Store.load ~dir with
  | Ok (sn', _, _) -> Store.snapshot_equal sn sn'
  | Error _ -> false

let test_roundtrip_meta () =
  with_dir "rt-meta" (fun dir ->
    Prop.check ~name:"meta save→load ≡ identity"
      (Prop.pair gen_campaign gen_progress)
      (fun (c, p) ->
         roundtrips dir { (Store.empty_snapshot c) with Store.sn_progress = p }))

let test_roundtrip_corpus () =
  with_dir "rt-corpus" (fun dir ->
    let seed =
      { Sync.xs_tc = zero_column_testcase; xs_cov_hash = 7L;
        xs_new_branches = 1; xs_cost = 3 }
    in
    Alcotest.(check bool) "INSERT ... VALUES () corpus entry reloads" true
      (roundtrips dir { (base ()) with Store.sn_seeds = [ seed ] });
    Prop.check ~name:"corpus save→load ≡ identity"
      (Prop.list ~max_len:12 gen_xseed)
      (fun seeds -> roundtrips dir { (base ()) with Store.sn_seeds = seeds }))

let test_roundtrip_affinities () =
  with_dir "rt-aff" (fun dir ->
    Prop.check ~name:"affinities save→load ≡ identity" gen_affinities
      (fun affs ->
         roundtrips dir { (base ()) with Store.sn_affinities = affs }))

let test_roundtrip_skeletons () =
  with_dir "rt-skel" (fun dir ->
    Prop.check ~name:"skeletons save→load ≡ identity" gen_skeletons
      (fun skels ->
         roundtrips dir { (base ()) with Store.sn_skeletons = skels }))

let test_roundtrip_maps () =
  with_dir "rt-maps" (fun dir ->
    Prop.check ~name:"virgin maps save→load ≡ identity"
      (Prop.pair gen_compact gen_compact)
      (fun (virgin, grammar) ->
         roundtrips dir
           { (base ()) with Store.sn_virgin = virgin; sn_grammar = grammar }))

let test_roundtrip_dedup () =
  with_dir "rt-dedup" (fun dir ->
    Prop.check ~name:"dedup keys save→load ≡ identity"
      (Prop.pair gen_keys gen_keys)
      (fun (crashes, logic) ->
         roundtrips dir
           { (base ()) with
             Store.sn_crash_keys = crashes;
             sn_logic_keys = logic }))

let test_roundtrip_full () =
  with_dir "rt-full" (fun dir ->
    Prop.check ~count:300 ~name:"full snapshot save→load ≡ identity"
      (Prop.pair
         (Prop.triple (Prop.pair gen_campaign gen_progress)
            (Prop.list ~max_len:8 gen_xseed) gen_affinities)
         (Prop.triple gen_skeletons (Prop.pair gen_compact gen_compact)
            (Prop.pair gen_keys gen_keys)))
      (fun (((c, p), seeds, affs), (skels, (virgin, grammar), (ck, lk))) ->
         roundtrips dir
           { Store.sn_campaign = c;
             sn_progress = p;
             sn_seeds = seeds;
             sn_affinities = affs;
             sn_skeletons = skels;
             sn_virgin = virgin;
             sn_grammar = grammar;
             sn_crash_keys = ck;
             sn_logic_keys = lk;
             sn_rendered = Store.no_render_cache }))

(* --- incremental rendering ---------------------------------------------- *)

let empty_map = Bitmap.compact_of_cells []

let acc_snap acc =
  Store.acc_snapshot acc ~campaign:base_campaign
    ~progress:{ Store.pr_execs_done = 0; pr_epoch = 0 }
    ~virgin:empty_map ~grammar:empty_map ~crash_keys:[ "k" ] ~logic_keys:[]

(* Save [sn] into [dir], and the same snapshot with its render cache
   dropped into [scratch]: every section file must match, and every
   manifest digest must be the digest of its file. *)
let saves_like_uncached ~dir ~scratch sn =
  let g = Store.save ~keep:2 ~dir sn in
  let g' =
    Store.save ~keep:1 ~dir:scratch
      { sn with Store.sn_rendered = Store.no_render_cache }
  in
  let gdir = Store.generation_dir ~dir g
  and fresh = Store.generation_dir ~dir:scratch g' in
  match Store.manifest_digests gdir with
  | None -> false
  | Some digests ->
    List.length digests = List.length Store.section_files
    && List.for_all
         (fun (name, digest) ->
            let bytes = read_file (Filename.concat gdir name) in
            String.equal bytes (read_file (Filename.concat fresh name))
            && String.equal digest (Store.fnv64 bytes))
         digests

(* What a snapshot must hold after [exports]: each list deduplicated by
   its exchange key, first occurrence first — projected to those keys. *)
let expected_keys exports =
  let uniq key xs =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun x ->
         let k = key x in
         if Hashtbl.mem seen k then None
         else begin
           Hashtbl.add seen k ();
           Some k
         end)
      xs
  in
  ( uniq (fun (x : Sync.xseed) -> x.xs_cov_hash)
      (List.concat_map (fun xp -> xp.Sync.xp_seeds) exports),
    uniq (fun (a, b) -> Stmt_type.(to_index a, to_index b))
      (List.concat_map (fun xp -> xp.Sync.xp_affinities) exports),
    uniq Sql_printer.stmt
      (List.concat_map (fun xp -> xp.Sync.xp_skeletons) exports) )

let snapshot_keys (sn : Store.snapshot) =
  ( List.map (fun (x : Sync.xseed) -> x.xs_cov_hash) sn.sn_seeds,
    List.map
      (fun (a, b) -> Stmt_type.(to_index a, to_index b))
      sn.sn_affinities,
    List.map Sql_printer.stmt sn.sn_skeletons )

type acc_op = Add of Sync.export | Snap | Save of int

let print_op = function
  | Add xp ->
    Printf.sprintf "add(%s | %d affs | %d skels)"
      (String.concat "; " (List.map print_xseed xp.Sync.xp_seeds))
      (List.length xp.xp_affinities) (List.length xp.xp_skeletons)
  | Snap -> "snap"
  | Save k -> Printf.sprintf "save#%d" k

(* Eight cov hashes in all, so exports keep re-exporting seeds the
   accumulator already holds (as do the affinity and skeleton pools). *)
let gen_dup_xseed =
  Prop.map ~print:print_xseed
    (fun (tc, h) ->
       { Sync.xs_tc = tc; xs_cov_hash = Int64.of_int h; xs_new_branches = h;
         xs_cost = 2 * h })
    (Prop.pair (pick ~print:Sql_printer.testcase testcase_pool)
       (Prop.int_range 0 7))

let gen_export =
  Prop.map
    ~print:(fun xp -> print_op (Add xp))
    (fun (seeds, affs, skels) ->
       { Sync.xp_seeds = seeds; xp_affinities = affs; xp_skeletons = skels })
    (Prop.triple
       (Prop.list ~max_len:4 gen_dup_xseed)
       (Prop.list ~max_len:4 (Prop.pair gen_stmt_type gen_stmt_type))
       (Prop.list ~max_len:3 (pick ~print:Sql_printer.stmt stmt_pool)))

let gen_op =
  Prop.map ~print:print_op
    (fun (kind, (xp, k)) ->
       match kind with 0 | 1 -> Add xp | 2 -> Snap | _ -> Save k)
    (Prop.pair (Prop.int_range 0 3) (Prop.pair gen_export (Prop.int_range 0 7)))

let test_incremental_sections () =
  with_dir "inc" (fun dir ->
    with_dir "inc-fresh" (fun scratch ->
      Prop.check ~count:200
        ~name:"incremental sections ≡ rendering from scratch"
        (Prop.list ~max_len:14 gen_op)
        (fun ops ->
           let acc = Store.acc_create () in
           let exports = ref [] in
           let snap () =
             let sn = acc_snap acc in
             if snapshot_keys sn = expected_keys (List.rev !exports) then
               Some sn
             else None
           in
           (* Held snapshots: a save may pick an older one, taken before
              later exports grew the accumulator past it. *)
           let held = ref [] in
           let save = saves_like_uncached ~dir ~scratch in
           let save_held k =
             match !held with
             | [] -> Option.fold ~none:false ~some:save (snap ())
             | l -> save (List.nth l (k mod List.length l))
           in
           List.for_all
             (function
               | Add xp ->
                 Store.acc_add_export acc xp;
                 exports := xp :: !exports;
                 true
               | Snap -> (
                   match snap () with
                   | Some sn -> held := sn :: !held; true
                   | None -> false)
               | Save k -> save_held k)
             ops
           && Option.fold ~none:false ~some:save (snap ()))))

let test_stale_cache_guard () =
  with_dir "stale" (fun dir ->
    let acc = Store.acc_create () in
    Store.acc_add_export acc
      { Sync.xp_seeds =
          List.mapi
            (fun i tc ->
               { Sync.xs_tc = tc; xs_cov_hash = Int64.of_int i;
                 xs_new_branches = i; xs_cost = i })
            (Array.to_list testcase_pool);
        xp_affinities =
          List.init 6 (fun i ->
            (Stmt_type.of_index i, Stmt_type.of_index (i + 1)));
        xp_skeletons = Array.to_list stmt_pool };
    let sn = acc_snap acc in
    let load_back sn' =
      let g = Store.save ~keep:1 ~dir sn' in
      match Store.load ~dir with
      | Ok (loaded, g', []) when g = g' -> loaded
      | _ -> Alcotest.fail "saved generation does not load cleanly"
    in
    let extra =
      { Sync.xs_tc = zero_column_testcase; xs_cov_hash = 99L;
        xs_new_branches = 1; xs_cost = 1 }
    in
    List.iter
      (fun (what, seeds) ->
         let loaded = load_back { sn with Store.sn_seeds = seeds } in
         Alcotest.(check (list string)) ("seeds: " ^ what)
           (List.map print_xseed seeds)
           (List.map print_xseed loaded.Store.sn_seeds))
      [ ("tail", List.tl sn.sn_seeds); ("reversed", List.rev sn.sn_seeds);
        ("empty", []); ("extended", sn.sn_seeds @ [ extra ]) ];
    let affs_t = Alcotest.(list (pair int int)) in
    let aff_ix = List.map (fun (a, b) -> Stmt_type.(to_index a, to_index b)) in
    List.iter
      (fun (what, affs) ->
         let loaded = load_back { sn with Store.sn_affinities = affs } in
         Alcotest.check affs_t ("affinities: " ^ what) (aff_ix affs)
           (aff_ix loaded.Store.sn_affinities))
      [ ("tail", List.tl sn.sn_affinities);
        ("reversed", List.rev sn.sn_affinities); ("empty", []) ];
    List.iter
      (fun (what, skels) ->
         let loaded = load_back { sn with Store.sn_skeletons = skels } in
         Alcotest.(check (list string)) ("skeletons: " ^ what)
           (List.map Sql_printer.stmt skels)
           (List.map Sql_printer.stmt loaded.Store.sn_skeletons))
      [ ("tail", List.tl sn.sn_skeletons);
        ("reversed", List.rev sn.sn_skeletons); ("empty", []) ];
    (* The untouched snapshot still writes what its cache holds. *)
    let loaded = load_back sn in
    Alcotest.(check int) "original seeds" (Array.length testcase_pool)
      (List.length loaded.Store.sn_seeds))

let gen_bytes =
  Prop.map ~print:String.escaped
    (fun codes -> String.of_seq (Seq.map Char.chr (List.to_seq codes)))
    (Prop.list ~max_len:24 (Prop.int_range 0 255))

let test_fnv_feed () =
  Alcotest.(check string) "FNV-1a-64 of \"\"" "cbf29ce484222325"
    (Store.fnv64 "");
  Alcotest.(check string) "FNV-1a-64 of \"a\"" "af63dc4c8601ec8c"
    (Store.fnv64 "a");
  Prop.check ~name:"fnv_feed chains"
    (Prop.triple gen_int64 gen_bytes gen_bytes)
    (fun (b, x, y) ->
       Int64.equal
         (Store.fnv_feed (Store.fnv_feed b x) y)
         (Store.fnv_feed b (x ^ y)))

(* The bitmap sections as the store rendered them through a JSON tree;
   the direct renderer must write the same bytes. *)
let json_tree_bitmap cells =
  Telemetry.Json.(
    to_string
      (Obj
         [ ("cells", Arr (List.map (fun (i, v) -> Arr [ Int i; Int v ]) cells))
         ]))
  ^ "\n"

(* A live map hit at [indices] in that (touch) order, and its cells as
   ascending (index, hit count capped at 255) pairs. *)
let touched indices =
  let m = Bitmap.create () in
  List.iter (Bitmap.hit m) indices;
  let counts = Hashtbl.create 16 in
  List.iter
    (fun i ->
       let n = Option.value ~default:0 (Hashtbl.find_opt counts i) in
       Hashtbl.replace counts i (min 255 (n + 1)))
    indices;
  ( Bitmap.compact m,
    List.sort compare (Hashtbl.fold (fun i v acc -> (i, v) :: acc) counts []) )

let test_bitmap_render () =
  with_dir "bitmap" (fun dir ->
    let renders_like_tree (compact, cells) =
      let g =
        Store.save ~keep:1 ~dir { (base ()) with Store.sn_virgin = compact }
      in
      let bytes =
        read_file (Filename.concat (Store.generation_dir ~dir g) "virgin.json")
      in
      Bitmap.compact_cells compact = cells
      && String.equal bytes (json_tree_bitmap cells)
    in
    Alcotest.(check bool) "empty map" true (renders_like_tree (touched []));
    Prop.check ~count:200 ~name:"sparse map renders as the JSON tree did"
      (Prop.list ~max_len:64
         (Prop.map ~print:string_of_int
            (fun (hot, i) -> if hot then i mod 8 else i)
            (Prop.pair Prop.bool (Prop.int_range 0 (Bitmap.size - 1)))))
      (fun indices -> renders_like_tree (touched indices));
    (* More touched cells than the dirty list holds: a C_full compact. *)
    let indices =
      List.init 5000 (fun i -> i * 13 mod Bitmap.size)
      @ List.concat (List.init 300 (fun _ -> [ 13; 26 ]))
    in
    let full = touched indices in
    Alcotest.(check int) "saturated compact" (Bitmap.size + 16)
      (Bitmap.compact_bytes (fst full));
    Alcotest.(check bool) "saturated map" true (renders_like_tree full))

(* --- crash recovery --------------------------------------------------- *)

let sample_snapshot n =
  let take k arr = Array.to_list (Array.sub arr 0 k) in
  let seed i tc =
    { Sync.xs_tc = tc;
      xs_cov_hash = Int64.of_int (0x1234 + (i * 7919));
      xs_new_branches = i + 1;
      xs_cost = 10 * (i + 1) }
  in
  { Store.sn_campaign = base_campaign;
    sn_progress = { pr_execs_done = 100 * n; pr_epoch = n };
    sn_seeds = List.mapi seed (take (min n 4) testcase_pool);
    sn_affinities =
      List.init n (fun i ->
        (Stmt_type.of_index (i mod Stmt_type.count),
         Stmt_type.of_index ((i * 3) mod Stmt_type.count)));
    sn_skeletons = take (min n 3) stmt_pool;
    sn_virgin =
      Bitmap.compact_of_cells (List.init (4 * n) (fun i -> (17 * i, 1 + i)));
    sn_grammar = Bitmap.compact_of_cells (List.init n (fun i -> (31 * i, 8)));
    sn_crash_keys = List.init n (Printf.sprintf "crash-%d");
    sn_logic_keys = List.init n (Printf.sprintf "logic-%d");
    sn_rendered = Store.no_render_cache }

(* Two generations: gen 1 holds [snap_a], gen 2 the richer [snap_b]. *)
let snap_a = sample_snapshot 2
let snap_b = sample_snapshot 5

let two_gen_store dir =
  let g1 = Store.save ~dir snap_a in
  let g2 = Store.save ~dir snap_b in
  Alcotest.(check (pair int int)) "generation numbers" (1, 2) (g1, g2)

let truncate_file path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s / 2))

let bitflip_file path =
  let s = Bytes.of_string (read_file path) in
  let i = Bytes.length s / 2 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x20));
  write_file path (Bytes.to_string s)

let check_falls_back_to_gen1 dir =
  match Store.load ~dir with
  | Ok (sn, generation, warnings) ->
    Alcotest.(check int) "fell back to generation 1" 1 generation;
    Alcotest.(check bool) "recovered snapshot is gen 1's" true
      (Store.snapshot_equal snap_a sn);
    Alcotest.(check bool) "corruption reported" true (warnings <> []);
    Alcotest.(check bool) "warning names the bad generation" true
      (List.exists (fun w -> contains w "gen-000002") warnings)
  | Error ws ->
    Alcotest.failf "no valid generation: %s" (String.concat "; " ws)

let corrupt_gen dir gen how file =
  how (Filename.concat (Store.generation_dir ~dir gen) file)

let test_recovery_truncated () =
  with_dir "rec-trunc" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 2 truncate_file "corpus.jsonl";
    check_falls_back_to_gen1 dir)

let test_recovery_bitflip () =
  with_dir "rec-flip" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 2 bitflip_file "virgin.json";
    check_falls_back_to_gen1 dir)

let test_recovery_missing_section () =
  with_dir "rec-del" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 2 Sys.remove "meta.json";
    check_falls_back_to_gen1 dir)

let test_recovery_torn_manifest () =
  with_dir "rec-manifest" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 2 Sys.remove Store.manifest_file;
    check_falls_back_to_gen1 dir)

let test_recovery_stray_tmp_ignored () =
  with_dir "rec-tmp" (fun dir ->
    two_gen_store dir;
    (* A writer killed mid-save leaves temp files; they must not affect
       loading or digest validation. *)
    write_file
      (Filename.concat (Store.generation_dir ~dir 2) "corpus.jsonl.tmp")
      "half-written garbage";
    write_file (Filename.concat dir "stray.tmp") "noise";
    match Store.load ~dir with
    | Ok (sn, generation, warnings) ->
      Alcotest.(check int) "newest generation still valid" 2 generation;
      Alcotest.(check bool) "snapshot intact" true
        (Store.snapshot_equal snap_b sn);
      Alcotest.(check (list string)) "no warnings" [] warnings
    | Error ws ->
      Alcotest.failf "no valid generation: %s" (String.concat "; " ws))

let test_recovery_all_corrupt () =
  with_dir "rec-all" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 1 truncate_file "dedup.json";
    corrupt_gen dir 2 bitflip_file "corpus.jsonl";
    match Store.load ~dir with
    | Ok (_, generation, _) ->
      Alcotest.failf "loaded corrupt generation %d" generation
    | Error warnings ->
      Alcotest.(check bool) "both generations reported" true
        (List.length warnings >= 2))

let test_recovery_save_after_corruption () =
  with_dir "rec-resave" (fun dir ->
    two_gen_store dir;
    corrupt_gen dir 2 bitflip_file "skeletons.jsonl";
    (* The next save must not reuse the corrupt generation's number. *)
    let g3 = Store.save ~dir snap_b in
    Alcotest.(check int) "new generation after the corrupt one" 3 g3;
    match Store.load ~dir with
    | Ok (sn, generation, _) ->
      Alcotest.(check int) "loads the new generation" 3 generation;
      Alcotest.(check bool) "snapshot intact" true
        (Store.snapshot_equal snap_b sn)
    | Error ws ->
      Alcotest.failf "no valid generation: %s" (String.concat "; " ws))

(* --- bandit ----------------------------------------------------------- *)

let test_bandit_deterministic () =
  let drive () =
    let b = Bandit.create ~arms:3 () in
    let rounds = ref [] in
    for _ = 1 to 6 do
      let active = [| true; true; true |] in
      let execs, pulls = Bandit.allocate b ~budget:1000 ~active in
      rounds := Array.to_list execs :: !rounds;
      Array.iteri
        (fun arm p ->
           if p > 0 then
             Bandit.update b ~arm ~pulls:p
               ~reward:(0.1 *. float_of_int (arm + 1)))
        pulls
    done;
    List.rev !rounds
  in
  Alcotest.(check (list (list int)))
    "same update sequence, same allocations" (drive ()) (drive ())

let test_bandit_conservation () =
  Prop.check ~name:"allocate conserves the budget exactly"
    (Prop.triple (Prop.int_range 1 6) (Prop.int_range 0 5000)
       (Prop.pair (Prop.list ~max_len:6 Prop.bool)
          (Prop.list ~max_len:6 (Prop.int_range 0 10))))
    (fun (arms, budget, (mask, rewards)) ->
       let active =
         Array.init arms (fun i ->
           match List.nth_opt mask i with Some b -> b | None -> false)
       in
       let b = Bandit.create ~arms () in
       (* Vary the committed state before the allocation under test. *)
       List.iteri
         (fun i r ->
            if i < arms then
              Bandit.update b ~arm:i ~pulls:(1 + (i mod 3))
                ~reward:(float_of_int r /. 10.0))
         rewards;
       let execs, _ = Bandit.allocate b ~budget ~active in
       let sum = Array.fold_left ( + ) 0 execs in
       let any = Array.exists Fun.id active in
       let inactive_zero =
         Array.for_all2 (fun a e -> a || e = 0) active execs
       in
       (if any then sum = budget else sum = 0) && inactive_zero)

let test_bandit_explores_fresh_arms () =
  let b = Bandit.create ~arms:4 () in
  let execs, pulls =
    Bandit.allocate b ~budget:1000 ~active:[| true; true; true; true |]
  in
  Array.iteri
    (fun arm e ->
       Alcotest.(check bool)
         (Printf.sprintf "arm %d explored" arm)
         true (e > 0 && pulls.(arm) > 0))
    execs

let test_bandit_planted_two_arms () =
  let b = Bandit.create ~arms:2 () in
  let total = [| 0; 0 |] in
  for _ = 1 to 40 do
    let execs, pulls = Bandit.allocate b ~budget:250 ~active:[| true; true |] in
    total.(0) <- total.(0) + execs.(0);
    total.(1) <- total.(1) + execs.(1);
    Array.iteri
      (fun arm p ->
         if p > 0 then
           Bandit.update b ~arm ~pulls:p
             ~reward:(if arm = 0 then 0.9 else 0.1))
      pulls
  done;
  let dealt = total.(0) + total.(1) in
  Alcotest.(check int) "budget conserved over all rounds" (40 * 250) dealt;
  Alcotest.(check bool)
    (Printf.sprintf "high-yield arm got %d/%d (wanted >= 60%%)" total.(0) dealt)
    true
    (total.(0) * 100 >= 60 * dealt)

let test_bandit_inactive_arm () =
  let b = Bandit.create ~arms:2 () in
  Bandit.update b ~arm:1 ~pulls:4 ~reward:5.0;
  let execs, _ = Bandit.allocate b ~budget:300 ~active:[| true; false |] in
  Alcotest.(check (list int)) "retired arm gets nothing" [ 300; 0 ]
    (Array.to_list execs)

(* --- spec parsing ----------------------------------------------------- *)

let spec_text =
  {|{"campaigns":[
      {"id":"hot","fuzzer":"lego","dialect":"postgresql","feedback":"both",
       "budget":8000,"seed":11},
      {"id":"cold","fuzzer":"sqlsmith","dialect":"mysql",
       "quirks":["index_eq_skips_first"],"budget":8000,"seed":11}],
     "total_execs":8000,"round_execs":800,"workers":2,
     "policy":"bandit","ucb_c":0.3}|}

let parse_spec () =
  match Telemetry.Json.of_string spec_text with
  | Error m -> Alcotest.failf "spec json: %s" m
  | Ok j ->
    (match Spec.of_json j with
     | Error m -> Alcotest.failf "spec: %s" m
     | Ok spec -> spec)

let test_spec_json_roundtrip () =
  let spec = parse_spec () in
  Alcotest.(check int) "campaigns" 2 (List.length spec.Spec.fs_campaigns);
  Alcotest.(check string) "policy" "bandit"
    (Spec.policy_to_string spec.fs_policy);
  match Spec.of_json (Spec.to_json spec) with
  | Error m -> Alcotest.failf "re-parse: %s" m
  | Ok spec' ->
    Alcotest.(check bool) "to_json ∘ of_json is the identity" true
      (spec = spec')

let test_spec_rejects_unknown_fuzzer () =
  let bad =
    {|{"campaigns":[{"id":"x","fuzzer":"afl","dialect":"postgresql",
       "budget":10}],"total_execs":10}|}
  in
  match Telemetry.Json.of_string bad with
  | Error m -> Alcotest.failf "spec json: %s" m
  | Ok j ->
    (match Spec.of_json j with
     | Ok _ -> Alcotest.fail "unknown fuzzer accepted"
     | Error m ->
       Alcotest.(check bool) "error names the fuzzer" true (contains m "afl"))

(* --- planted two-campaign farm ---------------------------------------- *)

let test_scheduler_planted () =
  with_dir "farm-planted" (fun runs_dir ->
    let spec = parse_spec () in
    match Scheduler.run ~runs_dir spec with
    | Error m -> Alcotest.failf "farm: %s" m
    | Ok r ->
      let find id =
        List.find
          (fun c -> c.Scheduler.fc_campaign.Store.sc_id = id)
          r.Scheduler.fr_campaigns
      in
      let hot = find "hot" and cold = find "cold" in
      Alcotest.(check int) "whole farm budget dealt"
        spec.Spec.fs_total_execs r.fr_allocated;
      Alcotest.(check int) "per-round allocations sum to the farm total"
        r.fr_allocated
        (hot.fc_allocated + cold.fc_allocated);
      Alcotest.(check bool)
        (Printf.sprintf "bandit favours the high-yield arm: %d/%d"
           hot.fc_allocated r.fr_allocated)
        true
        (hot.fc_allocated * 100 >= 60 * r.fr_allocated);
      Alcotest.(check int) "farm counter mirrors the allocation"
        hot.fc_allocated
        (Telemetry.Registry.counter_value r.fr_metrics "farm.hot.allocated");
      List.iter
        (fun c ->
           Alcotest.(check bool)
             (c.Scheduler.fc_campaign.Store.sc_id ^ " store written") true
             (c.fc_generation >= 1
              && Store.generations
                   ~dir:
                     (Store.store_dir ~runs_dir c.fc_campaign.Store.sc_id)
                 <> []))
        [ hot; cold ])

(* A farm run is a function of (spec, stores on disk), independent of
   domain scheduling: one domain and two emit the same checkpoint stream
   and end with the same per-campaign counts. *)
let test_scheduler_domain_independent () =
  let farm workers =
    with_dir "farm-det" (fun runs_dir ->
      let checkpoints = ref [] in
      let sink =
        { Telemetry.Sink.emit =
            (function
              | Telemetry.Event.Checkpoint _ as e ->
                checkpoints :=
                  Telemetry.Json.to_string (Telemetry.Event.to_json e)
                  :: !checkpoints
              | _ -> ());
          close = ignore }
      in
      let spec = { (parse_spec ()) with Spec.fs_workers = workers } in
      match Scheduler.run ~sink ~runs_dir spec with
      | Error m -> Alcotest.failf "farm on %d domain(s): %s" workers m
      | Ok r -> (List.rev !checkpoints, r.Scheduler.fr_campaigns))
  in
  let cps1, camps1 = farm 1 and cps2, camps2 = farm 2 in
  Alcotest.(check bool) "checkpoints emitted" true (cps1 <> []);
  Alcotest.(check (list string)) "farm/<id> checkpoints" cps1 cps2;
  List.iter2
    (fun (a : Scheduler.campaign_result) (b : Scheduler.campaign_result) ->
       let id = a.fc_campaign.Store.sc_id in
       List.iter
         (fun (what, f) ->
            Alcotest.(check int) (id ^ " " ^ what) (f a) (f b))
         [ ("rounds", fun c -> c.Scheduler.fc_rounds);
           ("allocated", fun c -> c.Scheduler.fc_allocated);
           ("executed", fun c -> c.Scheduler.fc_executed);
           ("execs_done", fun c -> c.Scheduler.fc_execs_done);
           ("branches", fun c -> c.Scheduler.fc_branches);
           ("coverage_keys", fun c -> c.Scheduler.fc_coverage_keys);
           ("new_keys", fun c -> c.Scheduler.fc_new_keys);
           ("crashes_unique", fun c -> c.Scheduler.fc_crashes_unique);
           ("logic_unique", fun c -> c.Scheduler.fc_logic_unique);
           ("generation", fun c -> c.Scheduler.fc_generation) ];
       Alcotest.(check (list string)) (id ^ " bugs") a.fc_bugs b.fc_bugs)
    camps1 camps2

(* --- resume golden test ------------------------------------------------ *)

let golden_budget = 12_000

let golden_campaign =
  { Store.sc_id = "golden";
    sc_fuzzer = "lego";
    sc_dialect = "postgresql";
    sc_quirks = [];
    sc_feedback = Fuzz.Harness.Both;
    sc_oracles = false;
    sc_exec_cache = 0;
    sc_seed = 5;
    sc_budget = golden_budget }

let golden_factory () =
  match Spec.make ~campaign:golden_campaign ~seed:golden_campaign.sc_seed with
  | Ok f -> f
  | Error m -> Alcotest.failf "factory: %s" m

let keys_of_result (res : Fuzz.Campaign.result) =
  match res.cg_shards with
  | [ sh ] -> Scheduler.coverage_keys sh.Fuzz.Campaign.sh_fuzzer
  | shards -> Alcotest.failf "expected one shard, got %d" (List.length shards)

let is_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (xs, ys)

let test_resume_golden () =
  (* Uninterrupted run at the full budget — the parity baseline. *)
  let full = Fuzz.Campaign.run ~jobs:1 ~execs:golden_budget (golden_factory ()) in
  let keys_full = keys_of_result full in
  with_dir "golden" (fun dir ->
    (* Interrupt at half budget and persist — what fuzz --store does. *)
    let half =
      Fuzz.Campaign.run ~jobs:1 ~execs:(golden_budget / 2) (golden_factory ())
    in
    let sn1 =
      Resume.capture
        ~prior:(Store.empty_snapshot golden_campaign)
        ~campaign:golden_campaign
        ~progress:
          { Store.pr_execs_done = half.cg_snapshot.Fuzz.Driver.st_execs;
            pr_epoch = 0 }
        half
    in
    let g1 = Store.save ~dir sn1 in
    Alcotest.(check int) "first generation" 1 g1;
    let stored_crashes = sn1.Store.sn_crash_keys in
    let stored_logic = sn1.Store.sn_logic_keys in
    match Resume.run ~dir () with
    | Error m -> Alcotest.failf "resume: %s" m
    | Ok o ->
      Alcotest.(check int) "resumed from generation 1" 1 o.Resume.rs_from_generation;
      Alcotest.(check int) "second generation written" 2 o.rs_generation;
      Alcotest.(check int) "fresh epoch" 1 o.rs_epoch;
      Alcotest.(check int) "budget unchanged" golden_budget o.rs_budget;
      Alcotest.(check bool) "budget fully spent" true
        (o.rs_execs_done >= golden_budget);
      Alcotest.(check int) "pre-crash findings preloaded"
        (List.length stored_crashes) o.rs_preloaded_crashes;
      (* Parity: at equal total budget the resumed campaign must reach at
         least 99% of the uninterrupted run's coverage keys. (It often
         reaches MORE — the resumed epoch runs a fresh RNG stream over
         the imported corpus, a diversity bonus — so the bound is
         one-sided.) *)
      let keys_resumed = keys_of_result o.rs_result in
      Alcotest.(check bool)
        (Printf.sprintf "coverage-key parity: resumed=%d vs full=%d"
           keys_resumed keys_full)
        true
        (float_of_int keys_resumed >= 0.99 *. float_of_int keys_full);
      (* Zero re-reported findings: every crash or violation the resumed
         segment reports must be new, i.e. its dedup key absent from the
         store it resumed from. *)
      let seg_crashes =
        List.map (fun (c, _) -> Fuzz.Triage.stack_key c) o.rs_result.cg_crashes
      in
      let seg_logic =
        List.map (fun (v, _) -> Oracle.Violation.key v) o.rs_result.cg_logic
      in
      Alcotest.(check (list string)) "no crash re-reported" []
        (List.filter (fun k -> List.mem k stored_crashes) seg_crashes);
      Alcotest.(check (list string)) "no violation re-reported" []
        (List.filter (fun k -> List.mem k stored_logic) seg_logic);
      (* The new generation extends the old dedup keys in order. *)
      (match Store.load ~dir with
       | Error ws -> Alcotest.failf "reload: %s" (String.concat "; " ws)
       | Ok (sn2, g2, _) ->
         Alcotest.(check int) "newest generation" 2 g2;
         Alcotest.(check bool) "crash keys extended, never rewritten" true
           (is_prefix stored_crashes sn2.Store.sn_crash_keys);
         Alcotest.(check bool) "logic keys extended, never rewritten" true
           (is_prefix stored_logic sn2.Store.sn_logic_keys);
         Alcotest.(check int) "progress accumulated" o.rs_execs_done
           sn2.sn_progress.Store.pr_execs_done);
      (* Crash recovery end-to-end: corrupt the newest generation and the
         next resume must fall back and still complete. *)
      bitflip_file
        (Filename.concat (Store.generation_dir ~dir 2) "corpus.jsonl");
      (match Resume.run ~dir ~execs:200 () with
       | Error m -> Alcotest.failf "resume after corruption: %s" m
       | Ok o2 ->
         Alcotest.(check int) "fell back to generation 1" 1
           o2.Resume.rs_from_generation;
         Alcotest.(check bool) "corruption reported" true
           (o2.rs_warnings <> []);
         Alcotest.(check int) "wrote a fresh generation" 3 o2.rs_generation))

let test_resume_sharded () =
  (* A 2-job campaign stored the way [fuzz --jobs 2 --store] writes it
     (exchange on), then resumed at [~jobs:2] from two copies of its
     store: the resume keeps the exchange on, so both copies replay one
     campaign, and no finding preloaded from the store comes back. *)
  let campaign = { golden_campaign with Store.sc_id = "sharded"; sc_budget = 6000 } in
  let factory =
    match Spec.make ~campaign ~seed:campaign.sc_seed with
    | Ok f -> f
    | Error m -> Alcotest.failf "factory: %s" m
  in
  let first =
    Fuzz.Campaign.run ~jobs:2 ~sync_every:500 ~exchange:Fuzz.Sync.exchange_all
      ~execs:3000 factory
  in
  let sn =
    Resume.capture ~prior:(Store.empty_snapshot campaign) ~campaign
      ~progress:
        { Store.pr_execs_done = first.cg_snapshot.Fuzz.Driver.st_execs;
          pr_epoch = 0 }
      first
  in
  Alcotest.(check bool) "exchanged discoveries reach the store" true
    (sn.Store.sn_seeds <> [] && sn.sn_affinities <> []
     && sn.sn_skeletons <> []);
  Alcotest.(check bool) "findings stored" true (sn.sn_crash_keys <> []);
  let resume dir =
    ignore (Store.save ~dir sn);
    match Resume.run ~jobs:2 ~sync_every:500 ~dir () with
    | Ok o -> o.Resume.rs_result
    | Error m -> Alcotest.failf "resume: %s" m
  in
  let a = with_dir "sharded-a" resume and b = with_dir "sharded-b" resume in
  Alcotest.(check bool) "equal snapshots" true (a.cg_snapshot = b.cg_snapshot);
  let new_keys (r : Fuzz.Campaign.result) =
    ( List.map (fun (c, _) -> Fuzz.Triage.stack_key c) r.cg_crashes,
      List.map (fun (v, _) -> Oracle.Violation.key v) r.cg_logic )
  in
  Alcotest.(check (pair (list string) (list string))) "equal new dedup keys"
    (new_keys a) (new_keys b);
  let crashes, logic = new_keys a in
  Alcotest.(check (list string)) "no crash re-reported" []
    (List.filter (fun k -> List.mem k sn.sn_crash_keys) crashes);
  Alcotest.(check (list string)) "no violation re-reported" []
    (List.filter (fun k -> List.mem k sn.sn_logic_keys) logic)

(* --- worker transport: line-framed JSON round-trip --------------------- *)

module Transport = Farm.Transport
module Lock = Farm.Lock

let small_int = Prop.int_range (-3) 999_999

let gen_opt_err =
  Prop.map
    ~print:(function None -> "None" | Some s -> "Some " ^ s)
    (fun (b, s) -> if b then Some s else None)
    (Prop.pair Prop.bool (pick_str key_pool))

let gen_command =
  Prop.map ~print:Transport.command_to_line
    (fun (shutdown, (c, (e, r))) ->
       if shutdown then Transport.Shutdown
       else Transport.Run { rc_campaign = c; rc_execs = e; rc_round = r })
    (Prop.pair Prop.bool
       (Prop.pair (pick_str key_pool) (Prop.pair small_int small_int)))

let gen_report =
  Prop.map
    ~print:(fun r -> Transport.message_to_line (Transport.Round r))
    (fun ((c, (round, alloc, ex), (ed, br, keys)),
          (((nk, ct), cu, lu), bugs, ((g, rl, rs), fin, err))) ->
      { Transport.rr_campaign = c; rr_round = round; rr_allocated = alloc;
        rr_executed = ex; rr_execs_done = ed; rr_branches = br;
        rr_coverage_keys = keys; rr_new_keys = nk; rr_crashes_total = ct;
        rr_crashes_unique = cu; rr_logic_unique = lu; rr_bugs = bugs;
        rr_generation = g; rr_finished = fin; rr_reloads = rl;
        rr_reload_skipped = rs; rr_error = err })
    (Prop.pair
       (Prop.triple (pick_str key_pool)
          (Prop.triple small_int small_int small_int)
          (Prop.triple small_int small_int small_int))
       (Prop.triple
          (Prop.triple (Prop.pair small_int small_int) small_int small_int)
          (Prop.list ~max_len:4 (pick_str key_pool))
          (Prop.triple
             (Prop.triple small_int small_int small_int)
             Prop.bool gen_opt_err)))

let gen_message =
  Prop.map ~print:Transport.message_to_line
    (fun ((tag, w, n), (s, rep)) ->
       match tag with
       | 0 -> Transport.Hello { h_worker = w; h_pid = n }
       | 1 -> Transport.Heartbeat { hb_worker = w; hb_execs = n }
       | 2 -> Transport.Fatal s
       | _ -> Transport.Round rep)
    (Prop.pair
       (Prop.triple (Prop.int_range 0 3) small_int small_int)
       (Prop.pair (pick_str key_pool) gen_report))

let test_transport_command_roundtrip () =
  Prop.check ~name:"transport: command line round-trip" gen_command (fun c ->
      Transport.command_of_line (Transport.command_to_line c) = Ok c
      (* line framing: the encoder must never emit an embedded newline *)
      && not (String.contains (Transport.command_to_line c) '\n'))

let test_transport_message_roundtrip () =
  Prop.check ~name:"transport: message line round-trip" gen_message (fun m ->
      Transport.message_of_line (Transport.message_to_line m) = Ok m
      && not (String.contains (Transport.message_to_line m) '\n'))

let test_transport_rejects_garbage () =
  List.iter
    (fun line ->
       (match Transport.command_of_line line with
        | Ok _ -> Alcotest.failf "command accepted %S" line
        | Error _ -> ());
       match Transport.message_of_line line with
       | Ok _ -> Alcotest.failf "message accepted %S" line
       | Error _ -> ())
    [ ""; "bogus"; "{}"; {|{"cmd":"fly"}|}; {|{"msg":"hello"}|};
      {|[1,2,3]|}; {|{"cmd":42}|} ]

(* --- advisory locks ---------------------------------------------------- *)

let test_lock_basic () =
  with_dir "lock" (fun dir ->
    let path = Filename.concat dir "L" in
    Alcotest.(check bool) "unlocked initially" false (Lock.is_locked path);
    (match Lock.acquire ~kind:Lock.Exclusive path with
     | None -> Alcotest.fail "exclusive acquire failed"
     | Some l ->
       Alcotest.(check bool) "held" true (Lock.is_locked path);
       Lock.release l);
    Alcotest.(check bool) "released" false (Lock.is_locked path);
    match
      (Lock.acquire ~kind:Lock.Shared path, Lock.acquire ~kind:Lock.Shared path)
    with
    | Some a, Some b ->
      Alcotest.(check bool) "shared locks coexist" true (Lock.is_locked path);
      Lock.release a;
      Alcotest.(check bool) "still marked while one holder remains" true
        (Lock.is_locked path);
      Lock.release b;
      Alcotest.(check bool) "clear once the last holder releases" false
        (Lock.is_locked path)
    | _ -> Alcotest.fail "shared acquire failed")

let test_lock_with_exclusive () =
  with_dir "lock-we" (fun dir ->
    let path = Filename.concat dir "L" in
    let out =
      Lock.with_exclusive path (fun () ->
          Alcotest.(check bool) "held inside" true (Lock.is_locked path);
          17)
    in
    Alcotest.(check int) "body result returned" 17 out;
    Alcotest.(check bool) "released on exit" false (Lock.is_locked path);
    (try
       Lock.with_exclusive path (fun () -> failwith "boom")
     with Failure _ -> ());
    Alcotest.(check bool) "released on exception" false (Lock.is_locked path))

(* Keep-3 pruning must spare a generation another process is reading:
   simulate the concurrent reader with a shared read-mark, race several
   saves past it, then release and watch the next save retire it. *)
let test_prune_lock_aware () =
  with_dir "prune-lock" (fun dir ->
    Alcotest.(check int) "gen 1 written" 1
      (Store.save ~keep:10 ~dir (sample_snapshot 1));
    let mark =
      match Lock.acquire ~kind:Lock.Shared (Store.generation_lock_path ~dir 1)
      with
      | Some l -> l
      | None -> Alcotest.fail "read-mark acquire failed"
    in
    for i = 2 to 6 do
      ignore (Store.save ~keep:3 ~dir (sample_snapshot i))
    done;
    let gens = Store.generations ~dir in
    Alcotest.(check bool) "read-marked generation survives keep-3" true
      (List.mem 1 gens);
    Alcotest.(check bool) "unmarked old generations pruned" false
      (List.mem 2 gens);
    Lock.release mark;
    ignore (Store.save ~keep:3 ~dir (sample_snapshot 7));
    let gens = Store.generations ~dir in
    Alcotest.(check bool) "released generation pruned by the next save" false
      (List.mem 1 gens);
    Alcotest.(check int) "keep-3 holds afterwards" 3 (List.length gens))

(* --- worker namespaces and promotion ----------------------------------- *)

let test_worker_namespace_promote () =
  with_dir "wns" (fun dir ->
    let g = Store.save ~worker:1 ~dir snap_a in
    Alcotest.(check int) "worker generation numbered from 1" 1 g;
    Alcotest.(check (list int)) "invisible to plain listings" []
      (Store.generations ~dir);
    Alcotest.(check bool) "listed as a worker generation" true
      (List.mem (1, 1) (Store.worker_generations ~dir));
    (match Store.load ~dir with
     | Ok _ -> Alcotest.fail "plain load saw an unpromoted worker generation"
     | Error _ -> ());
    let digests_before =
      Store.manifest_digests (Store.worker_generation_dir ~dir ~worker:1 1)
    in
    Alcotest.(check bool) "manifest digests readable" true
      (digests_before <> None);
    (match Store.promote ~dir ~worker:1 1 with
     | Error m -> Alcotest.failf "promote: %s" m
     | Ok g' ->
       Alcotest.(check int) "renamed into place under the same number" 1 g');
    Alcotest.(check (list int)) "now visible" [ 1 ] (Store.generations ~dir);
    Alcotest.(check bool) "digests unchanged by rename promotion" true
      (digests_before = Store.manifest_digests (Store.generation_dir ~dir 1));
    match Store.load ~dir with
    | Error ws -> Alcotest.failf "load: %s" (String.concat "; " ws)
    | Ok (sn, g', _) ->
      Alcotest.(check int) "loaded the promoted generation" 1 g';
      Alcotest.(check bool) "snapshot intact" true
        (Store.snapshot_equal snap_a sn))

let test_promote_conflict_merges () =
  with_dir "wmerge" (fun dir ->
    with_dir "wmerge2" (fun other ->
      (* Forge the race the store lock exists for: a worker generation
         and a plain generation carrying the same number. *)
      Alcotest.(check int) "worker gen 1" 1 (Store.save ~worker:1 ~dir snap_a);
      Alcotest.(check int) "twin gen 1" 1 (Store.save ~dir:other snap_b);
      Sys.rename (Store.generation_dir ~dir:other 1)
        (Store.generation_dir ~dir 1);
      match Store.promote ~dir ~worker:1 1 with
      | Error m -> Alcotest.failf "promote: %s" m
      | Ok g ->
        Alcotest.(check int) "conflict merged into a fresh generation" 2 g;
        Alcotest.(check (list (pair int int))) "worker namespace drained" []
          (Store.worker_generations ~dir);
        (match Store.load ~dir with
         | Error ws -> Alcotest.failf "load: %s" (String.concat "; " ws)
         | Ok (sn, g', _) ->
           Alcotest.(check int) "newest is the merge" 2 g';
           Alcotest.(check int) "dedup keys are the union" 5
             (List.length sn.Store.sn_crash_keys);
           Alcotest.(check bool) "merge keeps the twin's keys a prefix" true
             (sn.sn_crash_keys = snap_b.Store.sn_crash_keys);
           Alcotest.(check int) "progress is the pointwise max" 500
             sn.sn_progress.Store.pr_execs_done;
           Alcotest.(check int) "seed union deduplicated" 4
             (List.length sn.sn_seeds))))

let test_discard_worker_generations () =
  with_dir "wdiscard" (fun dir ->
    ignore (Store.save ~worker:1 ~dir snap_a);
    ignore (Store.save ~worker:2 ~dir snap_b);
    Store.discard_worker_generations ~dir ~worker:1;
    Alcotest.(check (list (pair int int))) "only worker 2's remains"
      [ (2, 2) ]
      (Store.worker_generations ~dir);
    Store.discard_worker_generations ~dir ~worker:2;
    Alcotest.(check (list (pair int int))) "namespace empty" []
      (Store.worker_generations ~dir))

(* --- multi-process farm ------------------------------------------------ *)

(* The tests below spawn the real CLI: dune runs the suite from the
   build directory, so the binary sits one level up. *)
let legofuzz = "../bin/legofuzz.exe"

let real_worker ~runs_dir k =
  [| legofuzz; "worker"; "--worker-id"; string_of_int k; "--runs-dir";
     runs_dir; "--heartbeat-execs"; "50" |]

let process_spec () =
  let text =
    {|{"campaigns":[
        {"id":"hot","fuzzer":"lego","dialect":"postgresql","feedback":"both",
         "budget":4000,"seed":7},
        {"id":"cold","fuzzer":"sqlsmith","dialect":"postgresql",
         "budget":4000,"seed":9}],
       "total_execs":4000,"round_execs":1000,"workers":2,
       "policy":"bandit","ucb_c":0.3}|}
  in
  match Telemetry.Json.of_string text with
  | Error m -> Alcotest.failf "spec json: %s" m
  | Ok j ->
    (match Spec.of_json j with
     | Error m -> Alcotest.failf "spec: %s" m
     | Ok spec -> spec)

let no_dups l = List.length l = List.length (List.sort_uniq compare l)

(* Zero duplicate findings after merge: every dedup key in the final
   store appears exactly once, however many worker generations fed it. *)
let check_store_dedup ~runs_dir id =
  let dir = Store.store_dir ~runs_dir id in
  match Store.load ~dir with
  | Error ws -> Alcotest.failf "%s store: %s" id (String.concat "; " ws)
  | Ok (sn, _, _) ->
    Alcotest.(check bool) (id ^ ": crash keys duplicate-free") true
      (no_dups sn.Store.sn_crash_keys);
    Alcotest.(check bool) (id ^ ": logic keys duplicate-free") true
      (no_dups sn.Store.sn_logic_keys)

(* A campaign id names a directory under runs/: ids that climb out of
   it must be refused before anything touches the file system. The CLI
   runs in work/ inside a scratch root, so runs/../x lands in work/ and
   runs/../../x in the root itself. *)
let test_cli_rejects_escaping_ids () =
  let exe = Filename.concat (Sys.getcwd ()) legofuzz in
  with_dir "cli-id" (fun root ->
    let work = Filename.concat root "work" in
    Store.ensure_dir work;
    List.iter
      (fun (label, args) ->
         let code =
           Sys.command
             (Printf.sprintf "cd %s && %s %s >/dev/null 2>&1"
                (Filename.quote work) (Filename.quote exe)
                (String.concat " " (List.map Filename.quote args)))
         in
         Alcotest.(check bool) (label ^ ": non-zero exit") true (code <> 0);
         let ls d = List.sort compare (Array.to_list (Sys.readdir d)) in
         Alcotest.(check (list string)) (label ^ ": scratch root untouched")
           [ "work" ] (ls root);
         Alcotest.(check bool) (label ^ ": nothing but runs/ in cwd") true
           (List.for_all (fun e -> e = "runs") (ls work)))
      [ ("resume ..", [ "resume"; "../escaped-campaign" ]);
        ("resume ../..", [ "resume"; "../../escaped-campaign" ]);
        ("fuzz --store ..",
         [ "fuzz"; "-n"; "100"; "--store"; "../escaped-campaign" ]) ])

let counter r name = Telemetry.Registry.counter_value r.Scheduler.fr_metrics name

(* SIGKILL a worker mid-round: the farm must finish the full budget,
   respawn the slot, and re-report nothing. *)
let test_processes_sigkill_recovery () =
  with_dir "farm-kill" (fun runs_dir ->
    let spec = process_spec () in
    let killed = ref None in
    let on_heartbeat ~worker ~pid =
      if !killed = None && pid > 0 then begin
        killed := Some worker;
        Unix.kill pid Sys.sigkill
      end
    in
    match
      Scheduler.run_processes ~runs_dir
        ~worker_cmd:(real_worker ~runs_dir)
        ~on_heartbeat ~workers:2 spec
    with
    | Error m -> Alcotest.failf "farm: %s" m
    | Ok r ->
      Alcotest.(check bool) "a worker was SIGKILLed mid-round" true
        (!killed <> None);
      Alcotest.(check int) "whole farm budget still dealt"
        spec.Spec.fs_total_execs r.fr_allocated;
      let restarts =
        counter r "farm.worker.1.restarts" + counter r "farm.worker.2.restarts"
      in
      Alcotest.(check bool) "the killed slot was restarted" true
        (restarts >= 1);
      List.iter
        (fun c ->
           check_store_dedup ~runs_dir c.Scheduler.fc_campaign.Store.sc_id)
        r.fr_campaigns)

(* A wedged worker (answers hello, then never heartbeats) must be
   detected by heartbeat age and quarantined; the other slot finishes
   the farm. *)
let test_processes_wedged_worker () =
  with_dir "farm-wedge" (fun runs_dir ->
    let spec = process_spec () in
    let worker_cmd k =
      if k = 1 then
        [| "/bin/sh"; "-c";
           {|echo '{"msg":"hello","worker":1,"pid":0}'; exec sleep 600|} |]
      else real_worker ~runs_dir k
    in
    match
      Scheduler.run_processes ~runs_dir ~worker_cmd ~heartbeat_timeout:1.0
        ~max_restarts:0 ~workers:2 spec
    with
    | Error m -> Alcotest.failf "farm: %s" m
    | Ok r ->
      Alcotest.(check int) "surviving worker dealt the whole budget"
        spec.Spec.fs_total_execs r.fr_allocated;
      Alcotest.(check bool) "wedged slot restarted then retired" true
        (counter r "farm.worker.1.restarts" >= 1);
      Alcotest.(check bool) "missed heartbeats reported" true
        (List.exists (fun w -> contains w "worker 1") r.fr_warnings))

(* A worker that talks garbage on its control channel is quarantined —
   the farm carries on instead of aborting. *)
let test_processes_malformed_worker () =
  with_dir "farm-garbage" (fun runs_dir ->
    let spec = process_spec () in
    let worker_cmd k =
      if k = 1 then
        [| "/bin/sh"; "-c"; "while :; do echo bogus; sleep 0.1; done" |]
      else real_worker ~runs_dir k
    in
    match
      Scheduler.run_processes ~runs_dir ~worker_cmd ~max_restarts:0 ~workers:2
        spec
    with
    | Error m -> Alcotest.failf "farm: %s" m
    | Ok r ->
      Alcotest.(check int) "farm completed despite the rogue worker"
        spec.Spec.fs_total_execs r.fr_allocated;
      Alcotest.(check bool) "malformed line reported" true
        (List.exists (fun w -> contains w "malformed") r.fr_warnings))

(* Equal-budget parity: the process backend must reach what the
   in-process farm reaches on the same spec — same budget dealt, ≥99%
   of the coverage keys — and merge without duplicate findings. *)
let test_processes_parity () =
  with_dir "farm-par-a" (fun dir_a ->
    with_dir "farm-par-b" (fun dir_b ->
      let spec = process_spec () in
      let inproc =
        match Scheduler.run ~runs_dir:dir_a spec with
        | Error m -> Alcotest.failf "in-process farm: %s" m
        | Ok r -> r
      in
      let procs =
        match
          Scheduler.run_processes ~runs_dir:dir_b
            ~worker_cmd:(real_worker ~runs_dir:dir_b) ~workers:2 spec
        with
        | Error m -> Alcotest.failf "process farm: %s" m
        | Ok r -> r
      in
      Alcotest.(check int) "equal budgets dealt" inproc.Scheduler.fr_allocated
        procs.Scheduler.fr_allocated;
      let keys r =
        List.fold_left
          (fun acc c -> acc + c.Scheduler.fc_coverage_keys)
          0 r.Scheduler.fr_campaigns
      in
      let ka = keys inproc and kb = keys procs in
      Alcotest.(check bool)
        (Printf.sprintf "process farm reaches >= 99%% of keys: %d vs %d" kb ka)
        true
        (kb * 100 >= 99 * ka);
      Alcotest.(check bool) "reload short-circuit hit at least once" true
        (counter procs "farm.store.reload_skipped" >= 1);
      List.iter
        (fun c ->
           check_store_dedup ~runs_dir:dir_b
             c.Scheduler.fc_campaign.Store.sc_id)
        procs.fr_campaigns))

let suite =
  [ Alcotest.test_case "roundtrip: meta" `Quick test_roundtrip_meta;
    Alcotest.test_case "roundtrip: corpus" `Quick test_roundtrip_corpus;
    Alcotest.test_case "roundtrip: affinities" `Quick
      test_roundtrip_affinities;
    Alcotest.test_case "roundtrip: skeletons" `Quick test_roundtrip_skeletons;
    Alcotest.test_case "roundtrip: virgin maps" `Quick test_roundtrip_maps;
    Alcotest.test_case "roundtrip: dedup keys" `Quick test_roundtrip_dedup;
    Alcotest.test_case "roundtrip: full snapshot" `Quick test_roundtrip_full;
    Alcotest.test_case "store: incremental sections" `Quick
      test_incremental_sections;
    Alcotest.test_case "store: stale render cache" `Quick
      test_stale_cache_guard;
    Alcotest.test_case "store: fnv_feed laws" `Quick test_fnv_feed;
    Alcotest.test_case "store: bitmap sections" `Quick test_bitmap_render;
    Alcotest.test_case "recovery: truncated section" `Quick
      test_recovery_truncated;
    Alcotest.test_case "recovery: bit flip" `Quick test_recovery_bitflip;
    Alcotest.test_case "recovery: missing section" `Quick
      test_recovery_missing_section;
    Alcotest.test_case "recovery: torn manifest" `Quick
      test_recovery_torn_manifest;
    Alcotest.test_case "recovery: stray temp files ignored" `Quick
      test_recovery_stray_tmp_ignored;
    Alcotest.test_case "recovery: all generations corrupt" `Quick
      test_recovery_all_corrupt;
    Alcotest.test_case "recovery: save after corruption" `Quick
      test_recovery_save_after_corruption;
    Alcotest.test_case "bandit: deterministic" `Quick
      test_bandit_deterministic;
    Alcotest.test_case "bandit: budget conservation" `Quick
      test_bandit_conservation;
    Alcotest.test_case "bandit: explores fresh arms" `Quick
      test_bandit_explores_fresh_arms;
    Alcotest.test_case "bandit: planted two arms" `Quick
      test_bandit_planted_two_arms;
    Alcotest.test_case "bandit: inactive arm" `Quick test_bandit_inactive_arm;
    Alcotest.test_case "spec: json roundtrip" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "spec: unknown fuzzer rejected" `Quick
      test_spec_rejects_unknown_fuzzer;
    Alcotest.test_case "transport: command round-trip" `Quick
      test_transport_command_roundtrip;
    Alcotest.test_case "transport: message round-trip" `Quick
      test_transport_message_roundtrip;
    Alcotest.test_case "transport: garbage rejected" `Quick
      test_transport_rejects_garbage;
    Alcotest.test_case "lock: acquire/release" `Quick test_lock_basic;
    Alcotest.test_case "lock: with_exclusive" `Quick test_lock_with_exclusive;
    Alcotest.test_case "store: prune is lock-aware" `Quick
      test_prune_lock_aware;
    Alcotest.test_case "store: worker namespace promotion" `Quick
      test_worker_namespace_promote;
    Alcotest.test_case "store: promote conflict merges" `Quick
      test_promote_conflict_merges;
    Alcotest.test_case "store: discard worker generations" `Quick
      test_discard_worker_generations;
    Alcotest.test_case "farm: planted two campaigns" `Slow
      test_scheduler_planted;
    Alcotest.test_case "farm: independent of domain count" `Slow
      test_scheduler_domain_independent;
    Alcotest.test_case "resume: golden parity" `Slow test_resume_golden;
    Alcotest.test_case "resume: sharded, exchange on" `Slow
      test_resume_sharded;
    Alcotest.test_case "processes: SIGKILL recovery" `Slow
      test_processes_sigkill_recovery;
    Alcotest.test_case "processes: wedged worker quarantined" `Slow
      test_processes_wedged_worker;
    Alcotest.test_case "processes: malformed worker quarantined" `Slow
      test_processes_malformed_worker;
    Alcotest.test_case "processes: equal-budget parity" `Slow
      test_processes_parity;
    Alcotest.test_case "cli: path-escaping campaign ids rejected" `Quick
      test_cli_rejects_escaping_ids ]
