(* Tests for the AFL-style coverage bitmap and the site registry. *)

module B = Coverage.Bitmap

let test_hit_and_count () =
  let m = B.create () in
  Alcotest.(check int) "empty" 0 (B.count_nonzero m);
  B.hit m 5;
  B.hit m 5;
  B.hit m 77;
  Alcotest.(check int) "two cells" 2 (B.count_nonzero m);
  Alcotest.(check bool) "is_set" true (B.is_set m 5);
  Alcotest.(check bool) "not set" false (B.is_set m 6)

let test_reset () =
  let m = B.create () in
  B.hit m 1;
  B.reset m;
  Alcotest.(check int) "cleared" 0 (B.count_nonzero m)

let test_hit_wraps () =
  let m = B.create () in
  B.hit m (B.size + 3);
  Alcotest.(check bool) "wrapped" true (B.is_set m 3)

let test_buckets () =
  Alcotest.(check int) "0" 0 (B.bucket 0);
  Alcotest.(check int) "1" 1 (B.bucket 1);
  Alcotest.(check int) "2" 2 (B.bucket 2);
  Alcotest.(check int) "3" 4 (B.bucket 3);
  Alcotest.(check int) "5" 8 (B.bucket 5);
  Alcotest.(check int) "10" 16 (B.bucket 10);
  Alcotest.(check int) "20" 32 (B.bucket 20);
  Alcotest.(check int) "100" 64 (B.bucket 100);
  Alcotest.(check int) "200" 128 (B.bucket 200)

let test_merge_new_coverage () =
  let virgin = B.create () in
  let run = B.create () in
  B.hit run 10;
  Alcotest.(check int) "first merge news" 1 (B.merge_into ~virgin run);
  Alcotest.(check int) "re-merge no news" 0 (B.merge_into ~virgin run);
  (* A different hit count bucket of the same cell is new coverage. *)
  B.hit run 10;
  B.hit run 10;
  Alcotest.(check int) "bucket change is news" 1 (B.merge_into ~virgin run)

let test_merge_counts_cells () =
  let virgin = B.create () in
  let run = B.create () in
  B.hit run 1;
  B.hit run 2;
  B.hit run 3;
  Alcotest.(check int) "three new" 3 (B.merge_into ~virgin run);
  Alcotest.(check int) "virgin count" 3 (B.count_nonzero virgin)

(* Virgin-map equality: no bits in either direction of the diff. *)
let virgin_equal a b = B.diff a ~since:b = 0 && B.diff b ~since:a = 0

(* A shard's virgin map built from one execution history (a list of hit
   sites, possibly repeating — repeats exercise the count buckets). *)
let virgin_of hits =
  let m = B.create () in
  List.iter (B.hit m) hits;
  let v = B.create () in
  ignore (B.merge_into ~virgin:v m);
  v

let joined a b =
  let g = B.snapshot a in
  ignore (B.merge ~into:g b);
  g

(* The cross-shard merge is a semilattice join: 1000 random three-shard
   histories checked for commutativity, associativity and idempotence
   via the in-tree Prop harness (shrinking gives a minimal history on
   failure). *)
let hits_arb = Reprutil.Prop.(list ~max_len:30 (int_range 0 2000))

let test_merge_commutative () =
  Reprutil.Prop.check ~count:1000 ~name:"bitmap merge commutative"
    (Reprutil.Prop.pair hits_arb hits_arb)
    (fun (ha, hb) ->
       let va = virgin_of ha and vb = virgin_of hb in
       virgin_equal (joined va vb) (joined vb va))

let test_merge_associative () =
  Reprutil.Prop.check ~count:1000 ~name:"bitmap merge associative"
    (Reprutil.Prop.triple hits_arb hits_arb hits_arb)
    (fun (ha, hb, hc) ->
       let va = virgin_of ha
       and vb = virgin_of hb
       and vc = virgin_of hc in
       virgin_equal (joined (joined va vb) vc) (joined va (joined vb vc)))

let test_merge_idempotent () =
  Reprutil.Prop.check ~count:1000 ~name:"bitmap merge idempotent" hits_arb
    (fun hits ->
       let v = virgin_of hits in
       let before = B.snapshot v in
       B.merge ~into:v (B.snapshot v) = 0 && virgin_equal v before)

let test_merge_then_merge_into_no_news () =
  (* After a shard's virgin map is folded into the global map, replaying
     any of that shard's executions against the global map is not news. *)
  let exec = B.create () in
  B.hit exec 11;
  B.hit exec 11;
  B.hit exec 42;
  let shard = B.create () in
  ignore (B.merge_into ~virgin:shard exec);
  let global = B.create () in
  ignore (B.merge ~into:global shard);
  Alcotest.(check int) "cross-shard merge covers the execution" 0
    (B.merge_into ~virgin:global exec)

let test_snapshot_diff () =
  let v = B.create () in
  let exec = B.create () in
  B.hit exec 100;
  ignore (B.merge_into ~virgin:v exec);
  let before = B.snapshot v in
  Alcotest.(check int) "no drift yet" 0 (B.diff v ~since:before);
  let exec2 = B.create () in
  B.hit exec2 200;
  B.hit exec2 300;
  ignore (B.merge_into ~virgin:v exec2);
  Alcotest.(check int) "two new cells since snapshot" 2
    (B.diff v ~since:before);
  (* the snapshot is detached: mutating the live map leaves it alone *)
  Alcotest.(check int) "snapshot unchanged" 1 (B.count_nonzero before)

let test_hash_sensitivity () =
  let a = B.create () in
  let b = B.create () in
  Alcotest.(check bool) "empty maps equal hash" true (B.hash a = B.hash b);
  B.hit a 9;
  Alcotest.(check bool) "diverges" false (B.hash a = B.hash b);
  B.hit b 9;
  Alcotest.(check bool) "same again" true (B.hash a = B.hash b)

let test_probe_spreads () =
  let m = B.create () in
  for site = 0 to 9 do
    for key = 0 to 9 do
      B.probe m ~site ~key
    done
  done;
  (* 100 probes should land on (nearly) 100 distinct cells *)
  Alcotest.(check bool) "good spread" true (B.count_nonzero m > 90)

let test_sites_registry () =
  let a = Coverage.Sites.register "test.site.alpha" in
  let b = Coverage.Sites.register "test.site.beta" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "idempotent" a
    (Coverage.Sites.register "test.site.alpha");
  Alcotest.(check (option string)) "name_of" (Some "test.site.beta")
    (Coverage.Sites.name_of b)

(* The historical probe formula folds the site id in linearly (xor of two
   products), so distinct (site, key) pairs alias onto one slot. Find a
   real collision by brute force, then show {!B.mix} separates it — the
   regression that motivated giving new slot families their own mixer. *)
let old_probe_slot ~site ~key =
  let h = (site * 0x9E3779B1) lxor ((key + 1) * 0x85EBCA6B) in
  (h lxor (h lsr 15)) mod B.size

let test_probe_aliasing_fixed () =
  let seen = Hashtbl.create 4096 in
  let found = ref None in
  (try
     for site = 0 to 511 do
       for key = 0 to 511 do
         let slot = old_probe_slot ~site ~key in
         match Hashtbl.find_opt seen slot with
         | Some (site', key') when (site', key') <> (site, key) ->
           if
             B.mix ~site ~key land (B.size - 1)
             <> B.mix ~site:site' ~key:key' land (B.size - 1)
           then begin
             found := Some ((site', key'), (site, key));
             raise Exit
           end
         | _ -> Hashtbl.replace seen slot (site, key)
       done
     done
   with Exit -> ());
  match !found with
  | None ->
    Alcotest.fail
      "no old-formula collision in 512x512 — formula changed under the test?"
  | Some ((s1, k1), (s2, k2)) ->
    Alcotest.(check int)
      (Printf.sprintf "(%d,%d) and (%d,%d) alias under the old formula" s1
         k1 s2 k2)
      (old_probe_slot ~site:s1 ~key:k1)
      (old_probe_slot ~site:s2 ~key:k2);
    Alcotest.(check bool) "mix separates the aliased pair" true
      (B.mix ~site:s1 ~key:k1 land (B.size - 1)
       <> B.mix ~site:s2 ~key:k2 land (B.size - 1))

let test_count_nonzero_in () =
  let m = B.create () in
  let half = B.size / 2 in
  B.hit m 3;
  B.hit m 40;
  B.hit m half;
  B.hit m (B.size - 1);
  Alcotest.(check int) "lower half" 2 (B.count_nonzero_in m ~lo:0 ~hi:half);
  Alcotest.(check int) "upper half" 2
    (B.count_nonzero_in m ~lo:half ~hi:B.size);
  Alcotest.(check int) "whole range matches count_nonzero"
    (B.count_nonzero m)
    (B.count_nonzero_in m ~lo:0 ~hi:B.size)

let test_count_news_matches_merge () =
  let virgin = B.create () in
  let seeded = B.create () in
  B.hit seeded 7;
  ignore (B.merge_into ~virgin seeded);
  let exec = B.create () in
  B.hit exec 7;
  (* same bucket: not news *)
  B.hit exec 21;
  B.hit exec 22;
  let before = B.snapshot virgin in
  Alcotest.(check int) "counted without mutating" 2
    (B.count_news ~virgin exec);
  Alcotest.(check int) "virgin untouched" 0 (B.diff virgin ~since:before);
  Alcotest.(check int) "merge_into agrees" 2 (B.merge_into ~virgin exec);
  Alcotest.(check int) "after the merge, no news left" 0
    (B.count_news ~virgin exec)

(* Grammar-map layout: rule slots fill the lower half (cell = site id),
   pair slots the upper half, so one bitmap carries both families and
   counts them apart. *)
let test_grammar_regions () =
  let g = B.create () in
  let region = B.size / 2 in
  Coverage.Grammar.record g ~site:3 ~parent:0;
  Coverage.Grammar.record g ~site:3 ~parent:1;
  Coverage.Grammar.record g ~site:5 ~parent:3;
  Coverage.Grammar.record g ~site:5 ~parent:3;
  (* repeat: no new cells *)
  Alcotest.(check int) "distinct rules" 2 (Coverage.Grammar.rules g);
  Alcotest.(check int) "distinct rule pairs" 3 (Coverage.Grammar.pairs g);
  Alcotest.(check int) "rule slots stay in the lower half"
    (Coverage.Grammar.rules g)
    (B.count_nonzero_in g ~lo:0 ~hi:region);
  Alcotest.(check int) "pair slots stay in the upper half"
    (Coverage.Grammar.pairs g)
    (B.count_nonzero_in g ~lo:region ~hi:B.size);
  Alcotest.(check int) "the two regions partition the map"
    (B.count_nonzero g)
    (Coverage.Grammar.rules g + Coverage.Grammar.pairs g)

let test_sites_family_limit () =
  let fam = Coverage.Sites.make_family ~label:"test" ~limit:4 in
  let ids =
    List.map
      (fun n -> Coverage.Sites.register_in fam n)
      [ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check int) "distinct ids up to the limit" 4
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "re-registering at capacity is fine"
    (List.hd ids)
    (Coverage.Sites.register_in fam "a");
  Alcotest.check_raises "overflow fails loudly instead of wrapping"
    (Invalid_argument
       "Coverage.Sites.register \"e\": 5 test sites exceed the 4-cell \
        bitmap domain")
    (fun () -> ignore (Coverage.Sites.register_in fam "e"))

let test_sites_families_independent () =
  (* the grammar family never perturbs engine edge-site ids: registering
     a grammar site leaves the edge counter alone, and both families
     allocate from their own zero-based sequence *)
  let edge_count = Coverage.Sites.count () in
  ignore
    (Coverage.Sites.register_in Coverage.Sites.grammar "test.gram.site");
  Alcotest.(check int) "edge family unmoved" edge_count
    (Coverage.Sites.count ());
  Alcotest.(check bool) "grammar ids stay inside the rule region" true
    (Coverage.Sites.count_in Coverage.Sites.grammar <= B.size / 2)

let prop_merge_monotone =
  QCheck.Test.make ~name:"virgin count monotone under merges" ~count:100
    QCheck.(list (int_range 0 1000))
    (fun hits ->
       let virgin = B.create () in
       let run = B.create () in
       let last = ref 0 in
       List.for_all
         (fun h ->
            B.hit run h;
            ignore (B.merge_into ~virgin run);
            let now = B.count_nonzero virgin in
            let ok = now >= !last in
            last := now;
            ok)
         hits)

(* [cells] hits over the first [span] cells: past [B.dirty_cap]
   distinct cells the map saturates (compacts to [C_full]), and a small
   span makes two maps overlap. *)
let random_map rng ~cells ~span =
  let m = B.create () in
  for _ = 1 to cells do
    B.hit m (Random.State.int rng span)
  done;
  m

(* The reference is a scratch map: [load_compact], then [merge]. Equal
   compacts of the targets mean equal cells in equal touch order. *)
let prop_merge_compact =
  QCheck.Test.make ~name:"merge_compact = load_compact + merge" ~count:300
    QCheck.(
      quad small_nat
        (oneofl [ 0; 40; 600; 6000 ])
        (oneofl [ 0; 40; 600; 6000 ])
        (oneofl [ 256; 4096; B.size ]))
    (fun (seed, src_cells, into_cells, span) ->
       let rng = Random.State.make [| seed |] in
       let c = B.compact (random_map rng ~cells:src_cells ~span) in
       let target () =
         random_map (Random.State.make [| seed + 1 |]) ~cells:into_cells ~span
       in
       let want = target () and got = target () in
       let scratch = B.create () in
       B.load_compact ~into:scratch c;
       let want_news = B.merge ~into:want scratch in
       B.merge_compact ~into:got c = want_news
       && B.compact got = B.compact want)

(* [hash]'s reference: every cell of the whole buffer in ascending
   order, counts rebuilt from the hit list. *)
let scan_hash hits =
  let counts = Array.make B.size 0 in
  List.iter
    (fun i ->
       let i = i land (B.size - 1) in
       counts.(i) <- min 255 (counts.(i) + 1))
    hits;
  let h = ref 0xcbf29ce484222325L in
  Array.iteri
    (fun i c ->
       if c <> 0 then
         h :=
           Int64.mul
             (Int64.logxor !h (Int64.of_int ((i lsl 8) lor B.bucket c)))
             0x100000001b3L)
    counts;
  !h

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Past [B.dirty_cap] distinct cells (6000 hits over the whole map) the
   map saturates; a small span repeats cells into every count bucket.
   One map is reused across the orders, so [hash]'s scratch carries
   over from a different history each time. *)
let test_prop_hash_order () =
  Reprutil.Prop.check ~count:1000
    ~name:"hash = ascending scan, whatever the touch order"
    Reprutil.Prop.(
      triple (int_range 0 1_000_000) (int_range 0 4) (int_range 0 2))
    (fun (seed, c, s) ->
       let cells = [| 0; 40; 300; 1000; 6000 |].(c) in
       let span = [| 256; 4096; B.size |].(s) in
       let rng = Random.State.make [| seed |] in
       let hits = List.init cells (fun _ -> Random.State.int rng span) in
       let m = B.create () in
       let hash_of hs =
         B.reset m;
         List.iter (B.hit m) hs;
         B.hash m
       in
       let want = scan_hash hits in
       hash_of hits = want
       && hash_of (List.rev hits) = want
       && hash_of (shuffle rng hits) = want)

(* --- grammar maps rebuilt from memoised statement traces ------------ *)

module GM = Fuzz.Grammar_memo
module P = Sqlparser.Parser

(* Everything observable about a grammar map: its cells in touch order
   (a saturated map compacts to its whole buffer, so saturation shows
   too), the nonzero count, the hash, and the rule and pair counts. *)
let grammar_view g =
  ( B.compact g, B.count_nonzero g, B.hash g, Coverage.Grammar.rules g,
    Coverage.Grammar.pairs g )

(* The reference: a whole-testcase parse of the printed testcase. *)
let parsed_view tc =
  let g = B.create () in
  let ok =
    Result.is_ok
      (P.parse_testcase ~grammar:g (Sqlcore.Sql_printer.testcase tc))
  in
  (ok, grammar_view g)

let memo_view memo tc =
  let g = B.create () in
  let ok = GM.fill memo g (List.map Sqlcore.Sql_printer.stmt tc) in
  (ok, grammar_view g)

let memo_counts reg =
  ( Telemetry.Registry.counter_value reg "grammar.memo.hits",
    Telemetry.Registry.counter_value reg "grammar.memo.misses" )

let generated_testcase ~dialect ~seed =
  let profile = List.nth Dialects.Registry.all dialect in
  let types = Array.of_list (Minidb.Profile.types profile) in
  let rng = Reprutil.Rng.create seed in
  let schema = Lego.Sym_schema.empty () in
  let n = 1 + Reprutil.Rng.int rng 8 in
  let rec go k acc =
    if k = n then List.rev acc
    else begin
      let ty = types.(Reprutil.Rng.int rng (Array.length types)) in
      let s = Lego.Generator.stmt rng schema ty in
      Lego.Sym_schema.apply schema s;
      go (k + 1) (s :: acc)
    end
  in
  go 0 []

let sql_testcase sql = P.parse_testcase_exn sql

(* [n] distinct one-statement testcases. *)
let distinct_selects ~from n =
  List.init n (fun i -> sql_testcase (Printf.sprintf "SELECT %d" (from + i)))

let test_memo_equivalence () =
  Reprutil.Prop.check ~count:300 ~name:"grammar memo = whole-testcase parse"
    Reprutil.Prop.(
      pair (int_range 0 (List.length Dialects.Registry.all - 1))
        (int_range 1 1_000_000))
    (fun (dialect, seed) ->
       let tc = generated_testcase ~dialect ~seed in
       let want = parsed_view tc in
       let reg = Telemetry.Registry.create () in
       let memo = GM.create reg in
       let cold = memo_view memo tc in
       let _, misses = memo_counts reg in
       let warm = memo_view memo tc in
       let hits, misses' = memo_counts reg in
       fst want
       && cold = want && warm = want
       && misses > 0
       && misses' = misses
       && hits = List.length tc)

let test_memo_after_eviction () =
  let cases =
    List.init 40 (fun i ->
        generated_testcase ~dialect:(i mod 4) ~seed:(7919 * (i + 1)))
  in
  let wants = List.map parsed_view cases in
  let reg = Telemetry.Registry.create () in
  let memo = GM.create reg in
  let check label =
    List.iter2
      (fun tc want ->
         Alcotest.(check bool) label true (memo_view memo tc = want))
      cases wants
  in
  check "cold fills";
  check "warm fills";
  (* as many fresh statements as the memo holds evict every case *)
  List.iter (fun tc -> ignore (memo_view memo tc))
    (distinct_selects ~from:0 GM.cap);
  let _, before = memo_counts reg in
  check "fills after eviction";
  let _, after = memo_counts reg in
  (* a statement misses unless an earlier case of this pass put it back *)
  let seen = Hashtbl.create 64 in
  let expected =
    List.fold_left
      (fun acc tc ->
         let texts = List.map Sqlcore.Sql_printer.stmt tc in
         let n = List.length (List.filter (fun s -> not (Hashtbl.mem seen s)) texts) in
         List.iter (fun s -> Hashtbl.replace seen s ()) texts;
         acc + n)
      0 cases
  in
  Alcotest.(check int) "evicted statements missed again" expected
    (after - before)

let test_memo_hand_cases () =
  let use name = Sqlcore.Ast.S_use name in
  let cases =
    [ ("empty testcase", []);
      ("one statement", sql_testcase "SELECT 1");
      ( "literals with ';' and '--'",
        sql_testcase
          "CREATE TABLE t (a TEXT, b TEXT); \
           INSERT INTO t VALUES ('x;y', '--z'), (';--', 'a -- b;'); \
           SELECT a FROM t WHERE b = ';'" );
      (* [USE x;] prints a second ';': the statement alone stops short of
         its own end, while the whole testcase parses *)
      ("stops short alone, parses whole",
       use "x;" :: sql_testcase "SELECT 1");
      ("trailing line comment", [ use "x --"; use "y" ]);
      ("unterminated quote", [ use "a'"; use "'b" ]) ]
  in
  List.iter
    (fun (label, tc) ->
       let want = parsed_view tc in
       let memo = GM.create (Telemetry.Registry.create ()) in
       Alcotest.(check bool) (label ^ ": cold") true (memo_view memo tc = want);
       Alcotest.(check bool) (label ^ ": warm") true (memo_view memo tc = want))
    cases;
  Alcotest.(check bool) "[USE x;] testcase parses" true
    (fst (parsed_view (use "x;" :: sql_testcase "SELECT 1")));
  Alcotest.(check bool) "unterminated quote fails" false
    (fst (parsed_view [ use "a'"; use "'b" ]))

(* A single testcase touches far fewer grammar cells than a map tracks,
   so saturate through the parser entry itself, which (unlike
   [Grammar_memo.fill]) does not reset the map: pre-fill two maps alike
   until the testcase's own cells push them past [dirty_cap] midway. *)
let test_memo_saturation () =
  let tc =
    sql_testcase
      "CREATE TABLE t (a INT, b TEXT); \
       INSERT INTO t VALUES (1, 'x'); \
       SELECT a, COUNT(*) FROM t WHERE a > 0 GROUP BY a ORDER BY a"
  in
  let texts = List.map Sqlcore.Sql_printer.stmt tc in
  let sql = Sqlcore.Sql_printer.testcase tc in
  let own = B.create () in
  ignore (P.parse_testcase ~grammar:own sql);
  let n = B.count_nonzero own in
  let prefilled () =
    let g = B.create () in
    let rec fill i left =
      if left > 0 then
        if B.is_set own i then fill (i + 1) left
        else begin
          B.hit g i;
          fill (i + 1) (left - 1)
        end
    in
    fill 0 (B.dirty_cap - (n / 2));
    g
  in
  let want = prefilled () in
  Alcotest.(check bool) "reference parses" true
    (Result.is_ok (P.parse_testcase ~grammar:want sql));
  Alcotest.(check bool) "reference saturated" true
    (B.compact_bytes (B.compact want) = B.size + 16);
  let traces = Hashtbl.create 8 in
  let fill ~find =
    let g = prefilled () in
    let ok =
      P.testcase_grammar g (Coverage.Grammar.log_create ()) ~find
        ~add:(Hashtbl.replace traces) texts
    in
    (ok, grammar_view g)
  in
  Alcotest.(check bool) "misses saturate alike" true
    (fill ~find:(fun _ -> None) = (true, grammar_view want));
  Alcotest.(check int) "every statement traced" (List.length texts)
    (Hashtbl.length traces);
  Alcotest.(check bool) "hits saturate alike" true
    (fill ~find:(Hashtbl.find_opt traces) = (true, grammar_view want))

(* The memo's one resource: more distinct statements than it holds must
   leave it at its bound, with every map still equal to a parse. *)
let test_memo_bound () =
  let memo = GM.create (Telemetry.Registry.create ()) in
  let peak = ref 0 in
  List.iter
    (fun tc ->
       Alcotest.(check bool) "map equals a parse" true
         (memo_view memo tc = parsed_view tc);
       peak := max !peak (GM.length memo);
       if GM.length memo > GM.cap then
         Alcotest.failf "memo holds %d statements, cap %d" (GM.length memo)
           GM.cap)
    (distinct_selects ~from:0 (GM.cap + (GM.cap / 2)));
  Alcotest.(check int) "memo reached its bound" GM.cap !peak

(* Ranking a candidate leaves its map for [execute] to take, which must
   change nothing observable: a harness that ranks pairs before running
   the winner, the loser, both or neither matches one that never ranks,
   execution by execution, unparseable candidates included. The ranked
   harness makes fewer memo lookups than the plain one plus its ranking,
   so the maps are taken. *)
let test_ranked_reuse_invisible () =
  let module H = Fuzz.Harness in
  let profile = List.hd Dialects.Registry.all in
  let make () = H.create ~exec_cache:16 ~feedback:H.Both ~profile () in
  let ranked = make () and plain = make () in
  let count h name = Telemetry.Registry.counter_value (H.metrics h) name in
  let lookups h = count h "grammar.memo.hits" + count h "grammar.memo.misses" in
  let ghash h =
    match H.grammar_virgin h with Some g -> B.hash g | None -> 0L
  in
  let bad = Sqlcore.Ast.[ S_use "a'"; S_use "'b" ] in
  let ranked_stmts = ref 0 in
  let rank tc =
    ranked_stmts := !ranked_stmts + List.length tc;
    H.grammar_novelty ranked tc
  in
  let exec step tc =
    let a = H.execute ~hint:1 ranked tc in
    let b = H.execute ~hint:1 plain tc in
    if a.H.o_new_rules <> b.H.o_new_rules
    || a.o_interesting <> b.o_interesting
    || ghash ranked <> ghash plain
    || count ranked "grammar.parse_errors" <> count plain "grammar.parse_errors"
    then Alcotest.failf "step %d diverged" step
  in
  for step = 0 to 299 do
    let c1 =
      if step mod 17 = 5 then bad
      else generated_testcase ~dialect:(step mod 4) ~seed:(step + 1)
    in
    let c2 =
      if step mod 23 = 7 then bad
      else Lego.Conventional.mutate_testcase (Reprutil.Rng.create step) c1
    in
    let n1, n2 =
      if step mod 2 = 0 then
        let n1 = rank c1 in
        (n1, rank c2)
      else
        let n2 = rank c2 in
        (rank c1, n2)
    in
    let winner, loser = if n2 > n1 then (c2, c1) else (c1, c2) in
    match step mod 4 with
    | 0 -> exec step winner
    | 1 -> exec step loser
    | 2 ->
      exec step winner;
      exec step loser;
      exec step winner
    | _ -> exec step (generated_testcase ~dialect:0 ~seed:(10_000 + step))
  done;
  Alcotest.(check bool) "unparseable candidates counted" true
    (count plain "grammar.parse_errors" > 0);
  Alcotest.(check bool) "ranked maps taken" true
    (lookups ranked < lookups plain + !ranked_stmts)

let suite =
  [ ("hit and count", `Quick, test_hit_and_count);
    ("reset", `Quick, test_reset);
    ("hit wraps", `Quick, test_hit_wraps);
    ("buckets", `Quick, test_buckets);
    ("merge new coverage", `Quick, test_merge_new_coverage);
    ("merge counts cells", `Quick, test_merge_counts_cells);
    ("cross-shard merge commutative (1000 cases)", `Quick,
     test_merge_commutative);
    ("cross-shard merge associative (1000 cases)", `Quick,
     test_merge_associative);
    ("cross-shard merge idempotent (1000 cases)", `Quick,
     test_merge_idempotent);
    ("merge_into after merge: no news", `Quick,
     test_merge_then_merge_into_no_news);
    ("snapshot and diff", `Quick, test_snapshot_diff);
    ("hash sensitivity", `Quick, test_hash_sensitivity);
    ("probe spreads", `Quick, test_probe_spreads);
    ("probe aliasing fixed by mix", `Quick, test_probe_aliasing_fixed);
    ("count_nonzero_in ranges", `Quick, test_count_nonzero_in);
    ("count_news matches merge_into", `Quick,
     test_count_news_matches_merge);
    ("grammar map regions", `Quick, test_grammar_regions);
    ("sites family limit", `Quick, test_sites_family_limit);
    ("sites families independent", `Quick, test_sites_families_independent);
    ("sites registry", `Quick, test_sites_registry);
    ("grammar memo = whole parse (300 cases)", `Quick,
     test_memo_equivalence);
    ("grammar memo = whole parse after eviction", `Quick,
     test_memo_after_eviction);
    ("grammar memo hand cases", `Quick, test_memo_hand_cases);
    ("grammar memo saturation", `Quick, test_memo_saturation);
    ("grammar memo bound", `Quick, test_memo_bound);
    ("ranked-map reuse is invisible", `Quick, test_ranked_reuse_invisible);
    QCheck_alcotest.to_alcotest prop_merge_monotone;
    QCheck_alcotest.to_alcotest prop_merge_compact;
    ("hash = ascending scan (1000 cases)", `Quick, test_prop_hash_order) ]
