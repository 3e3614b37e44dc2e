(* The versioned on-disk campaign store (DESIGN.md §16).

   Layout: <dir>/gen-NNNNNN/{meta.json, corpus.jsonl, affinities.txt,
   skeletons.jsonl, virgin.json, grammar.json, dedup.json, MANIFEST.json}.
   Every file is written to <name>.tmp and renamed into place; the
   manifest — schema tag, generation number, FNV-64 digest per section —
   goes last, so a generation without a valid manifest is by definition
   torn and the loader falls back to the previous one. *)

module Json = Telemetry.Json

type campaign = {
  sc_id : string;
  sc_fuzzer : string;
  sc_dialect : string;
  sc_quirks : string list;
  sc_feedback : Fuzz.Harness.feedback;
  sc_oracles : bool;
  sc_exec_cache : int;
  sc_seed : int;
  sc_budget : int;
}

type progress = { pr_execs_done : int; pr_epoch : int }

(* A grow-only section as rendered entry by entry: the first [s_len]
   bytes of [s_bytes] are the lines of exactly [s_src], in order, and
   [s_digest] is their FNV-64 state. [s_bytes] is an accumulator's
   append-only buffer or a loaded file's bytes; nothing ever writes
   below a section's length, so a section is a view that never changes.
   The cache is only ever used when the snapshot's list is [s_src]
   itself (physically), and the entries are immutable, so it cannot
   describe a list it was not rendered from. *)
type 'a section = {
  s_src : 'a list;
  s_bytes : Bytes.t;
  s_len : int;
  s_digest : int64;
}

type render_cache = {
  rc_corpus : Fuzz.Sync.xseed section;
  rc_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) section;
  rc_skeletons : Sqlcore.Ast.stmt section;
}

type snapshot = {
  sn_campaign : campaign;
  sn_progress : progress;
  sn_seeds : Fuzz.Sync.xseed list;
  sn_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) list;
  sn_skeletons : Sqlcore.Ast.stmt list;
  sn_virgin : Coverage.Bitmap.compact;
  sn_grammar : Coverage.Bitmap.compact;
  sn_crash_keys : string list;
  sn_logic_keys : string list;
  sn_rendered : render_cache;
}

let schema = "legofuzz-store-v1"

let meta_file = "meta.json"
let corpus_file = "corpus.jsonl"
let affinities_file = "affinities.txt"
let skeletons_file = "skeletons.jsonl"
let virgin_file = "virgin.json"
let grammar_file = "grammar.json"
let dedup_file = "dedup.json"

let section_files =
  [ meta_file; corpus_file; affinities_file; skeletons_file; virgin_file;
    grammar_file; dedup_file ]

let manifest_file = "MANIFEST.json"

(* --- paths ----------------------------------------------------------- *)

let store_dir ?runs_dir id =
  let runs = match runs_dir with Some d -> d | None -> Telemetry.Sink.runs_dir () in
  Filename.concat (Filename.concat runs id) "store"

let generation_dir ~dir gen = Filename.concat dir (Printf.sprintf "gen-%06d" gen)

let generation_of_basename base =
  if String.length base = 10 && String.sub base 0 4 = "gen-" then
    int_of_string_opt (String.sub base 4 6)
  else None

let generations ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map generation_of_basename
    |> List.sort compare

(* Worker-namespace generations: gen-NNNNNN.wK, invisible to
   [generations] (and so to every plain load path) until the
   coordinator promotes them. *)

let worker_generation_dir ~dir ~worker gen =
  Filename.concat dir (Printf.sprintf "gen-%06d.w%d" gen worker)

let worker_generation_of_basename base =
  if
    String.length base >= 13
    && String.sub base 0 4 = "gen-"
    && String.sub base 10 2 = ".w"
  then
    match
      ( int_of_string_opt (String.sub base 4 6),
        int_of_string_opt (String.sub base 12 (String.length base - 12)) )
    with
    | Some g, Some w when w >= 0 -> Some (g, w)
    | _ -> None
  else None

let worker_generations ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map worker_generation_of_basename
    |> List.sort compare

(* --- lock paths ------------------------------------------------------- *)

let store_lock_path ~dir = Filename.concat dir "LOCK"

let generation_lock_path ~dir gen =
  Filename.concat (Filename.concat dir "locks")
    (Printf.sprintf "gen-%06d.lck" gen)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let ensure_dir = mkdir_p

(* --- digests --------------------------------------------------------- *)

let fnv_basis = 0xcbf29ce484222325L

(* A [for] loop over a local ref: the native compiler keeps [h] unboxed,
   where a [String.iter] closure would box an Int64 per byte. *)
let fnv_feed h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let hex64 v = Printf.sprintf "%016Lx" v

let fnv64 s = hex64 (fnv_feed fnv_basis s)

(* The empty lists' sections: valid for every snapshot whose grow-only
   lists are all empty, and for no other ([[] == []], but a fresh list
   is never physically an old one). *)
let empty_section =
  { s_src = []; s_bytes = Bytes.empty; s_len = 0; s_digest = fnv_basis }

let no_render_cache =
  { rc_corpus = empty_section; rc_affinities = empty_section;
    rc_skeletons = empty_section }

let empty_snapshot campaign =
  { sn_campaign = campaign;
    sn_progress = { pr_execs_done = 0; pr_epoch = 0 }; sn_seeds = [];
    sn_affinities = []; sn_skeletons = [];
    sn_virgin = Coverage.Bitmap.compact_of_cells [];
    sn_grammar = Coverage.Bitmap.compact_of_cells []; sn_crash_keys = [];
    sn_logic_keys = []; sn_rendered = no_render_cache }

(* --- rendering ------------------------------------------------------- *)

let parse_hex64 s =
  if String.length s = 16 then
    try Some (Int64.of_string ("0x" ^ s)) with Failure _ -> None
  else None

let campaign_fields c =
  [ ("id", Json.Str c.sc_id); ("fuzzer", Json.Str c.sc_fuzzer);
    ("dialect", Json.Str c.sc_dialect);
    ("quirks", Json.Arr (List.map (fun q -> Json.Str q) c.sc_quirks));
    ("feedback", Json.Str (Fuzz.Harness.feedback_to_string c.sc_feedback));
    ("oracles", Json.Bool c.sc_oracles);
    ("exec_cache", Json.Int c.sc_exec_cache);
    ("seed", Json.Int c.sc_seed); ("budget", Json.Int c.sc_budget) ]

let campaign_to_json c = Json.Obj (campaign_fields c)

let render_meta sn =
  let p = sn.sn_progress in
  Json.to_string
    (Json.Obj
       (campaign_fields sn.sn_campaign
        @ [ ("execs_done", Json.Int p.pr_execs_done);
            ("epoch", Json.Int p.pr_epoch) ]))
  ^ "\n"

(* One line per grow-only entry. A section is the concatenation of its
   entries' lines, so it can be rendered (and digested) an entry at a
   time. *)

let corpus_line (xs : Fuzz.Sync.xseed) =
  Json.to_string
    (Json.Obj
       [ ("sql", Json.Str (Sqlcore.Sql_printer.testcase xs.xs_tc));
         ("cov_hash", Json.Str (hex64 xs.xs_cov_hash));
         ("new_branches", Json.Int xs.xs_new_branches);
         ("cost", Json.Int xs.xs_cost) ])
  ^ "\n"

let affinity_line (a, b) =
  Sqlcore.Stmt_type.name a ^ " -> " ^ Sqlcore.Stmt_type.name b ^ "\n"

(* Takes the printed SQL: the accumulator already prints it for its
   dedup key. *)
let skeleton_line sql =
  Json.to_string (Json.Obj [ ("sql", Json.Str sql) ]) ^ "\n"

let skeleton_stmt_line st = skeleton_line (Sqlcore.Sql_printer.stmt st)

(* A rendered file as [(name, bytes, length, digest)]: its contents are
   the first [length] bytes, which are never written again. A freshly
   rendered string is such a view of itself. *)
let fresh name text =
  (name, Bytes.unsafe_of_string text, String.length text,
   fnv_feed fnv_basis text)

(* Section [name] for [src]: the cached rendering when it was made from
   this very list, a fresh one otherwise. *)
let section_of name line (cached : _ section) src =
  if cached.s_src == src then
    (name, cached.s_bytes, cached.s_len, cached.s_digest)
  else begin
    let buf = Buffer.create 4096 in
    List.iter (fun x -> Buffer.add_string buf (line x)) src;
    fresh name (Buffer.contents buf)
  end

let render_bitmap compact =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"cells\":[";
  let first = ref true in
  Coverage.Bitmap.iter_compact_cells
    (fun i v ->
       if !first then first := false else Buffer.add_char buf ',';
       Buffer.add_char buf '[';
       Buffer.add_string buf (string_of_int i);
       Buffer.add_char buf ',';
       Buffer.add_string buf (string_of_int v);
       Buffer.add_char buf ']')
    compact;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let render_dedup sn =
  Json.to_string
    (Json.Obj
       [ ("crashes", Json.Arr (List.map (fun k -> Json.Str k) sn.sn_crash_keys));
         ("logic", Json.Arr (List.map (fun k -> Json.Str k) sn.sn_logic_keys)) ])
  ^ "\n"

(* Every section as [(file, text, digest)], in {!section_files} order.
   Only meta, the bitmaps and dedup are rendered and digested here; the
   grow-only sections come from the render cache when it is valid. *)
let render sn =
  let rc = sn.sn_rendered in
  [ fresh meta_file (render_meta sn);
    section_of corpus_file corpus_line rc.rc_corpus sn.sn_seeds;
    section_of affinities_file affinity_line rc.rc_affinities sn.sn_affinities;
    section_of skeletons_file skeleton_stmt_line rc.rc_skeletons
      sn.sn_skeletons;
    fresh virgin_file (render_bitmap sn.sn_virgin);
    fresh grammar_file (render_bitmap sn.sn_grammar);
    fresh dedup_file (render_dedup sn) ]

(* Both sides rendered from their entries, so a render cache (a loaded
   file's bytes, say) cannot stand in for the entries it came with. *)
let snapshot_equal a b =
  let uncached sn = render { sn with sn_rendered = no_render_cache } in
  List.for_all2
    (fun (_, x, n, _) (_, y, m, _) ->
       String.equal (Bytes.sub_string x 0 n) (Bytes.sub_string y 0 m))
    (uncached a) (uncached b)

(* --- parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

let jsonl_lines content =
  String.split_on_char '\n' content
  |> List.filter (fun l -> String.trim l <> "")

let parse_meta content =
  let* json =
    Json.of_string (String.trim content)
    |> Result.map_error (fun e -> "meta: " ^ e)
  in
  let* id = Json.field "id" Json.to_str json in
  let* fuzzer = Json.field "fuzzer" Json.to_str json in
  let* dialect = Json.field "dialect" Json.to_str json in
  let* quirks = Json.field "quirks" Json.to_str_list json in
  let* fb = Json.field "feedback" Json.to_str json in
  let* feedback =
    match Fuzz.Harness.feedback_of_string fb with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "meta: unknown feedback %S" fb)
  in
  let* oracles = Json.field "oracles" Json.to_bool json in
  let* exec_cache = Json.field "exec_cache" Json.to_int json in
  let* seed = Json.field "seed" Json.to_int json in
  let* budget = Json.field "budget" Json.to_int json in
  let* execs_done = Json.field "execs_done" Json.to_int json in
  let* epoch = Json.field "epoch" Json.to_int json in
  Ok
    ( { sc_id = id; sc_fuzzer = fuzzer; sc_dialect = dialect;
        sc_quirks = quirks; sc_feedback = feedback; sc_oracles = oracles;
        sc_exec_cache = exec_cache; sc_seed = seed; sc_budget = budget },
      { pr_execs_done = execs_done; pr_epoch = epoch } )

let parse_corpus content =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let ctx msg = Printf.sprintf "corpus line %d: %s" n msg in
      let* json = Json.of_string line |> Result.map_error ctx in
      let* sql = Json.field "sql" Json.to_str json |> Result.map_error ctx in
      let* hash_s =
        Json.field "cov_hash" Json.to_str json |> Result.map_error ctx
      in
      let* cov_hash =
        match parse_hex64 hash_s with
        | Some h -> Ok h
        | None -> Error (ctx "bad cov_hash")
      in
      let* new_branches =
        Json.field "new_branches" Json.to_int json |> Result.map_error ctx
      in
      let* cost = Json.field "cost" Json.to_int json |> Result.map_error ctx in
      let* tc = Sqlparser.Parser.parse_testcase sql |> Result.map_error ctx in
      go
        ({ Fuzz.Sync.xs_tc = tc; xs_cov_hash = cov_hash;
           xs_new_branches = new_branches; xs_cost = cost }
         :: acc)
        (n + 1) rest
  in
  go [] 1 (jsonl_lines content)

let parse_affinities content =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match
          String.split_on_char '>' line |> function
          | [ left; right ] when String.length left > 0
                                 && left.[String.length left - 1] = '-' ->
            let left = String.trim (String.sub left 0 (String.length left - 1))
            and right = String.trim right in
            (match
               (Sqlcore.Stmt_type.of_name left, Sqlcore.Stmt_type.of_name right)
             with
             | Some a, Some b -> Some (a, b)
             | _ -> None)
          | _ -> None
        with
        | Some pair -> go (pair :: acc) (n + 1) rest
        | None -> Error (Printf.sprintf "affinities line %d: unparseable" n))
  in
  go [] 1 (jsonl_lines content)

let parse_skeletons content =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let ctx msg = Printf.sprintf "skeletons line %d: %s" n msg in
      let* json = Json.of_string line |> Result.map_error ctx in
      let* sql = Json.field "sql" Json.to_str json |> Result.map_error ctx in
      let* st = Sqlparser.Parser.parse_stmt sql |> Result.map_error ctx in
      go (st :: acc) (n + 1) rest
  in
  go [] 1 (jsonl_lines content)

let parse_bitmap ~name content =
  let* json =
    Json.of_string (String.trim content)
    |> Result.map_error (fun e -> name ^ ": " ^ e)
  in
  let* cells =
    Json.field "cells"
      (fun v ->
         match v with
         | Json.Arr items ->
           let rec go acc = function
             | [] -> Some (List.rev acc)
             | Json.Arr [ Json.Int i; Json.Int value ] :: rest ->
               go ((i, value) :: acc) rest
             | _ -> None
           in
           go [] items
         | _ -> None)
      json
    |> Result.map_error (fun e -> name ^ ": " ^ e)
  in
  Ok (Coverage.Bitmap.compact_of_cells cells)

let parse_dedup content =
  let* json =
    Json.of_string (String.trim content)
    |> Result.map_error (fun e -> "dedup: " ^ e)
  in
  let* crashes =
    Json.field "crashes" Json.to_str_list json
    |> Result.map_error (fun e -> "dedup: " ^ e)
  in
  let* logic =
    Json.field "logic" Json.to_str_list json
    |> Result.map_error (fun e -> "dedup: " ^ e)
  in
  Ok (crashes, logic)

(* --- save ------------------------------------------------------------ *)

(* Writes the first [len] bytes of [bytes]. *)
let write_atomic gdir name bytes len =
  let tmp = Filename.concat gdir (name ^ ".tmp") in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output oc bytes 0 len);
  Sys.rename tmp (Filename.concat gdir name)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Keep the newest [keep] generations — but never one another live
   process still holds a read-mark on: a worker parsing gen G while the
   coordinator races three saves ahead must not have the files yanked
   from under it. A SIGKILLed reader's marks vanish with its process
   (POSIX locks die with the holder), so a crash can only ever delay
   pruning by one pass, never wedge it. *)
let prune ~keep ~dir =
  let keep = max 1 keep in
  let gens = List.rev (generations ~dir) in
  List.iteri
    (fun i g ->
       if i >= keep && not (Lock.is_locked (generation_lock_path ~dir g))
       then begin
         (try remove_tree (generation_dir ~dir g) with Sys_error _ -> ());
         try Sys.remove (generation_lock_path ~dir g) with Sys_error _ -> ()
       end)
    gens

(* Next generation number: one past the newest, counting unpromoted
   worker generations too, so a worker's fresh write never collides
   with a plain generation (or another worker's) racing it. *)
let next_generation ~dir =
  let ws = List.map fst (worker_generations ~dir) in
  1 + List.fold_left max 0 (generations ~dir @ ws)

(* Generations a promotion keeps, and a save unless told otherwise. *)
let default_keep = 3

let save ?(keep = default_keep) ?worker ~dir sn =
  mkdir_p dir;
  let gen = next_generation ~dir in
  let gdir =
    match worker with
    | None -> generation_dir ~dir gen
    | Some w -> worker_generation_dir ~dir ~worker:w gen
  in
  mkdir_p gdir;
  let digests =
    List.map
      (fun (name, bytes, len, digest) ->
         write_atomic gdir name bytes len;
         (name, Json.Str (hex64 digest)))
      (render sn)
  in
  let manifest =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.Str schema); ("generation", Json.Int gen);
           ("files", Json.Obj digests) ])
    ^ "\n"
  in
  write_atomic gdir manifest_file (Bytes.unsafe_of_string manifest)
    (String.length manifest);
  (* Workers never prune: only the coordinator (or a single-process
     saver) retires old generations, and it does so lock-aware. *)
  (match worker with None -> prune ~keep ~dir | Some _ -> ());
  gen

(* --- load ------------------------------------------------------------ *)

let read_file path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ -> None
  else None

let load_generation_at ~gdir gen =
  let* manifest_raw =
    match read_file (Filename.concat gdir manifest_file) with
    | Some c -> Ok c
    | None -> Error "missing manifest (torn write)"
  in
  let* manifest =
    Json.of_string (String.trim manifest_raw)
    |> Result.map_error (fun e -> "manifest: " ^ e)
  in
  let* () =
    match Json.member "schema" manifest with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "unknown schema %S" s)
    | _ -> Error "manifest: missing schema"
  in
  let* () =
    match Json.member "generation" manifest with
    | Some (Json.Int g) when g = gen -> Ok ()
    | Some (Json.Int g) ->
      Error (Printf.sprintf "manifest generation %d in gen-%06d" g gen)
    | _ -> Error "manifest: missing generation"
  in
  let* files =
    match Json.member "files" manifest with
    | Some (Json.Obj kvs) -> Ok kvs
    | _ -> Error "manifest: missing files"
  in
  let* sections =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest ->
        let* digest =
          match List.assoc_opt name files with
          | Some (Json.Str d) -> Ok d
          | _ -> Error (Printf.sprintf "manifest: no digest for %s" name)
        in
        let* content =
          match read_file (Filename.concat gdir name) with
          | Some c -> Ok c
          | None -> Error (Printf.sprintf "missing section %s" name)
        in
        let h = fnv_feed fnv_basis content in
        if hex64 h <> digest then
          Error (Printf.sprintf "digest mismatch in %s" name)
        else go ((name, (content, h)) :: acc) rest
    in
    go [] section_files
  in
  let get name = fst (List.assoc name sections) in
  let* campaign, progress = parse_meta (get meta_file) in
  let* seeds = parse_corpus (get corpus_file) in
  let* affinities = parse_affinities (get affinities_file) in
  let* skeletons = parse_skeletons (get skeletons_file) in
  let* virgin = parse_bitmap ~name:"virgin" (get virgin_file) in
  let* grammar = parse_bitmap ~name:"grammar" (get grammar_file) in
  let* crash_keys, logic_keys = parse_dedup (get dedup_file) in
  (* A grow-only file the store wrote is the rendering of the entries
     parsed from it, each line rendering back byte for byte. The parser
     is more lenient (blank lines, a last line with no newline), so a
     file is its own cache only when it holds one newline-terminated
     line per entry: an accumulator appends straight after its bytes.
     Any other file is re-rendered. *)
  let cached name src =
    let content, digest = List.assoc name sections in
    let len = String.length content in
    let newlines = ref 0 in
    String.iter (fun c -> if c = '\n' then incr newlines) content;
    if (len = 0 || content.[len - 1] = '\n')
       && !newlines = List.length src
    then
      { s_src = src; s_bytes = Bytes.unsafe_of_string content;
        s_len = len; s_digest = digest }
    else empty_section
  in
  Ok
    { sn_campaign = campaign; sn_progress = progress; sn_seeds = seeds;
      sn_affinities = affinities; sn_skeletons = skeletons;
      sn_virgin = virgin; sn_grammar = grammar; sn_crash_keys = crash_keys;
      sn_logic_keys = logic_keys;
      sn_rendered =
        { rc_corpus = cached corpus_file seeds;
          rc_affinities = cached affinities_file affinities;
          rc_skeletons = cached skeletons_file skeletons } }

let load_generation ~dir gen =
  load_generation_at ~gdir:(generation_dir ~dir gen) gen

let load_general ~read_marks ~dir =
  match List.rev (generations ~dir) with
  | [] -> Error [ Printf.sprintf "no store generations under %s" dir ]
  | gens ->
    let attempt g =
      if read_marks then
        (* Hold a shared read-mark while parsing, so a lock-aware pruner
           in another process never deletes the generation mid-read. *)
        let l = Lock.acquire ~kind:Lock.Shared (generation_lock_path ~dir g) in
        Fun.protect
          ~finally:(fun () -> Lock.release l)
          (fun () -> load_generation ~dir g)
      else load_generation ~dir g
    in
    let rec go warnings = function
      | [] -> Error (List.rev warnings)
      | g :: rest -> (
          match attempt g with
          | Ok snap -> Ok (snap, g, List.rev warnings)
          | Error msg ->
            go (Printf.sprintf "gen-%06d skipped: %s" g msg :: warnings) rest)
    in
    go [] gens

let load ~dir = load_general ~read_marks:false ~dir

let load_marked ~dir = load_general ~read_marks:true ~dir

(* --- manifest digest probe ------------------------------------------- *)

let manifest_digests gdir =
  match read_file (Filename.concat gdir manifest_file) with
  | None -> None
  | Some raw -> (
      match Json.of_string (String.trim raw) with
      | Error _ -> None
      | Ok m -> (
          match Json.member "files" m with
          | Some (Json.Obj kvs) ->
            let rec go acc = function
              | [] -> Some (List.rev acc)
              | name :: rest -> (
                  match List.assoc_opt name kvs with
                  | Some (Json.Str d) -> go ((name, d) :: acc) rest
                  | _ -> None)
            in
            go [] section_files
          | _ -> None))

(* --- discovery accumulation ------------------------------------------ *)

(* A grow-only section under accumulation: entries in reverse discovery
   order, their lines appended once on arrival to [g_bytes] (the first
   [g_len] bytes are written; the rest is spare room), and the running
   FNV-64 state over those lines. Sections handed out are views of
   [g_bytes]: a full buffer is replaced by a larger copy, never written
   below [g_len]. [g_last] is the section the last snapshot got, reused
   while nothing new arrives. *)
type 'a grow = {
  mutable g_rev : 'a list;
  mutable g_bytes : Bytes.t;
  mutable g_len : int;
  mutable g_digest : int64;
  mutable g_last : 'a section option;
}

type acc = {
  a_seeds : Fuzz.Sync.xseed grow;
  a_affinities : (Sqlcore.Stmt_type.t * Sqlcore.Stmt_type.t) grow;
  a_skeletons : Sqlcore.Ast.stmt grow;
  a_seen : (Fuzz.Sync.key, unit) Hashtbl.t;
}

let grow_create () =
  { g_rev = []; g_bytes = Bytes.empty; g_len = 0; g_digest = fnv_basis;
    g_last = None }

let grow_add g x line =
  let n = String.length line in
  if g.g_len + n > Bytes.length g.g_bytes then begin
    let cap = max (g.g_len + n) (max 4096 (2 * Bytes.length g.g_bytes)) in
    let bytes = Bytes.create cap in
    Bytes.blit g.g_bytes 0 bytes 0 g.g_len;
    g.g_bytes <- bytes
  end;
  Bytes.blit_string line 0 g.g_bytes g.g_len n;
  g.g_len <- g.g_len + n;
  g.g_rev <- x :: g.g_rev;
  g.g_digest <- fnv_feed g.g_digest line;
  g.g_last <- None

let grow_section g =
  match g.g_last with
  | Some s -> s
  | None ->
    let s =
      { s_src = List.rev g.g_rev; s_bytes = g.g_bytes; s_len = g.g_len;
        s_digest = g.g_digest }
    in
    g.g_last <- Some s;
    s

(* An empty [g] takes section [s] as its state. Bytes past [s]'s length
   may be another accumulator's to write, so it adopts [s]'s buffer only
   when [s] fills it (its next add then moves to a buffer of its own) and
   a copy of [s]'s bytes otherwise. *)
let grow_adopt g s =
  g.g_rev <- List.rev s.s_src;
  g.g_bytes <-
    (if s.s_len = Bytes.length s.s_bytes then s.s_bytes
     else Bytes.sub s.s_bytes 0 s.s_len);
  g.g_len <- s.s_len;
  g.g_digest <- s.s_digest;
  g.g_last <- Some s

let acc_create () =
  { a_seeds = grow_create (); a_affinities = grow_create ();
    a_skeletons = grow_create (); a_seen = Hashtbl.create 64 }

(* Fold [xs] into [g]: each entry whose key is new gets its line, which
   [line] renders from the entry and its key (a skeleton's key is its
   printed SQL, so each add prints a skeleton at most once). Into an
   empty [g], a [cached] rendering of [xs] itself stands for those lines
   when no entry of [xs] is dropped. *)
let grow_extend acc g ?cached entry line xs =
  let fresh =
    List.filter_map
      (fun x ->
         let key = Fuzz.Sync.key (entry x) in
         if Hashtbl.mem acc.a_seen key then None
         else begin
           Hashtbl.replace acc.a_seen key ();
           Some (x, key)
         end)
      xs
  in
  match cached with
  | Some c when c.s_src == xs && List.compare_lengths fresh xs = 0 ->
    grow_adopt g c
  | _ -> List.iter (fun (x, key) -> grow_add g x (line x key)) fresh

let acc_extend ?rendered acc (xp : Fuzz.Sync.export) =
  let cached f = Option.map f rendered in
  grow_extend acc acc.a_seeds
    ?cached:(cached (fun rc -> rc.rc_corpus))
    (fun xs -> Fuzz.Sync.Seed xs)
    (fun xs _ -> corpus_line xs)
    xp.xp_seeds;
  grow_extend acc acc.a_affinities
    ?cached:(cached (fun rc -> rc.rc_affinities))
    (fun (a, b) -> Fuzz.Sync.Affinity (a, b))
    (fun pair _ -> affinity_line pair)
    xp.xp_affinities;
  grow_extend acc acc.a_skeletons
    ?cached:(cached (fun rc -> rc.rc_skeletons))
    (fun st -> Fuzz.Sync.Skeleton st)
    (fun _ key ->
       match key with
       | Fuzz.Sync.K_skeleton sql -> skeleton_line sql
       | K_seed _ | K_affinity _ -> assert false)
    xp.xp_skeletons

let acc_add_export acc xp = acc_extend acc xp

let discoveries sn =
  { Fuzz.Sync.xp_seeds = sn.sn_seeds; xp_affinities = sn.sn_affinities;
    xp_skeletons = sn.sn_skeletons }

let acc_of_snapshot sn =
  let acc = acc_create () in
  acc_extend ~rendered:sn.sn_rendered acc (discoveries sn);
  acc

let acc_snapshot acc ~campaign ~progress ~virgin ~grammar ~crash_keys
    ~logic_keys =
  let corpus = grow_section acc.a_seeds
  and affinities = grow_section acc.a_affinities
  and skeletons = grow_section acc.a_skeletons in
  { sn_campaign = campaign; sn_progress = progress; sn_seeds = corpus.s_src;
    sn_affinities = affinities.s_src; sn_skeletons = skeletons.s_src;
    sn_virgin = virgin; sn_grammar = grammar; sn_crash_keys = crash_keys;
    sn_logic_keys = logic_keys;
    sn_rendered =
      { rc_corpus = corpus; rc_affinities = affinities;
        rc_skeletons = skeletons } }

(* --- snapshot merge & worker-generation promotion --------------------- *)

let bitmap_union x y =
  let m = Coverage.Bitmap.create () in
  Coverage.Bitmap.load_compact ~into:m x;
  ignore (Coverage.Bitmap.merge_compact ~into:m y);
  Coverage.Bitmap.compact m

let merge_snapshots a b =
  let acc = acc_of_snapshot a in
  acc_add_export acc (discoveries b);
  (* a's keys first in their stored order, then b's unseen ones — the
     same extend-never-rewrite discipline resume uses, so preloaded dedup
     keys stay a prefix through any merge. *)
  let keys = Fuzz.Triage.create () in
  List.iter
    (fun sn ->
       Fuzz.Triage.preload keys ~crash_keys:sn.sn_crash_keys
         ~logic_keys:sn.sn_logic_keys)
    [ a; b ];
  acc_snapshot acc ~campaign:a.sn_campaign
    ~progress:
      { pr_execs_done =
          max a.sn_progress.pr_execs_done b.sn_progress.pr_execs_done;
        pr_epoch = max a.sn_progress.pr_epoch b.sn_progress.pr_epoch }
    ~virgin:(bitmap_union a.sn_virgin b.sn_virgin)
    ~grammar:(bitmap_union a.sn_grammar b.sn_grammar)
    ~crash_keys:(Fuzz.Triage.crash_keys keys)
    ~logic_keys:(Fuzz.Triage.logic_keys keys)

let promote ~dir ~worker gen =
  let src = worker_generation_dir ~dir ~worker gen in
  if not (Sys.file_exists src) then
    Error
      (Printf.sprintf "missing worker generation %s" (Filename.basename src))
  else
    Lock.with_exclusive (store_lock_path ~dir) (fun () ->
        let dst = generation_dir ~dir gen in
        let finish g =
          prune ~keep:default_keep ~dir;
          Ok g
        in
        if not (Sys.file_exists dst) then begin
          (* The common case: the number the worker claimed is still
             free, so promotion is one rename — manifest, digests and
             generation number all carry over unchanged. *)
          Sys.rename src dst;
          finish gen
        end
        else
          match
            (load_generation_at ~gdir:dst gen, load_generation_at ~gdir:src gen)
          with
          | Ok a, Ok b ->
            let merged = merge_snapshots a b in
            (try remove_tree src with Sys_error _ -> ());
            finish (save ~dir merged)
          | Error _, Ok _ ->
            (* The plain twin is torn; the worker's copy is whole. *)
            (try remove_tree dst with Sys_error _ -> ());
            Sys.rename src dst;
            finish gen
          | _, Error e ->
            (try remove_tree src with Sys_error _ -> ());
            Error
              (Printf.sprintf "worker generation gen-%06d.w%d invalid: %s" gen
                 worker e))

let discard_worker_generations ~dir ~worker =
  List.iter
    (fun (g, w) ->
       if w = worker then
         try remove_tree (worker_generation_dir ~dir ~worker:w g)
         with Sys_error _ -> ())
    (worker_generations ~dir)
