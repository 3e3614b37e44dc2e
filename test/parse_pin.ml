(* Inputs and outcomes for the parser pin (test/golden/parse-outcomes.txt).

   The inputs are every statement of {!Stmt_pool} and of
   test/golden/exec-shapes.sql, printed, plus token-level mutations of
   each: every proper prefix, each single-token drop, each token
   duplicated in place and each adjacent pair swapped. Most mutations do
   not parse, so the pin reaches the parser's failure sites as well as
   its successful paths. Each outcome is the printed testcase or the
   exact error text, plus the digest of the grammar map
   [parse_testcase ~grammar] leaves, taken on failure too: a failed
   parse's partial map is merged by the harness all the same. *)

open Sqlcore
module L = Sqlparser.Lexer

let render_token = function
  | L.KW k -> k
  | L.IDENT i -> i
  | L.INT n -> string_of_int n
  | L.FLOAT f -> Sql_printer.literal (Ast.L_float f)
  | L.STRING s -> Sql_printer.literal (Ast.L_string s)
  | tok -> Format.asprintf "%a" L.pp_token tok

let render toks = String.concat " " (List.map render_token toks)

let mutations text =
  let toks = L.tokenize text in
  let toks = Array.sub toks 0 (Array.length toks - 1) in
  let n = Array.length toks in
  (* the tokens, edited by [f i tok] -> replacement tokens *)
  let edit f = render (List.concat (List.mapi f (Array.to_list toks))) in
  let prefixes =
    List.init (max 0 (n - 1)) (fun k ->
        edit (fun i t -> if i <= k then [ t ] else []))
  in
  let drops =
    List.init n (fun j -> edit (fun i t -> if i = j then [] else [ t ]))
  in
  let dups =
    List.init n (fun j -> edit (fun i t -> if i = j then [ t; t ] else [ t ]))
  in
  let swaps =
    List.init (max 0 (n - 1)) (fun j ->
        edit (fun i t ->
            if i = j then [ toks.(j + 1) ]
            else if i = j + 1 then [ toks.(j) ]
            else [ t ]))
  in
  (text :: prefixes) @ drops @ dups @ swaps

let dedup xs =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun x ->
       if Hashtbl.mem seen x then false
       else begin
         Hashtbl.add seen x ();
         true
       end)
    xs

let inputs ~shapes =
  let stmts =
    Array.to_list Stmt_pool.handwritten_stmts
    @ Array.to_list Stmt_pool.all
    @ Sqlparser.Parser.parse_testcase_exn shapes
  in
  dedup (List.concat_map mutations (dedup (List.map Sql_printer.stmt stmts)))

let outcome g input =
  Coverage.Bitmap.reset g;
  let result =
    match Sqlparser.Parser.parse_testcase ~grammar:g input with
    | Ok tc -> "ok " ^ Sql_printer.testcase tc
    | Error msg -> "error " ^ msg
  in
  Printf.sprintf "%s\t%016Lx" (String.escaped result) (Coverage.Bitmap.hash g)

(* [(input, outcome line)] in input order; the golden file holds the
   outcome lines alone, since the inputs are rebuilt from the pool. *)
let outcomes ~shapes =
  let g = Coverage.Bitmap.create () in
  List.map (fun input -> (input, outcome g input)) (inputs ~shapes)
