type token =
  | KW of string
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | CONCAT
  | TILDE
  | EOF

exception Lex_error of string * int

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC";
    "DESC"; "LIMIT"; "OFFSET"; "DISTINCT"; "AS"; "UNION"; "ALL"; "INTERSECT";
    "EXCEPT"; "VALUES"; "TABLE"; "CREATE"; "TEMPORARY"; "IF"; "NOT"; "EXISTS";
    "INDEX"; "UNIQUE"; "ON"; "VIEW"; "MATERIALIZED"; "TRIGGER"; "BEFORE";
    "AFTER"; "INSERT"; "UPDATE"; "DELETE"; "FOR"; "EACH"; "ROW"; "BEGIN";
    "END"; "RULE"; "DO"; "INSTEAD"; "NOTHING"; "NOTIFY"; "SEQUENCE"; "START";
    "WITH"; "INCREMENT"; "SCHEMA"; "DATABASE"; "USER"; "IDENTIFIED"; "DROP";
    "ALTER"; "ADD"; "COLUMN"; "RENAME"; "TO"; "TYPE"; "TRUNCATE"; "COMMENT";
    "IS"; "INTO"; "IGNORE"; "REPLACE"; "SET"; "COPY"; "STDOUT"; "STDIN";
    "CSV"; "HEADER"; "LOAD"; "DATA"; "EXPLAIN"; "DESCRIBE"; "SHOW"; "TABLES";
    "COLUMNS"; "VARIABLES"; "STATUS"; "GRANT"; "REVOKE"; "ROLE"; "COMMIT";
    "ROLLBACK"; "SAVEPOINT"; "RELEASE"; "TRANSACTION"; "ISOLATION"; "LEVEL";
    "READ"; "COMMITTED"; "REPEATABLE"; "SERIALIZABLE"; "LOCK"; "UNLOCK";
    "GLOBAL"; "RESET"; "NAMES"; "PRAGMA"; "VACUUM"; "ANALYZE"; "REINDEX";
    "CHECKPOINT"; "FLUSH"; "PRIVILEGES"; "OPTIMIZE"; "CHECK"; "REPAIR";
    "LISTEN"; "UNLISTEN"; "DISCARD"; "TEMP"; "PLANS"; "PREPARE"; "EXECUTE";
    "DEALLOCATE"; "USE"; "HANDLER"; "OPEN"; "CLOSE"; "FIRST"; "NEXT";
    "SYSTEM"; "REFRESH"; "KILL"; "CLUSTER"; "NULL"; "TRUE"; "FALSE"; "AND";
    "OR"; "IN"; "BETWEEN"; "LIKE"; "CASE"; "WHEN"; "THEN"; "ELSE"; "CAST";
    "INT"; "INTEGER"; "FLOAT"; "TEXT"; "BOOL"; "BOOLEAN"; "VARCHAR"; "YEAR";
    "ZEROFILL"; "PRIMARY"; "KEY"; "DEFAULT"; "OVER"; "PARTITION"; "ROWS";
    "RANGE"; "UNBOUNDED"; "PRECEDING"; "FOLLOWING"; "CURRENT"; "JOIN";
    "LEFT"; "RIGHT"; "CROSS"; "INNER"; "WRITE" ]

let keyword_set : (string, unit) Hashtbl.t = Hashtbl.create 256
let () = List.iter (fun k -> Hashtbl.replace keyword_set k ()) keywords

(* Token-class coverage sites for the grammar map: one per keyword plus
   one per literal/identifier class. All registration happens here at
   module initialisation — [Sites] is a plain hashtable, so sites must
   never be registered from inside shard domains. *)
let kw_sites : (string, int) Hashtbl.t =
  let h = Hashtbl.create 256 in
  List.iter
    (fun k -> Hashtbl.replace h k (Coverage.Sites.register_in Coverage.Sites.grammar ("tok.kw." ^ k)))
    keywords;
  h

let site_ident = Coverage.Sites.register_in Coverage.Sites.grammar "tok.ident"
let site_int = Coverage.Sites.register_in Coverage.Sites.grammar "tok.int"
let site_float = Coverage.Sites.register_in Coverage.Sites.grammar "tok.float"
let site_string = Coverage.Sites.register_in Coverage.Sites.grammar "tok.string"
let site_punct = Coverage.Sites.register_in Coverage.Sites.grammar "tok.punct"

let token_site = function
  | KW k ->
    (* every KW comes from [keywords] by construction *)
    (match Hashtbl.find_opt kw_sites k with
     | Some s -> s
     | None -> site_punct)
  | IDENT _ -> site_ident
  | INT _ -> site_int
  | FLOAT _ -> site_float
  | STRING _ -> site_string
  | _ -> site_punct

let is_word_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_word_char c = is_word_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let pos = ref 0 in
  let peek off = if !pos + off < n then Some input.[!pos + off] else None in
  while !pos < n do
    let c = input.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !pos < n && input.[!pos] <> '\n' do
        incr pos
      done
    end
    else if is_word_start c then begin
      let start = !pos in
      while !pos < n && is_word_char input.[!pos] do
        incr pos
      done;
      let word = String.sub input start (!pos - start) in
      let upper = String.uppercase_ascii word in
      if Hashtbl.mem keyword_set upper then emit (KW upper)
      else emit (IDENT (String.lowercase_ascii word))
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit input.[!pos] do
        incr pos
      done;
      let is_float = ref false in
      if !pos < n && input.[!pos] = '.' && (match peek 1 with
        | Some d -> is_digit d
        | None -> false)
      then begin
        is_float := true;
        incr pos;
        while !pos < n && is_digit input.[!pos] do
          incr pos
        done
      end;
      if !pos < n && (input.[!pos] = 'e' || input.[!pos] = 'E') then begin
        let save = !pos in
        incr pos;
        if !pos < n && (input.[!pos] = '+' || input.[!pos] = '-') then
          incr pos;
        if !pos < n && is_digit input.[!pos] then begin
          is_float := true;
          while !pos < n && is_digit input.[!pos] do
            incr pos
          done
        end
        else pos := save
      end;
      let text = String.sub input start (!pos - start) in
      if !is_float then emit (FLOAT (float_of_string text))
      else
        match int_of_string_opt text with
        | Some i -> emit (INT i)
        | None -> emit (FLOAT (float_of_string text))
    end
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      incr pos;
      let closed = ref false in
      while not !closed do
        if !pos >= n then raise (Lex_error ("unterminated string", !pos));
        let c = input.[!pos] in
        if c = '\'' then
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            pos := !pos + 2
          end
          else begin
            closed := true;
            incr pos
          end
        else begin
          Buffer.add_char buf c;
          incr pos
        end
      done;
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two = if !pos + 1 < n then String.sub input !pos 2 else "" in
      match two with
      | "<>" | "!=" ->
        emit NEQ;
        pos := !pos + 2
      | "<=" ->
        emit LE;
        pos := !pos + 2
      | ">=" ->
        emit GE;
        pos := !pos + 2
      | "||" ->
        emit CONCAT;
        pos := !pos + 2
      | _ ->
        (match c with
         | '(' -> emit LPAREN
         | ')' -> emit RPAREN
         | ',' -> emit COMMA
         | ';' -> emit SEMI
         | '.' -> emit DOT
         | '*' -> emit STAR
         | '+' -> emit PLUS
         | '-' -> emit MINUS
         | '/' -> emit SLASH
         | '%' -> emit PERCENT
         | '=' -> emit EQ
         | '<' -> emit LT
         | '>' -> emit GT
         | '~' -> emit TILDE
         | _ ->
           raise
             (Lex_error (Printf.sprintf "unexpected character %C" c, !pos)));
        incr pos
    end
  done;
  emit EOF;
  Array.of_list (List.rev !toks)

let pp_token fmt = function
  | KW k -> Format.fprintf fmt "KW %s" k
  | IDENT i -> Format.fprintf fmt "IDENT %s" i
  | INT n -> Format.fprintf fmt "INT %d" n
  | FLOAT f -> Format.fprintf fmt "FLOAT %g" f
  | STRING s -> Format.fprintf fmt "STRING %S" s
  | LPAREN -> Format.pp_print_string fmt "("
  | RPAREN -> Format.pp_print_string fmt ")"
  | COMMA -> Format.pp_print_string fmt ","
  | SEMI -> Format.pp_print_string fmt ";"
  | DOT -> Format.pp_print_string fmt "."
  | STAR -> Format.pp_print_string fmt "*"
  | PLUS -> Format.pp_print_string fmt "+"
  | MINUS -> Format.pp_print_string fmt "-"
  | SLASH -> Format.pp_print_string fmt "/"
  | PERCENT -> Format.pp_print_string fmt "%"
  | EQ -> Format.pp_print_string fmt "="
  | NEQ -> Format.pp_print_string fmt "<>"
  | LT -> Format.pp_print_string fmt "<"
  | LE -> Format.pp_print_string fmt "<="
  | GT -> Format.pp_print_string fmt ">"
  | GE -> Format.pp_print_string fmt ">="
  | CONCAT -> Format.pp_print_string fmt "||"
  | TILDE -> Format.pp_print_string fmt "~"
  | EOF -> Format.pp_print_string fmt "<eof>"
