open Sqlcore.Ast

exception Parse_error of string

(* Grammar-rule coverage sites, one per named production, registered
   once at module initialisation (sites must never be registered inside
   shard domains — the registry is a plain hashtable). When a parse
   carries a grammar bitmap, each production fired records both its rule
   cell and its (production, parent production) pair cell. *)
let site_root = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.root"
let site_testcase = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.testcase"
let site_stmt = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt"
let site_literal = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.literal"
let site_data_type = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.data_type"
let site_or = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.or"
let site_and = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.and"
let site_not = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.not"
let site_predicate = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.predicate"
let site_in = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.in"
let site_between = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.between"
let site_add = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.add"
let site_mul = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.mul"
let site_unary = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.unary"
let site_primary = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.primary"
let site_call = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.call"
let site_over = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.over"
let site_frame_bound = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.frame_bound"
let site_order_list = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.expr.order_list"
let site_query = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query"
let site_query_atom = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query.atom"
let site_select = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query.select"
let site_proj = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query.proj"
let site_from = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query.from"
let site_from_atom = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.query.from_atom"
let site_col_def = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.col_def"
let site_trig_event = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.trig_event"
let site_priv = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.priv"
let site_privs = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.privs"
let site_literal_rows = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.literal_rows"
let site_create = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.create"
let site_create_table = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.create_table"
let site_create_index = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.create_index"
let site_create_view = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.create_view"
let site_drop = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.drop"
let site_alter = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.alter"
let site_insert = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.insert"
let site_update = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.update"
let site_delete = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.delete"
let site_copy = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.copy"
let site_with = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.with"
let site_with_body = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.with_body"
let site_set = Coverage.Sites.register_in Coverage.Sites.grammar "grammar.stmt.set"

type state = {
  toks : Lexer.token array;
  mutable pos : int;
  grammar : Coverage.Bitmap.t option;
  log : Coverage.Grammar.log option;  (** when set, records are traced *)
  mutable parent : int;  (** site of the enclosing production *)
}

let record log g ~site ~parent =
  match log with
  | None -> Coverage.Grammar.record g ~site ~parent
  | Some log -> Coverage.Grammar.record_logged g log ~site ~parent

(* Production wrapper: a plain passthrough when no grammar bitmap is
   attached (the default, so edge-only parses cost one match), otherwise
   records the rule and rule-pair cells and scopes [parent] around the
   body. No restore on Parse_error — a failed parse abandons the state. *)
let prod st site f =
  match st.grammar with
  | None -> f ()
  | Some g ->
    let parent = st.parent in
    record st.log g ~site ~parent;
    st.parent <- site;
    let r = f () in
    st.parent <- parent;
    r

let peek st = st.toks.(st.pos)

let peek_at st off =
  let i = st.pos + off in
  if i < Array.length st.toks then st.toks.(i) else Lexer.EOF

let advance st = st.pos <- st.pos + 1

(* Every parse failure goes through here: the message says what was
   expected, then the index and text of the token at hand. No production
   consumes a token it fails on, so that token is the offending one. *)
let fail st msg =
  let tok = Format.asprintf "%a" Lexer.pp_token (peek st) in
  raise
    (Parse_error (Printf.sprintf "%s (at token %d: %s)" msg st.pos tok))

let accept_kw st k =
  match peek st with
  | Lexer.KW k' when k' = k ->
    advance st;
    true
  | _ -> false

let expect_kw st k = if not (accept_kw st k) then fail st ("expected " ^ k)

let rec expect_kws st = function
  | [] -> ()
  | k :: ks ->
    expect_kw st k;
    expect_kws st ks

(* [k ks...]: true, with the whole phrase consumed, when [k] is at hand;
   past [k] the keywords [ks] are required. *)
let accept_phrase st k ks = accept_kw st k && (expect_kws st ks; true)

let expect_tok st tok what =
  if peek st = tok then advance st else fail st ("expected " ^ what)

let accept_tok st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match peek st with
  | Lexer.IDENT i ->
    advance st;
    i
  | _ -> fail st "expected identifier"

let opt_ident st =
  match peek st with
  | Lexer.IDENT i ->
    advance st;
    Some i
  | _ -> None

let int_lit st =
  match peek st with
  | Lexer.INT n ->
    advance st;
    n
  | _ -> fail st "expected integer"

let signed_int st =
  if accept_tok st Lexer.MINUS then -int_lit st else int_lit st

let string_lit st =
  match peek st with
  | Lexer.STRING s ->
    advance st;
    s
  | _ -> fail st "expected string literal"

(* ------------------------------------------------------------------ *)
(* Idioms: one helper each                                             *)
(* ------------------------------------------------------------------ *)

(* Consume the token at hand when [of_token] maps it to a value;
   otherwise fail on it with [msg]. *)
let take st msg of_token =
  match of_token (peek st) with
  | Some v ->
    advance st;
    v
  | None -> fail st msg

let rec find_arm k = function
  | [] -> None
  | (k', arm) :: arms ->
    (* keywords are never empty *)
    if String.length k = String.length k' && k.[0] = k'.[0] && String.equal k k'
    then Some arm
    else find_arm k arms

(* A keyword choice: when the token at hand is a keyword naming one of
   [arms], consume it and return that arm, to run on what follows. *)
let take_arm st arms =
  match peek st with
  | Lexer.KW k ->
    let arm = find_arm k arms in
    if Option.is_some arm then advance st;
    arm
  | _ -> None

let accept_choice st arms =
  match take_arm st arms with Some arm -> Some (arm st) | None -> None

(* [accept_choice], failing on any other token with [msg]. *)
let choice st msg arms =
  match take_arm st arms with Some arm -> arm st | None -> fail st msg

let const v _ = v

(* [item (, item)*] *)
let rec comma_more st item acc =
  if accept_tok st Lexer.COMMA then comma_more st item (item st :: acc)
  else List.rev acc

let comma_list st item = comma_more st item [ item st ]

let rparen st x =
  expect_tok st Lexer.RPAREN ")";
  x

(* [( body )] *)
let parens st body =
  expect_tok st Lexer.LPAREN "(";
  rparen st (body st)

(* [( item, ... )] *)
let paren_list st item = parens st (fun st -> comma_list st item)

(* [k x] when [k] is at hand. *)
let opt_clause st k x = if accept_kw st k then Some (x st) else None

(* [k BY items], or no items when [k] is not at hand. *)
let by_list st k items = if accept_phrase st k [ "BY" ] then items st else []

(* A left-associative level [operand (op operand)*]: [step st lhs]
   consumes one operator and its right operand and returns the combined
   tree, or returns [None] where the level ends. *)
let rec left_assoc_more st step lhs =
  match step st lhs with Some lhs -> left_assoc_more st step lhs | None -> lhs

let left_assoc st operand step = left_assoc_more st step (operand st)

(* [left_assoc] for a level of plain binary operators, [op_of] mapping
   each operator token to its [binop]; written out so that the hot
   expression levels allocate no step closure. *)
let rec binop_more st operand op_of lhs =
  match op_of (peek st) with
  | Some op ->
    advance st;
    binop_more st operand op_of (Binop (op, lhs, operand st))
  | None -> lhs

let binop_level st operand op_of = binop_more st operand op_of (operand st)

(* [name = value] *)
let assignment st value =
  let name = ident st in
  expect_tok st Lexer.EQ "=";
  (name, value st)

(* [a TO b] *)
let rename_pair st =
  let a = ident st in
  expect_kw st "TO";
  (a, ident st)

(* ------------------------------------------------------------------ *)
(* Literals and types                                                  *)
(* ------------------------------------------------------------------ *)

let literal_of_token = function
  | Lexer.INT n -> Some (L_int n)
  | Lexer.FLOAT f -> Some (L_float f)
  | Lexer.STRING s -> Some (L_string s)
  | Lexer.KW "NULL" -> Some L_null
  | Lexer.KW "TRUE" -> Some (L_bool true)
  | Lexer.KW "FALSE" -> Some (L_bool false)
  | _ -> None

(* The number after a '-', negated. *)
let negative_of_token = function
  | Lexer.INT n -> Some (L_int (-n))
  | Lexer.FLOAT f -> Some (L_float (-.f))
  | _ -> None

let parse_literal st =
  prod st site_literal @@ fun () ->
  if accept_tok st Lexer.MINUS then
    take st "expected number after '-'" negative_of_token
  else take st "expected literal" literal_of_token

let data_types =
  [ ("INT", const T_int); ("INTEGER", const T_int);
    ("FLOAT", const T_float); ("TEXT", const T_text);
    ("BOOL", const T_bool); ("BOOLEAN", const T_bool);
    ("YEAR", const T_year);
    ("VARCHAR", fun st -> T_varchar (parens st int_lit)) ]

let parse_data_type st =
  prod st site_data_type @@ fun () -> choice st "expected data type" data_types

let agg_of_name = function
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "avg" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | "group_concat" -> Some Group_concat
  | _ -> None

let win_of_name = function
  | "row_number" -> Some Row_number
  | "rank" -> Some Rank
  | "dense_rank" -> Some Dense_rank
  | "lead" -> Some Lead
  | "lag" -> Some Lag
  | "ntile" -> Some Ntile
  | _ -> None

let comparison = function
  | Lexer.EQ -> Some Eq
  | Lexer.NEQ -> Some Neq
  | Lexer.LT -> Some Lt
  | Lexer.LE -> Some Le
  | Lexer.GT -> Some Gt
  | Lexer.GE -> Some Ge
  | _ -> None

let starts_query st =
  match peek st with
  | Lexer.KW "SELECT" | Lexer.KW "VALUES" -> true
  | _ -> false

(* [(e, ...), (e, ...), ...]: comma-separated parenthesised rows of
   [elem]s, as in VALUES lists. A row may be empty — the printer renders
   a row for a table with no columns left as [()]. *)
let parse_rows st elem =
  let row st =
    expect_tok st Lexer.LPAREN "(";
    rparen st (if peek st = Lexer.RPAREN then [] else comma_list st elem)
  in
  comma_list st row

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let set_ops =
  [ ("UNION", fun st -> if accept_kw st "ALL" then Union_all else Union);
    ("INTERSECT", const Intersect); ("EXCEPT", const Except) ]

let join_kinds =
  let join kind st =
    expect_kw st "JOIN";
    kind
  in
  [ ("JOIN", const Inner); ("INNER", join Inner); ("LEFT", join Left);
    ("RIGHT", join Right); ("CROSS", join Cross) ]

let rec parse_expr_top st = parse_or st

and exprs st = comma_list st parse_expr_top

and parse_or st =
  prod st site_or @@ fun () ->
  binop_level st parse_and (function Lexer.KW "OR" -> Some Or | _ -> None)

and parse_and st =
  prod st site_and @@ fun () ->
  binop_level st parse_not (function Lexer.KW "AND" -> Some And | _ -> None)

and parse_not st =
  prod st site_not @@ fun () ->
  if accept_kw st "NOT" then
    if accept_kw st "EXISTS" then Exists (parens st parse_query, true)
    else Unop (Not, parse_not st)
  else parse_predicate st

and parse_predicate st =
  prod st site_predicate @@ fun () ->
  left_assoc st parse_add predicate_step

(* One comparison or suffix operator after [e], if one is at hand. *)
and predicate_step st e =
  match comparison (peek st) with
  | Some op ->
    advance st;
    Some (Binop (op, e, parse_add st))
  | None -> (
      match (peek st, peek_at st 1) with
      | Lexer.KW "IS", _ ->
        advance st;
        let negated = accept_kw st "NOT" in
        expect_kw st "NULL";
        Some (Is_null (e, negated))
      | Lexer.KW "NOT", Lexer.KW ("IN" | "BETWEEN" | "LIKE") ->
        advance st;
        Some (parse_negatable st e true)
      | Lexer.KW ("IN" | "BETWEEN" | "LIKE"), _ ->
        Some (parse_negatable st e false)
      | _ -> None)

(* [IN (...)], [BETWEEN lo AND hi] or [LIKE pat], keyword at hand. *)
and parse_negatable st e negated =
  match peek st with
  | Lexer.KW "IN" ->
    advance st;
    parse_in st e negated
  | Lexer.KW "BETWEEN" ->
    advance st;
    parse_between st e negated
  | _ ->
    advance st;
    Like { e; pat = parse_add st; negated }

and parse_in st e negated =
  prod st site_in @@ fun () ->
  In_list { e; items = parens st in_items; negated }

(* IN (SELECT ...): the subquery is the single item *)
and in_items st =
  if starts_query st then [ Subquery (parse_query st) ] else exprs st

and parse_between st e negated =
  prod st site_between @@ fun () ->
  let lo = parse_add st in
  expect_kw st "AND";
  let hi = parse_add st in
  Between { e; lo; hi; negated }

and parse_add st =
  prod st site_add @@ fun () ->
  binop_level st parse_mul (function
    | Lexer.PLUS -> Some Add
    | Lexer.MINUS -> Some Sub
    | Lexer.CONCAT -> Some Concat
    | _ -> None)

and parse_mul st =
  prod st site_mul @@ fun () ->
  binop_level st parse_unary (function
    | Lexer.STAR -> Some Mul
    | Lexer.SLASH -> Some Div
    | Lexer.PERCENT -> Some Mod
    | _ -> None)

and parse_unary st =
  prod st site_unary @@ fun () ->
  match peek st with
  | Lexer.MINUS -> (
      advance st;
      (* fold negative numeric literals so that printed values round-trip *)
      match negative_of_token (peek st) with
      | Some l ->
        advance st;
        Lit l
      | None -> Unop (Neg, parse_unary st))
  | Lexer.TILDE ->
    advance st;
    Unop (Bit_not, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  prod st site_primary @@ fun () ->
  match literal_of_token (peek st) with
  | Some l ->
    advance st;
    Lit l
  | None -> (
      match peek st with
      | Lexer.KW "CASE" ->
        advance st;
        let whens = ref [] in
        while accept_kw st "WHEN" do
          let c = parse_expr_top st in
          expect_kw st "THEN";
          whens := (c, parse_expr_top st) :: !whens
        done;
        let else_ = opt_clause st "ELSE" parse_expr_top in
        expect_kw st "END";
        Case (List.rev !whens, else_)
      | Lexer.KW "CAST" ->
        advance st;
        parens st (fun st ->
            let e = parse_expr_top st in
            expect_kw st "AS";
            Cast (e, parse_data_type st))
      | Lexer.KW "EXISTS" ->
        advance st;
        Exists (parens st parse_query, false)
      | Lexer.LPAREN -> parens st parenthesised
      | Lexer.IDENT name -> (
          advance st;
          match peek st with
          | Lexer.LPAREN -> parse_call st name
          | Lexer.DOT ->
            advance st;
            Col (Some name, ident st)
          | _ -> Col (None, name))
      | _ -> fail st "expected expression")

and parse_call st name =
  prod st site_call @@ fun () ->
  match agg_of_name name with
  | Some fn ->
    expect_tok st Lexer.LPAREN "(";
    rparen st
      (if accept_tok st Lexer.STAR then Agg (fn, false, None)
       else
         let distinct = accept_kw st "DISTINCT" in
         Agg (fn, distinct, Some (parse_expr_top st)))
  | None -> (
      let args = parens st call_args in
      match win_of_name name with
      | Some fn ->
        expect_kw st "OVER";
        Win { fn; args; over = parens st parse_over }
      | None -> Fn (String.uppercase_ascii name, args))

and call_args st = if peek st = Lexer.RPAREN then [] else exprs st

and parenthesised st =
  if starts_query st then Subquery (parse_query st) else parse_expr_top st

and parse_over st =
  prod st site_over @@ fun () ->
  let partition_by = by_list st "PARTITION" exprs in
  let w_order_by = by_list st "ORDER" parse_order_list in
  let frame f_kind st =
    expect_kw st "BETWEEN";
    let f_lo = parse_frame_bound st in
    expect_kw st "AND";
    { f_kind; f_lo; f_hi = parse_frame_bound st }
  in
  let frame =
    accept_choice st [ ("ROWS", frame F_rows); ("RANGE", frame F_range) ]
  in
  { partition_by; w_order_by; frame }

and parse_frame_bound st =
  prod st site_frame_bound @@ fun () ->
  let direction preceding following =
    choice st "expected PRECEDING or FOLLOWING"
      [ ("PRECEDING", const preceding); ("FOLLOWING", const following) ]
  in
  match peek st with
  | Lexer.KW "UNBOUNDED" ->
    advance st;
    direction Unbounded_preceding Unbounded_following
  | Lexer.KW "CURRENT" ->
    advance st;
    expect_kw st "ROW";
    Current_row
  | Lexer.INT n ->
    advance st;
    direction (Preceding n) (Following n)
  | _ -> fail st "expected frame bound"

and parse_order_list st =
  prod st site_order_list @@ fun () ->
  comma_list st order_item

and order_item st =
  let e = parse_expr_top st in
  let dir =
    if accept_kw st "ASC" then Asc
    else if accept_kw st "DESC" then Desc
    else Asc
  in
  (e, dir)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

and parse_query st =
  prod st site_query @@ fun () ->
  left_assoc st parse_query_atom set_op_step

(* One set operator and the query after it, if one is at hand. *)
and set_op_step st lhs =
  match accept_choice st set_ops with
  | Some op -> Some (Q_compound (lhs, op, parse_query_atom st))
  | None -> None

and parse_query_atom st =
  prod st site_query_atom @@ fun () ->
  match peek st with
  | Lexer.KW "SELECT" -> Q_select (parse_select st)
  | Lexer.KW "VALUES" ->
    advance st;
    Q_values (parse_rows st parse_expr_top)
  | _ -> fail st "expected SELECT or VALUES"

and parse_select st =
  prod st site_select @@ fun () ->
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let projs = comma_list st parse_proj in
  let from = opt_clause st "FROM" parse_from in
  let where = opt_clause st "WHERE" parse_expr_top in
  let group_by = by_list st "GROUP" exprs in
  let having = opt_clause st "HAVING" parse_expr_top in
  let order_by = by_list st "ORDER" parse_order_list in
  let limit = opt_clause st "LIMIT" int_lit in
  let offset = opt_clause st "OFFSET" int_lit in
  { distinct; projs; from; where; group_by; having; order_by; limit; offset }

and parse_proj st =
  prod st site_proj @@ fun () ->
  match (peek st, peek_at st 1, peek_at st 2) with
  | Lexer.STAR, _, _ ->
    advance st;
    Star
  | Lexer.IDENT t, Lexer.DOT, Lexer.STAR ->
    st.pos <- st.pos + 3;
    Star_of t
  | _ ->
    let e = parse_expr_top st in
    Proj (e, opt_clause st "AS" ident)

and parse_from st =
  prod st site_from @@ fun () ->
  left_assoc st parse_from_atom join_step

(* One join and the table reference after it, if one is at hand. *)
and join_step st left =
  match accept_choice st join_kinds with
  | Some kind ->
    let right = parse_from_atom st in
    let on = opt_clause st "ON" parse_expr_top in
    Some (From_join { left; kind; right; on })
  | None -> None

and parse_from_atom st =
  prod st site_from_atom @@ fun () ->
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    From_table { name; alias = opt_clause st "AS" ident }
  | Lexer.LPAREN ->
    advance st;
    if starts_query st then begin
      let q = rparen st (parse_query st) in
      expect_kw st "AS";
      From_subquery { q; alias = ident st }
    end
    else rparen st (parse_from st)
  | _ -> fail st "expected table reference"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let col_constraints =
  [ ("ZEROFILL", fun _ c -> { c with zerofill = true });
    ("NOT", fun st c -> expect_kw st "NULL"; { c with not_null = true });
    ("PRIMARY", fun st c -> expect_kw st "KEY"; { c with primary_key = true });
    ("UNIQUE", fun _ c -> { c with unique = true });
    ("DEFAULT", fun st c -> { c with default = Some (parse_literal st) }) ]

let rec col_constraints_more st c =
  match take_arm st col_constraints with
  | Some add -> col_constraints_more st (add st c)
  | None -> c

let parse_col_def st =
  prod st site_col_def @@ fun () ->
  let col_name = ident st in
  let col_type = parse_data_type st in
  col_constraints_more st
    { col_name; col_type; not_null = false; primary_key = false;
      unique = false; default = None; zerofill = false }

let parse_trig_event st =
  prod st site_trig_event @@ fun () ->
  choice st "expected INSERT, UPDATE or DELETE"
    [ ("INSERT", const Ev_insert); ("UPDATE", const Ev_update);
      ("DELETE", const Ev_delete) ]

let parse_priv st =
  prod st site_priv @@ fun () ->
  choice st "expected privilege"
    [ ("SELECT", const P_select); ("INSERT", const P_insert);
      ("UPDATE", const P_update); ("DELETE", const P_delete);
      ("ALL", const P_all) ]

let parse_privs st = prod st site_privs @@ fun () -> comma_list st parse_priv

let parse_literal_rows st =
  prod st site_literal_rows @@ fun () -> parse_rows st parse_literal

(* [privs ON table <user_kw> user] *)
let privileges st user_kw =
  let privs = parse_privs st in
  expect_kw st "ON";
  let table = ident st in
  expect_kw st user_kw;
  (privs, table, ident st)

(* [user IDENTIFIED BY 'password'] *)
let user_password st =
  let user = ident st in
  expect_kws st [ "IDENTIFIED"; "BY" ];
  (user, string_lit st)

let parse_create_table st ~temp =
  prod st site_create_table @@ fun () ->
  let if_not_exists = accept_phrase st "IF" [ "NOT"; "EXISTS" ] in
  let name = ident st in
  let cols = paren_list st parse_col_def in
  S_create_table { temp; if_not_exists; name; cols }

let parse_create_index st ~unique =
  prod st site_create_index @@ fun () ->
  let name = ident st in
  expect_kw st "ON";
  let table = ident st in
  S_create_index { unique; name; table; cols = paren_list st ident }

let parse_create_view st ~materialized =
  prod st site_create_view @@ fun () ->
  let name = ident st in
  expect_kw st "AS";
  S_create_view { materialized; name; query = parse_query st }

(* DROP targets: the object kind picks how the name that follows the
   optional [IF EXISTS] is read. *)
let drop_targets =
  let named kind mk = (kind, const (fun st -> mk (ident st))) in
  [ named "TABLE" (fun n -> D_table n); named "INDEX" (fun n -> D_index n);
    named "VIEW" (fun n -> D_view n); named "TRIGGER" (fun n -> D_trigger n);
    ("RULE",
     const (fun st ->
         let name = ident st in
         expect_kw st "ON";
         D_rule (name, ident st)));
    named "SEQUENCE" (fun n -> D_sequence n);
    named "SCHEMA" (fun n -> D_schema n);
    named "DATABASE" (fun n -> D_database n); named "USER" (fun n -> D_user n) ]

let parse_drop st =
  prod st site_drop @@ fun () ->
  let target = choice st "expected object kind after DROP" drop_targets in
  let if_exists = accept_phrase st "IF" [ "EXISTS" ] in
  S_drop { target = target st; if_exists }

let alter_actions =
  [ ("ADD", fun st -> expect_kw st "COLUMN"; Add_column (parse_col_def st));
    ("DROP", fun st -> expect_kw st "COLUMN"; Drop_column (ident st));
    ("RENAME",
     fun st ->
       if accept_kw st "TO" then Rename_to (ident st)
       else begin
         expect_kw st "COLUMN";
         let a, b = rename_pair st in
         Rename_column (a, b)
       end);
    ("ALTER",
     fun st ->
       expect_kw st "COLUMN";
       let c = ident st in
       expect_kw st "TYPE";
       Alter_column_type (c, parse_data_type st)) ]

let alter_kinds =
  [ ("TABLE",
     fun st ->
       let table = ident st in
       let action = choice st "expected ALTER TABLE action" alter_actions in
       S_alter_table (table, action));
    ("SEQUENCE",
     fun st ->
       let name = ident st in
       expect_kws st [ "INCREMENT"; "BY" ];
       S_alter_sequence { name; step = signed_int st });
    ("USER",
     fun st ->
       let user, password = user_password st in
       S_alter_user { user; password });
    ("SYSTEM", fun st -> S_alter_system (ident st)) ]

let parse_alter st =
  prod st site_alter @@ fun () ->
  choice st "expected TABLE, SEQUENCE, USER or SYSTEM after ALTER" alter_kinds

let parse_insert_body st =
  prod st site_insert @@ fun () ->
  let i_ignore = accept_kw st "IGNORE" in
  expect_kw st "INTO";
  let i_table = ident st in
  let i_cols =
    if peek st = Lexer.LPAREN then paren_list st ident else []
  in
  let i_source =
    if accept_kw st "VALUES" then Src_values (parse_rows st parse_expr_top)
    else Src_query (parse_query st)
  in
  { i_table; i_cols; i_source; i_ignore }

let parse_update_body st =
  prod st site_update @@ fun () ->
  let u_table = ident st in
  expect_kw st "SET";
  let u_sets = comma_list st (fun st -> assignment st parse_expr_top) in
  let u_where = opt_clause st "WHERE" parse_expr_top in
  let u_limit = opt_clause st "LIMIT" int_lit in
  { u_table; u_sets; u_where; u_limit }

let parse_delete_body st =
  prod st site_delete @@ fun () ->
  expect_kw st "FROM";
  let d_table = ident st in
  let d_where = opt_clause st "WHERE" parse_expr_top in
  let d_limit = opt_clause st "LIMIT" int_lit in
  { d_table; d_where; d_limit }

(* [STDOUT [CSV HEADER]], after the TO of a COPY *)
let copy_to st src =
  expect_kw st "STDOUT";
  S_copy_to { src; header = accept_phrase st "CSV" [ "HEADER" ] }

let parse_copy st =
  prod st site_copy @@ fun () ->
  if peek st = Lexer.LPAREN then begin
    let q = parens st parse_query in
    expect_kw st "TO";
    copy_to st (Cs_query q)
  end
  else begin
    let table = ident st in
    choice st "expected TO or FROM in COPY"
      [ ("TO", fun st -> copy_to st (Cs_table table));
        ("FROM",
         fun st ->
           expect_kw st "STDIN";
           let rows =
             if peek st = Lexer.LPAREN then parse_literal_rows st else []
           in
           S_copy_from { table; rows }) ]
  end

let parse_with_body st =
  prod st site_with_body @@ fun () ->
  if starts_query st then W_query (parse_query st)
  else
    choice st "expected query or DML in WITH body"
      [ ("INSERT", fun st -> W_insert (parse_insert_body st));
        ("UPDATE", fun st -> W_update (parse_update_body st));
        ("DELETE", fun st -> W_delete (parse_delete_body st)) ]

let parse_with st =
  prod st site_with @@ fun () ->
  let ctes =
    comma_list st (fun st ->
        let cte_name = ident st in
        expect_kw st "AS";
        { cte_name; cte_body = parens st parse_with_body })
  in
  S_with { ctes; body = parse_with_body st }

let set_var global st =
  let name, value = assignment st parse_literal in
  S_set_var { global; name; value }

let set_targets =
  [ ("ROLE", fun st -> S_set_role (ident st));
    ("TRANSACTION",
     fun st ->
       expect_kws st [ "ISOLATION"; "LEVEL" ];
       S_set_transaction
         (choice st "expected isolation level"
            [ ("READ", fun st -> expect_kw st "COMMITTED"; Read_committed);
              ("REPEATABLE", fun st -> expect_kw st "READ"; Repeatable_read);
              ("SERIALIZABLE", const Serializable) ]));
    ("GLOBAL", set_var true);
    ("NAMES", fun st -> S_set_names (ident st)) ]

let parse_set st =
  prod st site_set @@ fun () ->
  match peek st with
  | Lexer.IDENT _ -> set_var false st
  | _ -> choice st "expected SET target" set_targets

let create_kinds =
  [ ("TEMPORARY",
     fun st ->
       expect_kw st "TABLE";
       parse_create_table st ~temp:true);
    ("TABLE", parse_create_table ~temp:false);
    ("UNIQUE",
     fun st ->
       expect_kw st "INDEX";
       parse_create_index st ~unique:true);
    ("INDEX", parse_create_index ~unique:false);
    ("MATERIALIZED",
     fun st ->
       expect_kw st "VIEW";
       parse_create_view st ~materialized:true);
    ("VIEW", parse_create_view ~materialized:false);
    ("SEQUENCE",
     fun st ->
       let name = ident st in
       let by k then_ =
         if accept_phrase st k [ then_ ] then signed_int st else 1
       in
       let start = by "START" "WITH" in
       S_create_sequence { name; start; step = by "INCREMENT" "BY" });
    ("SCHEMA", fun st -> S_create_schema (ident st));
    ("DATABASE", fun st -> S_create_database (ident st));
    ("USER",
     fun st ->
       let user, password = user_password st in
       S_create_user { user; password }) ]

(* Statement heads of one fixed shape each: the head keyword, then the
   keywords [kws], then nothing, a name or an optional name. *)
let fixed_heads =
  let bare kws k s = (k, fun st -> expect_kws st kws; s) in
  let named kws k mk = (k, fun st -> expect_kws st kws; mk (ident st)) in
  let opt_named k mk = (k, fun st -> mk (opt_ident st)) in
  [ bare [] "BEGIN" S_begin; bare [] "COMMIT" S_commit;
    bare [] "CHECKPOINT" S_checkpoint;
    bare [ "TABLES" ] "UNLOCK" S_unlock_tables;
    named [] "TABLE" (fun t -> S_table t);
    named [] "DESCRIBE" (fun t -> S_describe t);
    named [] "SAVEPOINT" (fun s -> S_savepoint s);
    named [ "SAVEPOINT" ] "RELEASE" (fun s -> S_release_savepoint s);
    named [] "RESET" (fun v -> S_reset_var v);
    named [] "LISTEN" (fun c -> S_listen c);
    named [] "UNLISTEN" (fun c -> S_unlisten c);
    named [] "EXECUTE" (fun p -> S_execute p);
    named [] "DEALLOCATE" (fun p -> S_deallocate p);
    named [] "USE" (fun d -> S_use d);
    named [ "TABLE" ] "OPTIMIZE" (fun t -> S_optimize t);
    named [ "TABLE" ] "CHECK" (fun t -> S_check_table t);
    named [ "TABLE" ] "REPAIR" (fun t -> S_repair t);
    named [ "MATERIALIZED"; "VIEW" ] "REFRESH" (fun v -> S_refresh_matview v);
    opt_named "VACUUM" (fun t -> S_vacuum t);
    opt_named "ANALYZE" (fun t -> S_analyze t);
    opt_named "REINDEX" (fun t -> S_reindex t);
    opt_named "CLUSTER" (fun t -> S_cluster t) ]

(* The heads that need no nested statement, the common ones first. *)
let stmt_heads =
  [ ("INSERT", fun st -> S_insert (parse_insert_body st));
    ("UPDATE", fun st -> S_update (parse_update_body st));
    ("DELETE", fun st -> S_delete (parse_delete_body st));
    ("DROP", parse_drop);
    ("ALTER", parse_alter);
    ("REPLACE", fun st -> S_replace (parse_insert_body st));
    ("WITH", parse_with);
    ("SET", parse_set);
    ("RENAME",
     fun st ->
       expect_kw st "TABLE";
       S_rename_table (comma_list st rename_pair));
    ("TRUNCATE",
     fun st ->
       ignore (accept_kw st "TABLE");
       S_truncate (ident st));
    ("COMMENT",
     fun st ->
       expect_kws st [ "ON"; "TABLE" ];
       let table = ident st in
       expect_kw st "IS";
       S_comment_on { table; comment = string_lit st });
    ("COPY", parse_copy);
    ("LOAD",
     fun st ->
       expect_kws st [ "DATA"; "INTO" ];
       let table = ident st in
       let rows = if accept_kw st "VALUES" then parse_literal_rows st else [] in
       S_load_data { table; rows });
    ("SHOW",
     fun st ->
       S_show
         (choice st "expected TABLES, COLUMNS, VARIABLES or STATUS"
            [ ("TABLES", const Sh_tables);
              ("COLUMNS",
               fun st ->
                 expect_kw st "FROM";
                 Sh_columns (ident st));
              ("VARIABLES", const Sh_variables); ("STATUS", const Sh_status)
            ]));
    ("GRANT",
     fun st ->
       let privs, table, user = privileges st "TO" in
       S_grant { privs; table; user });
    ("REVOKE",
     fun st ->
       let privs, table, user = privileges st "FROM" in
       S_revoke { privs; table; user });
    ("ROLLBACK",
     fun st ->
       if accept_phrase st "TO" [ "SAVEPOINT" ] then S_rollback_to (ident st)
       else S_rollback);
    ("LOCK",
     fun st ->
       expect_kw st "TABLES";
       S_lock_tables
         (comma_list st (fun st ->
              let t = ident st in
              ( t,
                choice st "expected READ or WRITE"
                  [ ("READ", const Lk_read); ("WRITE", const Lk_write) ] ))));
    ("PRAGMA",
     fun st ->
       let name = ident st in
       let value =
         if accept_tok st Lexer.EQ then Some (parse_literal st) else None
       in
       S_pragma { name; value });
    ("FLUSH",
     fun st ->
       S_flush
         (choice st "expected TABLES, STATUS or PRIVILEGES"
            [ ("TABLES", const Fl_tables); ("STATUS", const Fl_status);
              ("PRIVILEGES", const Fl_privileges) ]));
    ("NOTIFY",
     fun st ->
       let channel = ident st in
       let payload =
         if accept_tok st Lexer.COMMA then Some (string_lit st) else None
       in
       S_notify { channel; payload });
    ("DISCARD",
     fun st ->
       S_discard
         (choice st "expected ALL, TEMP or PLANS"
            [ ("ALL", const Disc_all); ("TEMP", const Disc_temp);
              ("PLANS", const Disc_plans) ]));
    ("DO", fun st -> S_do (parse_expr_top st));
    ("HANDLER",
     fun st ->
       let table = ident st in
       choice st "expected OPEN, READ or CLOSE"
         [ ("OPEN", const (S_handler_open table));
           ("CLOSE", const (S_handler_close table));
           ("READ",
            fun st ->
              let dir =
                choice st "expected FIRST or NEXT"
                  [ ("FIRST", const H_first); ("NEXT", const H_next) ]
              in
              S_handler_read { table; dir }) ]);
    ("KILL", fun st -> S_kill (int_lit st)) ]
  @ fixed_heads

let rec parse_stmt st =
  prod st site_stmt @@ fun () ->
  (* the head keyword names the statement kind: record its token-class
     site as a child of [stmt] so per-statement rule pairs exist without
     a site per match arm *)
  (match (st.grammar, peek st) with
   | Some g, (Lexer.KW _ as tok) ->
     record st.log g ~site:(Lexer.token_site tok) ~parent:site_stmt
   | _ -> ());
  if starts_query st then S_select (parse_query st)
  else choice st "expected statement" nested_heads

(* The heads that nest statements, in front of the others. *)
and nested_heads =
  ("CREATE", fun st -> parse_create st)
  :: ("EXPLAIN", fun st -> S_explain (parse_stmt st))
  :: ("PREPARE",
      fun st ->
        let name = ident st in
        expect_kw st "AS";
        S_prepare { name; stmt = parse_stmt st })
  :: stmt_heads

and parse_create st =
  prod st site_create @@ fun () ->
  choice st "expected object kind after CREATE" nested_create_kinds

and nested_create_kinds =
  ("TRIGGER",
   fun st ->
     let name = ident st in
     let timing =
       choice st "expected BEFORE or AFTER"
         [ ("BEFORE", const Before); ("AFTER", const After) ]
     in
     let event = parse_trig_event st in
     expect_kw st "ON";
     let table = ident st in
     expect_kws st [ "FOR"; "EACH"; "ROW" ];
     let body =
       if accept_kw st "BEGIN" then begin
         let stmts = ref [] in
         while peek st <> Lexer.KW "END" do
           stmts := parse_stmt st :: !stmts;
           expect_tok st Lexer.SEMI ";"
         done;
         expect_kw st "END";
         List.rev !stmts
       end
       else [ parse_stmt st ]
     in
     S_create_trigger { name; timing; event; table; body })
  :: ("RULE",
      fun st ->
        let name = ident st in
        expect_kws st [ "AS"; "ON" ];
        let event = parse_trig_event st in
        expect_kw st "TO";
        let table = ident st in
        expect_kw st "DO";
        let instead = accept_kw st "INSTEAD" in
        let action =
          match
            accept_choice st
              [ ("NOTHING", const Ra_nothing);
                ("NOTIFY", fun st -> Ra_notify (ident st)) ]
          with
          | Some action -> action
          | None -> Ra_stmt (parse_stmt st)
        in
        S_create_rule { name; table; event; instead; action })
  :: create_kinds

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The lexer's contribution: every token class fired by the input, as
   children of the root production. *)
let record_tokens log g toks =
  Array.iter
    (fun tok ->
       if tok <> Lexer.EOF then
         record log g ~site:(Lexer.token_site tok) ~parent:site_root)
    toks

let with_state ?grammar input f =
  try
    let toks = Lexer.tokenize input in
    Option.iter (fun g -> record_tokens None g toks) grammar;
    let st = { toks; pos = 0; grammar; log = None; parent = site_root } in
    Ok (f st)
  with
  | Parse_error msg -> Error msg
  | Lexer.Lex_error (msg, pos) ->
    Error (Printf.sprintf "lex error: %s at offset %d" msg pos)

let finish_eof st =
  if peek st <> Lexer.EOF then fail st "trailing input"

let parse_testcase_state st =
  prod st site_testcase @@ fun () ->
  let stmts = ref [] in
  while peek st = Lexer.SEMI do
    advance st
  done;
  while peek st <> Lexer.EOF do
    stmts := parse_stmt st :: !stmts;
    if peek st <> Lexer.EOF then expect_tok st Lexer.SEMI ";";
    while peek st = Lexer.SEMI do
      advance st
    done
  done;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Grammar coverage from per-statement traces                          *)
(* ------------------------------------------------------------------ *)

(* [parse_testcase ~grammar] on a printed testcase [s1;\n s2;\n ... sn;]
   records, in order: the token classes of the whole text under the
   root, the testcase production under the root, then each statement's
   productions under the testcase. The token stream of the whole text is
   the concatenation of the streams of [si ^ ";"]: a [';'] outside a
   string always ends a token, and a trailing line comment that
   swallows it ends at the newline that follows in the whole text, just
   as it ends at the end of [si ^ ";"] alone. A statement that parses
   alone from its tokens and stops exactly on the final [';'] decides
   every step as it would in the whole text — no production looks
   past a [';'] — so its productions are the same too. Each statement's
   share is therefore a function of its text alone. *)

(* A statement's token-class records, then its productions'. *)
type stmt_trace = string

let stmt_trace_bytes = String.length

type pending =
  | Known of stmt_trace
  | Lexed of string * Lexer.token array * int * int
      (* text, tokens, and the span of the log holding its token classes *)

let testcase_grammar g log ~find ~add stmts =
  Coverage.Grammar.log_clear log;
  (* Phase 1: token classes, statement by statement. A miss tokenizes
     its text once and keeps the tokens for phase 2. *)
  let lex text =
    match find text with
    | Some tr ->
      Coverage.Grammar.replay_first g tr;
      Known tr
    | None ->
      let toks = Lexer.tokenize (text ^ ";") in
      let pos = Coverage.Grammar.log_length log in
      record_tokens (Some log) g toks;
      Lexed (text, toks, pos, Coverage.Grammar.log_length log - pos)
  in
  (* Phase 2: the productions, each statement parsed (or replayed) as if
     it sat inside the testcase. *)
  let parse = function
    | Known tr -> Coverage.Grammar.replay_second g tr
    | Lexed (text, toks, lex_pos, lex_len) ->
      let pos = Coverage.Grammar.log_length log in
      let st =
        { toks; pos = 0; grammar = Some g; log = Some log;
          parent = site_testcase }
      in
      ignore (parse_stmt st);
      let last = Array.length toks - 2 in
      if st.pos <> last || toks.(last) <> Lexer.SEMI then
        fail st "statement does not end at its ';'";
      add text
        (Coverage.Grammar.trace_of_log log ~first:(lex_pos, lex_len)
           ~second:(pos, Coverage.Grammar.log_length log - pos))
  in
  try
    let pending = List.map lex stmts in
    Coverage.Grammar.record g ~site:site_testcase ~parent:site_root;
    List.iter parse pending;
    true
  with Parse_error _ | Lexer.Lex_error _ -> false

let parse_testcase ?grammar input =
  with_state ?grammar input parse_testcase_state

let parse_stmt_state st =
  let s = parse_stmt st in
  let _ = accept_tok st Lexer.SEMI in
  finish_eof st;
  s

let parse_stmt ?grammar input = with_state ?grammar input parse_stmt_state

let parse_expr ?grammar input =
  with_state ?grammar input (fun st ->
      let e = parse_expr_top st in
      finish_eof st;
      e)

let parse_testcase_exn ?grammar input =
  match parse_testcase ?grammar input with
  | Ok tc -> tc
  | Error msg -> raise (Parse_error msg)

let parse_stmt_exn ?grammar input =
  match parse_stmt ?grammar input with
  | Ok s -> s
  | Error msg -> raise (Parse_error msg)
