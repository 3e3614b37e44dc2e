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

let next st =
  let t = peek st in
  advance st;
  t

let fail st msg =
  let tok = Format.asprintf "%a" Lexer.pp_token (peek st) in
  raise
    (Parse_error (Printf.sprintf "%s (at token %d: %s)" msg st.pos tok))

let expect_kw st k =
  match next st with
  | Lexer.KW k' when k' = k -> ()
  | _ ->
    st.pos <- st.pos - 1;
    fail st (Printf.sprintf "expected %s" k)

let accept_kw st k =
  match peek st with
  | Lexer.KW k' when k' = k ->
    advance st;
    true
  | _ -> false

let expect_tok st tok what =
  if peek st = tok then advance st else fail st ("expected " ^ what)

let accept_tok st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match next st with
  | Lexer.IDENT i -> i
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected identifier"

let int_lit st =
  match next st with
  | Lexer.INT n -> n
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected integer"

let string_lit st =
  match next st with
  | Lexer.STRING s -> s
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected string literal"

let parse_literal st =
  prod st site_literal @@ fun () ->
  match next st with
  | Lexer.INT n -> L_int n
  | Lexer.FLOAT f -> L_float f
  | Lexer.STRING s -> L_string s
  | Lexer.KW "NULL" -> L_null
  | Lexer.KW "TRUE" -> L_bool true
  | Lexer.KW "FALSE" -> L_bool false
  | Lexer.MINUS ->
    (match next st with
     | Lexer.INT n -> L_int (-n)
     | Lexer.FLOAT f -> L_float (-.f)
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected number after '-'")
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected literal"

let parse_data_type st =
  prod st site_data_type @@ fun () ->
  match next st with
  | Lexer.KW "INT" | Lexer.KW "INTEGER" -> T_int
  | Lexer.KW "FLOAT" -> T_float
  | Lexer.KW "TEXT" -> T_text
  | Lexer.KW "BOOL" | Lexer.KW "BOOLEAN" -> T_bool
  | Lexer.KW "YEAR" -> T_year
  | Lexer.KW "VARCHAR" ->
    expect_tok st Lexer.LPAREN "(";
    let n = int_lit st in
    expect_tok st Lexer.RPAREN ")";
    T_varchar n
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected data type"

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

let starts_query st =
  match peek st with
  | Lexer.KW "SELECT" | Lexer.KW "VALUES" -> true
  | _ -> false

(* [(e, ...), (e, ...), ...]: comma-separated parenthesised rows of
   [elem]s, as in VALUES lists. A row may be empty — the printer renders
   a row for a table with no columns left as [()]. *)
let parse_rows st elem =
  let row () =
    expect_tok st Lexer.LPAREN "(";
    if accept_tok st Lexer.RPAREN then []
    else begin
      let es = ref [ elem st ] in
      while accept_tok st Lexer.COMMA do
        es := elem st :: !es
      done;
      expect_tok st Lexer.RPAREN ")";
      List.rev !es
    end
  in
  let rows = ref [ row () ] in
  while accept_tok st Lexer.COMMA do
    rows := row () :: !rows
  done;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr_top st = parse_or st

and parse_or st =
  prod st site_or @@ fun () ->
  let lhs = ref (parse_and st) in
  while accept_kw st "OR" do
    let rhs = parse_and st in
    lhs := Binop (Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  prod st site_and @@ fun () ->
  let lhs = ref (parse_not st) in
  while accept_kw st "AND" do
    let rhs = parse_not st in
    lhs := Binop (And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  prod st site_not @@ fun () ->
  if accept_kw st "NOT" then
    if peek st = Lexer.KW "EXISTS" then begin
      advance st;
      expect_tok st Lexer.LPAREN "(";
      let q = parse_query st in
      expect_tok st Lexer.RPAREN ")";
      Exists (q, true)
    end
    else Unop (Not, parse_not st)
  else parse_predicate st

and parse_predicate st =
  prod st site_predicate @@ fun () ->
  let e = ref (parse_add st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.EQ ->
      advance st;
      e := Binop (Eq, !e, parse_add st)
    | Lexer.NEQ ->
      advance st;
      e := Binop (Neq, !e, parse_add st)
    | Lexer.LT ->
      advance st;
      e := Binop (Lt, !e, parse_add st)
    | Lexer.LE ->
      advance st;
      e := Binop (Le, !e, parse_add st)
    | Lexer.GT ->
      advance st;
      e := Binop (Gt, !e, parse_add st)
    | Lexer.GE ->
      advance st;
      e := Binop (Ge, !e, parse_add st)
    | Lexer.KW "IS" ->
      advance st;
      let negated = accept_kw st "NOT" in
      expect_kw st "NULL";
      e := Is_null (!e, negated)
    | Lexer.KW "IN" ->
      advance st;
      e := parse_in st !e false
    | Lexer.KW "BETWEEN" ->
      advance st;
      e := parse_between st !e false
    | Lexer.KW "LIKE" ->
      advance st;
      e := Like { e = !e; pat = parse_add st; negated = false }
    | Lexer.KW "NOT" -> begin
        match peek_at st 1 with
        | Lexer.KW "IN" ->
          advance st;
          advance st;
          e := parse_in st !e true
        | Lexer.KW "BETWEEN" ->
          advance st;
          advance st;
          e := parse_between st !e true
        | Lexer.KW "LIKE" ->
          advance st;
          advance st;
          e := Like { e = !e; pat = parse_add st; negated = true }
        | _ -> continue := false
      end
    | _ -> continue := false
  done;
  !e

and parse_in st e negated =
  prod st site_in @@ fun () ->
  expect_tok st Lexer.LPAREN "(";
  if starts_query st then begin
    (* IN (SELECT ...): the subquery is the single item *)
    let q = parse_query st in
    expect_tok st Lexer.RPAREN ")";
    In_list { e; items = [ Subquery q ]; negated }
  end
  else begin
    let items = ref [ parse_expr_top st ] in
    while accept_tok st Lexer.COMMA do
      items := parse_expr_top st :: !items
    done;
    expect_tok st Lexer.RPAREN ")";
    In_list { e; items = List.rev !items; negated }
  end

and parse_between st e negated =
  prod st site_between @@ fun () ->
  let lo = parse_add st in
  expect_kw st "AND";
  let hi = parse_add st in
  Between { e; lo; hi; negated }

and parse_add st =
  prod st site_add @@ fun () ->
  let lhs = ref (parse_mul st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.PLUS ->
      advance st;
      lhs := Binop (Add, !lhs, parse_mul st)
    | Lexer.MINUS ->
      advance st;
      lhs := Binop (Sub, !lhs, parse_mul st)
    | Lexer.CONCAT ->
      advance st;
      lhs := Binop (Concat, !lhs, parse_mul st)
    | _ -> continue := false
  done;
  !lhs

and parse_mul st =
  prod st site_mul @@ fun () ->
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.STAR ->
      advance st;
      lhs := Binop (Mul, !lhs, parse_unary st)
    | Lexer.SLASH ->
      advance st;
      lhs := Binop (Div, !lhs, parse_unary st)
    | Lexer.PERCENT ->
      advance st;
      lhs := Binop (Mod, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  prod st site_unary @@ fun () ->
  match peek st with
  | Lexer.MINUS -> (
      advance st;
      (* fold negative numeric literals so that printed values round-trip *)
      match peek st with
      | Lexer.INT n ->
        advance st;
        Lit (L_int (-n))
      | Lexer.FLOAT f ->
        advance st;
        Lit (L_float (-.f))
      | _ -> Unop (Neg, parse_unary st))
  | Lexer.TILDE ->
    advance st;
    Unop (Bit_not, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  prod st site_primary @@ fun () ->
  match peek st with
  | Lexer.INT n ->
    advance st;
    Lit (L_int n)
  | Lexer.FLOAT f ->
    advance st;
    Lit (L_float f)
  | Lexer.STRING s ->
    advance st;
    Lit (L_string s)
  | Lexer.KW "NULL" ->
    advance st;
    Lit L_null
  | Lexer.KW "TRUE" ->
    advance st;
    Lit (L_bool true)
  | Lexer.KW "FALSE" ->
    advance st;
    Lit (L_bool false)
  | Lexer.KW "CASE" ->
    advance st;
    let whens = ref [] in
    while accept_kw st "WHEN" do
      let c = parse_expr_top st in
      expect_kw st "THEN";
      let v = parse_expr_top st in
      whens := (c, v) :: !whens
    done;
    let else_ = if accept_kw st "ELSE" then Some (parse_expr_top st) else None in
    expect_kw st "END";
    Case (List.rev !whens, else_)
  | Lexer.KW "CAST" ->
    advance st;
    expect_tok st Lexer.LPAREN "(";
    let e = parse_expr_top st in
    expect_kw st "AS";
    let dt = parse_data_type st in
    expect_tok st Lexer.RPAREN ")";
    Cast (e, dt)
  | Lexer.KW "EXISTS" ->
    advance st;
    expect_tok st Lexer.LPAREN "(";
    let q = parse_query st in
    expect_tok st Lexer.RPAREN ")";
    Exists (q, false)
  | Lexer.LPAREN ->
    advance st;
    if starts_query st then begin
      let q = parse_query st in
      expect_tok st Lexer.RPAREN ")";
      Subquery q
    end
    else begin
      let e = parse_expr_top st in
      expect_tok st Lexer.RPAREN ")";
      e
    end
  | Lexer.IDENT name ->
    advance st;
    (match peek st with
     | Lexer.LPAREN -> parse_call st name
     | Lexer.DOT ->
       advance st;
       let col = ident st in
       Col (Some name, col)
     | _ -> Col (None, name))
  | _ -> fail st "expected expression"

and parse_call st name =
  prod st site_call @@ fun () ->
  expect_tok st Lexer.LPAREN "(";
  match agg_of_name name with
  | Some fn ->
    if accept_tok st Lexer.STAR then begin
      expect_tok st Lexer.RPAREN ")";
      Agg (fn, false, None)
    end
    else begin
      let distinct = accept_kw st "DISTINCT" in
      let e = parse_expr_top st in
      expect_tok st Lexer.RPAREN ")";
      Agg (fn, distinct, Some e)
    end
  | None ->
    let args = ref [] in
    if peek st <> Lexer.RPAREN then begin
      args := [ parse_expr_top st ];
      while accept_tok st Lexer.COMMA do
        args := parse_expr_top st :: !args
      done
    end;
    expect_tok st Lexer.RPAREN ")";
    let args = List.rev !args in
    (match win_of_name name with
     | Some fn ->
       expect_kw st "OVER";
       expect_tok st Lexer.LPAREN "(";
       let over = parse_over st in
       expect_tok st Lexer.RPAREN ")";
       Win { fn; args; over }
     | None -> Fn (String.uppercase_ascii name, args))

and parse_over st =
  prod st site_over @@ fun () ->
  let partition_by =
    if accept_kw st "PARTITION" then begin
      expect_kw st "BY";
      let es = ref [ parse_expr_top st ] in
      while accept_tok st Lexer.COMMA do
        es := parse_expr_top st :: !es
      done;
      List.rev !es
    end
    else []
  in
  let w_order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      parse_order_list st
    end
    else []
  in
  let frame =
    match peek st with
    | Lexer.KW "ROWS" | Lexer.KW "RANGE" ->
      let f_kind =
        match next st with
        | Lexer.KW "ROWS" -> F_rows
        | _ -> F_range
      in
      expect_kw st "BETWEEN";
      let f_lo = parse_frame_bound st in
      expect_kw st "AND";
      let f_hi = parse_frame_bound st in
      Some { f_kind; f_lo; f_hi }
    | _ -> None
  in
  { partition_by; w_order_by; frame }

and parse_frame_bound st =
  prod st site_frame_bound @@ fun () ->
  match next st with
  | Lexer.KW "UNBOUNDED" ->
    (match next st with
     | Lexer.KW "PRECEDING" -> Unbounded_preceding
     | Lexer.KW "FOLLOWING" -> Unbounded_following
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected PRECEDING or FOLLOWING")
  | Lexer.KW "CURRENT" ->
    expect_kw st "ROW";
    Current_row
  | Lexer.INT n ->
    (match next st with
     | Lexer.KW "PRECEDING" -> Preceding n
     | Lexer.KW "FOLLOWING" -> Following n
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected PRECEDING or FOLLOWING")
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected frame bound"

and parse_order_list st =
  prod st site_order_list @@ fun () ->
  let item () =
    let e = parse_expr_top st in
    let dir =
      if accept_kw st "ASC" then Asc
      else if accept_kw st "DESC" then Desc
      else Asc
    in
    (e, dir)
  in
  let items = ref [ item () ] in
  while accept_tok st Lexer.COMMA do
    items := item () :: !items
  done;
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

and parse_query st =
  prod st site_query @@ fun () ->
  let lhs = ref (parse_query_atom st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.KW "UNION" ->
      advance st;
      let op = if accept_kw st "ALL" then Union_all else Union in
      lhs := Q_compound (!lhs, op, parse_query_atom st)
    | Lexer.KW "INTERSECT" ->
      advance st;
      lhs := Q_compound (!lhs, Intersect, parse_query_atom st)
    | Lexer.KW "EXCEPT" ->
      advance st;
      lhs := Q_compound (!lhs, Except, parse_query_atom st)
    | _ -> continue := false
  done;
  !lhs

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
  let projs = ref [ parse_proj st ] in
  while accept_tok st Lexer.COMMA do
    projs := parse_proj st :: !projs
  done;
  let from = if accept_kw st "FROM" then Some (parse_from st) else None in
  let where = if accept_kw st "WHERE" then Some (parse_expr_top st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let es = ref [ parse_expr_top st ] in
      while accept_tok st Lexer.COMMA do
        es := parse_expr_top st :: !es
      done;
      List.rev !es
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr_top st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      parse_order_list st
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (int_lit st) else None in
  let offset = if accept_kw st "OFFSET" then Some (int_lit st) else None in
  { distinct; projs = List.rev !projs; from; where; group_by; having;
    order_by; limit; offset }

and parse_proj st =
  prod st site_proj @@ fun () ->
  match (peek st, peek_at st 1, peek_at st 2) with
  | Lexer.STAR, _, _ ->
    advance st;
    Star
  | Lexer.IDENT t, Lexer.DOT, Lexer.STAR ->
    advance st;
    advance st;
    advance st;
    Star_of t
  | _ ->
    let e = parse_expr_top st in
    let alias = if accept_kw st "AS" then Some (ident st) else None in
    Proj (e, alias)

and parse_from st =
  prod st site_from @@ fun () ->
  let lhs = ref (parse_from_atom st) in
  let continue = ref true in
  while !continue do
    let kind =
      match peek st with
      | Lexer.KW "JOIN" ->
        advance st;
        Some Inner
      | Lexer.KW "INNER" ->
        advance st;
        expect_kw st "JOIN";
        Some Inner
      | Lexer.KW "LEFT" ->
        advance st;
        expect_kw st "JOIN";
        Some Left
      | Lexer.KW "RIGHT" ->
        advance st;
        expect_kw st "JOIN";
        Some Right
      | Lexer.KW "CROSS" ->
        advance st;
        expect_kw st "JOIN";
        Some Cross
      | _ -> None
    in
    match kind with
    | None -> continue := false
    | Some kind ->
      let right = parse_from_atom st in
      let on = if accept_kw st "ON" then Some (parse_expr_top st) else None in
      lhs := From_join { left = !lhs; kind; right; on }
  done;
  !lhs

and parse_from_atom st =
  prod st site_from_atom @@ fun () ->
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    let alias = if accept_kw st "AS" then Some (ident st) else None in
    From_table { name; alias }
  | Lexer.LPAREN ->
    advance st;
    if starts_query st then begin
      let q = parse_query st in
      expect_tok st Lexer.RPAREN ")";
      expect_kw st "AS";
      let alias = ident st in
      From_subquery { q; alias }
    end
    else begin
      let f = parse_from st in
      expect_tok st Lexer.RPAREN ")";
      f
    end
  | _ -> fail st "expected table reference"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_col_def st =
  prod st site_col_def @@ fun () ->
  let col_name = ident st in
  let col_type = parse_data_type st in
  let not_null = ref false in
  let primary_key = ref false in
  let unique = ref false in
  let default = ref None in
  let zerofill = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.KW "ZEROFILL" ->
      advance st;
      zerofill := true
    | Lexer.KW "NOT" ->
      advance st;
      expect_kw st "NULL";
      not_null := true
    | Lexer.KW "PRIMARY" ->
      advance st;
      expect_kw st "KEY";
      primary_key := true
    | Lexer.KW "UNIQUE" ->
      advance st;
      unique := true
    | Lexer.KW "DEFAULT" ->
      advance st;
      default := Some (parse_literal st)
    | _ -> continue := false
  done;
  { col_name; col_type; not_null = !not_null; primary_key = !primary_key;
    unique = !unique; default = !default; zerofill = !zerofill }

let parse_trig_event st =
  prod st site_trig_event @@ fun () ->
  match next st with
  | Lexer.KW "INSERT" -> Ev_insert
  | Lexer.KW "UPDATE" -> Ev_update
  | Lexer.KW "DELETE" -> Ev_delete
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected INSERT, UPDATE or DELETE"

let parse_priv st =
  prod st site_priv @@ fun () ->
  match next st with
  | Lexer.KW "SELECT" -> P_select
  | Lexer.KW "INSERT" -> P_insert
  | Lexer.KW "UPDATE" -> P_update
  | Lexer.KW "DELETE" -> P_delete
  | Lexer.KW "ALL" -> P_all
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected privilege"

let parse_literal_rows st =
  prod st site_literal_rows @@ fun () -> parse_rows st parse_literal

let rec parse_stmt st =
  prod st site_stmt @@ fun () ->
  (* the head keyword names the statement kind: record its token-class
     site as a child of [stmt] so per-statement rule pairs exist without
     a site per match arm *)
  (match (st.grammar, peek st) with
   | Some g, (Lexer.KW _ as tok) ->
     record st.log g ~site:(Lexer.token_site tok) ~parent:site_stmt
   | _ -> ());
  parse_stmt_body st

and parse_stmt_body st =
  match peek st with
  | Lexer.KW "CREATE" ->
    advance st;
    parse_create st
  | Lexer.KW "DROP" ->
    advance st;
    parse_drop st
  | Lexer.KW "ALTER" ->
    advance st;
    parse_alter st
  | Lexer.KW "RENAME" ->
    advance st;
    expect_kw st "TABLE";
    let pair () =
      let a = ident st in
      expect_kw st "TO";
      let b = ident st in
      (a, b)
    in
    let pairs = ref [ pair () ] in
    while accept_tok st Lexer.COMMA do
      pairs := pair () :: !pairs
    done;
    S_rename_table (List.rev !pairs)
  | Lexer.KW "TRUNCATE" ->
    advance st;
    let _ = accept_kw st "TABLE" in
    S_truncate (ident st)
  | Lexer.KW "COMMENT" ->
    advance st;
    expect_kw st "ON";
    expect_kw st "TABLE";
    let table = ident st in
    expect_kw st "IS";
    let comment = string_lit st in
    S_comment_on { table; comment }
  | Lexer.KW "INSERT" ->
    advance st;
    S_insert (parse_insert_body st)
  | Lexer.KW "REPLACE" ->
    advance st;
    S_replace (parse_insert_body st)
  | Lexer.KW "UPDATE" ->
    advance st;
    S_update (parse_update_body st)
  | Lexer.KW "DELETE" ->
    advance st;
    S_delete (parse_delete_body st)
  | Lexer.KW "COPY" ->
    advance st;
    parse_copy st
  | Lexer.KW "LOAD" ->
    advance st;
    expect_kw st "DATA";
    expect_kw st "INTO";
    let table = ident st in
    let rows =
      if accept_kw st "VALUES" then parse_literal_rows st else []
    in
    S_load_data { table; rows }
  | Lexer.KW "SELECT" | Lexer.KW "VALUES" -> S_select (parse_query st)
  | Lexer.KW "TABLE" ->
    advance st;
    S_table (ident st)
  | Lexer.KW "WITH" ->
    advance st;
    parse_with st
  | Lexer.KW "EXPLAIN" ->
    advance st;
    S_explain (parse_stmt st)
  | Lexer.KW "DESCRIBE" ->
    advance st;
    S_describe (ident st)
  | Lexer.KW "SHOW" ->
    advance st;
    (match next st with
     | Lexer.KW "TABLES" -> S_show Sh_tables
     | Lexer.KW "COLUMNS" ->
       expect_kw st "FROM";
       S_show (Sh_columns (ident st))
     | Lexer.KW "VARIABLES" -> S_show Sh_variables
     | Lexer.KW "STATUS" -> S_show Sh_status
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected TABLES, COLUMNS, VARIABLES or STATUS")
  | Lexer.KW "GRANT" ->
    advance st;
    let privs = parse_privs st in
    expect_kw st "ON";
    let table = ident st in
    expect_kw st "TO";
    let user = ident st in
    S_grant { privs; table; user }
  | Lexer.KW "REVOKE" ->
    advance st;
    let privs = parse_privs st in
    expect_kw st "ON";
    let table = ident st in
    expect_kw st "FROM";
    let user = ident st in
    S_revoke { privs; table; user }
  | Lexer.KW "SET" ->
    advance st;
    parse_set st
  | Lexer.KW "BEGIN" ->
    advance st;
    S_begin
  | Lexer.KW "COMMIT" ->
    advance st;
    S_commit
  | Lexer.KW "ROLLBACK" ->
    advance st;
    if accept_kw st "TO" then begin
      expect_kw st "SAVEPOINT";
      S_rollback_to (ident st)
    end
    else S_rollback
  | Lexer.KW "SAVEPOINT" ->
    advance st;
    S_savepoint (ident st)
  | Lexer.KW "RELEASE" ->
    advance st;
    expect_kw st "SAVEPOINT";
    S_release_savepoint (ident st)
  | Lexer.KW "LOCK" ->
    advance st;
    expect_kw st "TABLES";
    let item () =
      let t = ident st in
      let mode =
        match next st with
        | Lexer.KW "READ" -> Lk_read
        | Lexer.KW "WRITE" -> Lk_write
        | _ ->
          st.pos <- st.pos - 1;
          fail st "expected READ or WRITE"
      in
      (t, mode)
    in
    let items = ref [ item () ] in
    while accept_tok st Lexer.COMMA do
      items := item () :: !items
    done;
    S_lock_tables (List.rev !items)
  | Lexer.KW "UNLOCK" ->
    advance st;
    expect_kw st "TABLES";
    S_unlock_tables
  | Lexer.KW "RESET" ->
    advance st;
    S_reset_var (ident st)
  | Lexer.KW "PRAGMA" ->
    advance st;
    let name = ident st in
    let value =
      if accept_tok st Lexer.EQ then Some (parse_literal st) else None
    in
    S_pragma { name; value }
  | Lexer.KW "VACUUM" ->
    advance st;
    S_vacuum (opt_ident st)
  | Lexer.KW "ANALYZE" ->
    advance st;
    S_analyze (opt_ident st)
  | Lexer.KW "REINDEX" ->
    advance st;
    S_reindex (opt_ident st)
  | Lexer.KW "CHECKPOINT" ->
    advance st;
    S_checkpoint
  | Lexer.KW "FLUSH" ->
    advance st;
    (match next st with
     | Lexer.KW "TABLES" -> S_flush Fl_tables
     | Lexer.KW "STATUS" -> S_flush Fl_status
     | Lexer.KW "PRIVILEGES" -> S_flush Fl_privileges
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected TABLES, STATUS or PRIVILEGES")
  | Lexer.KW "OPTIMIZE" ->
    advance st;
    expect_kw st "TABLE";
    S_optimize (ident st)
  | Lexer.KW "CHECK" ->
    advance st;
    expect_kw st "TABLE";
    S_check_table (ident st)
  | Lexer.KW "REPAIR" ->
    advance st;
    expect_kw st "TABLE";
    S_repair (ident st)
  | Lexer.KW "NOTIFY" ->
    advance st;
    let channel = ident st in
    let payload =
      if accept_tok st Lexer.COMMA then Some (string_lit st) else None
    in
    S_notify { channel; payload }
  | Lexer.KW "LISTEN" ->
    advance st;
    S_listen (ident st)
  | Lexer.KW "UNLISTEN" ->
    advance st;
    S_unlisten (ident st)
  | Lexer.KW "DISCARD" ->
    advance st;
    (match next st with
     | Lexer.KW "ALL" -> S_discard Disc_all
     | Lexer.KW "TEMP" -> S_discard Disc_temp
     | Lexer.KW "PLANS" -> S_discard Disc_plans
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected ALL, TEMP or PLANS")
  | Lexer.KW "PREPARE" ->
    advance st;
    let name = ident st in
    expect_kw st "AS";
    let stmt = parse_stmt st in
    S_prepare { name; stmt }
  | Lexer.KW "EXECUTE" ->
    advance st;
    S_execute (ident st)
  | Lexer.KW "DEALLOCATE" ->
    advance st;
    S_deallocate (ident st)
  | Lexer.KW "USE" ->
    advance st;
    S_use (ident st)
  | Lexer.KW "DO" ->
    advance st;
    S_do (parse_expr_top st)
  | Lexer.KW "HANDLER" ->
    advance st;
    let table = ident st in
    (match next st with
     | Lexer.KW "OPEN" -> S_handler_open table
     | Lexer.KW "CLOSE" -> S_handler_close table
     | Lexer.KW "READ" ->
       (match next st with
        | Lexer.KW "FIRST" -> S_handler_read { table; dir = H_first }
        | Lexer.KW "NEXT" -> S_handler_read { table; dir = H_next }
        | _ ->
          st.pos <- st.pos - 1;
          fail st "expected FIRST or NEXT")
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected OPEN, READ or CLOSE")
  | Lexer.KW "KILL" ->
    advance st;
    S_kill (int_lit st)
  | Lexer.KW "CLUSTER" ->
    advance st;
    S_cluster (opt_ident st)
  | Lexer.KW "REFRESH" ->
    advance st;
    expect_kw st "MATERIALIZED";
    expect_kw st "VIEW";
    S_refresh_matview (ident st)
  | _ -> fail st "expected statement"

and opt_ident st =
  match peek st with
  | Lexer.IDENT i ->
    advance st;
    Some i
  | _ -> None

and parse_privs st =
  prod st site_privs @@ fun () ->
  let privs = ref [ parse_priv st ] in
  while accept_tok st Lexer.COMMA do
    privs := parse_priv st :: !privs
  done;
  List.rev !privs

and parse_create st =
  prod st site_create @@ fun () ->
  match next st with
  | Lexer.KW "TEMPORARY" ->
    expect_kw st "TABLE";
    parse_create_table st ~temp:true
  | Lexer.KW "TABLE" -> parse_create_table st ~temp:false
  | Lexer.KW "UNIQUE" ->
    expect_kw st "INDEX";
    parse_create_index st ~unique:true
  | Lexer.KW "INDEX" -> parse_create_index st ~unique:false
  | Lexer.KW "MATERIALIZED" ->
    expect_kw st "VIEW";
    parse_create_view st ~materialized:true
  | Lexer.KW "VIEW" -> parse_create_view st ~materialized:false
  | Lexer.KW "TRIGGER" ->
    let name = ident st in
    let timing =
      match next st with
      | Lexer.KW "BEFORE" -> Before
      | Lexer.KW "AFTER" -> After
      | _ ->
        st.pos <- st.pos - 1;
        fail st "expected BEFORE or AFTER"
    in
    let event = parse_trig_event st in
    expect_kw st "ON";
    let table = ident st in
    expect_kw st "FOR";
    expect_kw st "EACH";
    expect_kw st "ROW";
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
    S_create_trigger { name; timing; event; table; body }
  | Lexer.KW "RULE" ->
    let name = ident st in
    expect_kw st "AS";
    expect_kw st "ON";
    let event = parse_trig_event st in
    expect_kw st "TO";
    let table = ident st in
    expect_kw st "DO";
    let instead = accept_kw st "INSTEAD" in
    let action =
      match peek st with
      | Lexer.KW "NOTHING" ->
        advance st;
        Ra_nothing
      | Lexer.KW "NOTIFY" ->
        advance st;
        Ra_notify (ident st)
      | _ -> Ra_stmt (parse_stmt st)
    in
    S_create_rule { name; table; event; instead; action }
  | Lexer.KW "SEQUENCE" ->
    let name = ident st in
    let start =
      if accept_kw st "START" then begin
        expect_kw st "WITH";
        signed_int st
      end
      else 1
    in
    let step =
      if accept_kw st "INCREMENT" then begin
        expect_kw st "BY";
        signed_int st
      end
      else 1
    in
    S_create_sequence { name; start; step }
  | Lexer.KW "SCHEMA" -> S_create_schema (ident st)
  | Lexer.KW "DATABASE" -> S_create_database (ident st)
  | Lexer.KW "USER" ->
    let user = ident st in
    expect_kw st "IDENTIFIED";
    expect_kw st "BY";
    let password = string_lit st in
    S_create_user { user; password }
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected object kind after CREATE"

and signed_int st =
  if accept_tok st Lexer.MINUS then -int_lit st else int_lit st

and parse_create_table st ~temp =
  prod st site_create_table @@ fun () ->
  let if_not_exists =
    if accept_kw st "IF" then begin
      expect_kw st "NOT";
      expect_kw st "EXISTS";
      true
    end
    else false
  in
  let name = ident st in
  expect_tok st Lexer.LPAREN "(";
  let cols = ref [ parse_col_def st ] in
  while accept_tok st Lexer.COMMA do
    cols := parse_col_def st :: !cols
  done;
  expect_tok st Lexer.RPAREN ")";
  S_create_table { temp; if_not_exists; name; cols = List.rev !cols }

and parse_create_index st ~unique =
  prod st site_create_index @@ fun () ->
  let name = ident st in
  expect_kw st "ON";
  let table = ident st in
  expect_tok st Lexer.LPAREN "(";
  let cols = ref [ ident st ] in
  while accept_tok st Lexer.COMMA do
    cols := ident st :: !cols
  done;
  expect_tok st Lexer.RPAREN ")";
  S_create_index { unique; name; table; cols = List.rev !cols }

and parse_create_view st ~materialized =
  prod st site_create_view @@ fun () ->
  let name = ident st in
  expect_kw st "AS";
  let query = parse_query st in
  S_create_view { materialized; name; query }

and parse_drop st =
  prod st site_drop @@ fun () ->
  let if_exists_after st =
    if accept_kw st "IF" then begin
      expect_kw st "EXISTS";
      true
    end
    else false
  in
  match next st with
  | Lexer.KW "TABLE" ->
    let ie = if_exists_after st in
    S_drop { target = D_table (ident st); if_exists = ie }
  | Lexer.KW "INDEX" ->
    let ie = if_exists_after st in
    S_drop { target = D_index (ident st); if_exists = ie }
  | Lexer.KW "VIEW" ->
    let ie = if_exists_after st in
    S_drop { target = D_view (ident st); if_exists = ie }
  | Lexer.KW "TRIGGER" ->
    let ie = if_exists_after st in
    S_drop { target = D_trigger (ident st); if_exists = ie }
  | Lexer.KW "RULE" ->
    let ie = if_exists_after st in
    let name = ident st in
    expect_kw st "ON";
    let table = ident st in
    S_drop { target = D_rule (name, table); if_exists = ie }
  | Lexer.KW "SEQUENCE" ->
    let ie = if_exists_after st in
    S_drop { target = D_sequence (ident st); if_exists = ie }
  | Lexer.KW "SCHEMA" ->
    let ie = if_exists_after st in
    S_drop { target = D_schema (ident st); if_exists = ie }
  | Lexer.KW "DATABASE" ->
    let ie = if_exists_after st in
    S_drop { target = D_database (ident st); if_exists = ie }
  | Lexer.KW "USER" ->
    let ie = if_exists_after st in
    S_drop { target = D_user (ident st); if_exists = ie }
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected object kind after DROP"

and parse_alter st =
  prod st site_alter @@ fun () ->
  match next st with
  | Lexer.KW "TABLE" ->
    let table = ident st in
    let action =
      match next st with
      | Lexer.KW "ADD" ->
        expect_kw st "COLUMN";
        Add_column (parse_col_def st)
      | Lexer.KW "DROP" ->
        expect_kw st "COLUMN";
        Drop_column (ident st)
      | Lexer.KW "RENAME" ->
        if accept_kw st "TO" then Rename_to (ident st)
        else begin
          expect_kw st "COLUMN";
          let a = ident st in
          expect_kw st "TO";
          let b = ident st in
          Rename_column (a, b)
        end
      | Lexer.KW "ALTER" ->
        expect_kw st "COLUMN";
        let c = ident st in
        expect_kw st "TYPE";
        Alter_column_type (c, parse_data_type st)
      | _ ->
        st.pos <- st.pos - 1;
        fail st "expected ALTER TABLE action"
    in
    S_alter_table (table, action)
  | Lexer.KW "SEQUENCE" ->
    let name = ident st in
    expect_kw st "INCREMENT";
    expect_kw st "BY";
    S_alter_sequence { name; step = signed_int st }
  | Lexer.KW "USER" ->
    let user = ident st in
    expect_kw st "IDENTIFIED";
    expect_kw st "BY";
    S_alter_user { user; password = string_lit st }
  | Lexer.KW "SYSTEM" -> S_alter_system (ident st)
  | _ ->
    st.pos <- st.pos - 1;
    fail st "expected TABLE, SEQUENCE, USER or SYSTEM after ALTER"

and parse_insert_body st =
  prod st site_insert @@ fun () ->
  let i_ignore = accept_kw st "IGNORE" in
  expect_kw st "INTO";
  let i_table = ident st in
  let i_cols =
    if peek st = Lexer.LPAREN then begin
      advance st;
      let cols = ref [ ident st ] in
      while accept_tok st Lexer.COMMA do
        cols := ident st :: !cols
      done;
      expect_tok st Lexer.RPAREN ")";
      List.rev !cols
    end
    else []
  in
  let i_source =
    if accept_kw st "VALUES" then Src_values (parse_rows st parse_expr_top)
    else Src_query (parse_query st)
  in
  { i_table; i_cols; i_source; i_ignore }

and parse_update_body st =
  prod st site_update @@ fun () ->
  let u_table = ident st in
  expect_kw st "SET";
  let set () =
    let c = ident st in
    expect_tok st Lexer.EQ "=";
    let e = parse_expr_top st in
    (c, e)
  in
  let sets = ref [ set () ] in
  while accept_tok st Lexer.COMMA do
    sets := set () :: !sets
  done;
  let u_where = if accept_kw st "WHERE" then Some (parse_expr_top st) else None in
  let u_limit = if accept_kw st "LIMIT" then Some (int_lit st) else None in
  { u_table; u_sets = List.rev !sets; u_where; u_limit }

and parse_delete_body st =
  prod st site_delete @@ fun () ->
  expect_kw st "FROM";
  let d_table = ident st in
  let d_where = if accept_kw st "WHERE" then Some (parse_expr_top st) else None in
  let d_limit = if accept_kw st "LIMIT" then Some (int_lit st) else None in
  { d_table; d_where; d_limit }

and parse_copy st =
  prod st site_copy @@ fun () ->
  if peek st = Lexer.LPAREN then begin
    advance st;
    let q = parse_query st in
    expect_tok st Lexer.RPAREN ")";
    expect_kw st "TO";
    expect_kw st "STDOUT";
    let header = parse_csv_header st in
    S_copy_to { src = Cs_query q; header }
  end
  else begin
    let table = ident st in
    match next st with
    | Lexer.KW "TO" ->
      expect_kw st "STDOUT";
      let header = parse_csv_header st in
      S_copy_to { src = Cs_table table; header }
    | Lexer.KW "FROM" ->
      expect_kw st "STDIN";
      let rows =
        if peek st = Lexer.LPAREN then parse_literal_rows st else []
      in
      S_copy_from { table; rows }
    | _ ->
      st.pos <- st.pos - 1;
      fail st "expected TO or FROM in COPY"
  end

and parse_csv_header st =
  if accept_kw st "CSV" then begin
    expect_kw st "HEADER";
    true
  end
  else false

and parse_with st =
  prod st site_with @@ fun () ->
  let cte () =
    let cte_name = ident st in
    expect_kw st "AS";
    expect_tok st Lexer.LPAREN "(";
    let body = parse_with_body st in
    expect_tok st Lexer.RPAREN ")";
    { cte_name; cte_body = body }
  in
  let ctes = ref [ cte () ] in
  while accept_tok st Lexer.COMMA do
    ctes := cte () :: !ctes
  done;
  let body = parse_with_body st in
  S_with { ctes = List.rev !ctes; body }

and parse_with_body st =
  prod st site_with_body @@ fun () ->
  match peek st with
  | Lexer.KW "SELECT" | Lexer.KW "VALUES" -> W_query (parse_query st)
  | Lexer.KW "INSERT" ->
    advance st;
    W_insert (parse_insert_body st)
  | Lexer.KW "UPDATE" ->
    advance st;
    W_update (parse_update_body st)
  | Lexer.KW "DELETE" ->
    advance st;
    W_delete (parse_delete_body st)
  | _ -> fail st "expected query or DML in WITH body"

and parse_set st =
  prod st site_set @@ fun () ->
  match peek st with
  | Lexer.KW "ROLE" ->
    advance st;
    S_set_role (ident st)
  | Lexer.KW "TRANSACTION" ->
    advance st;
    expect_kw st "ISOLATION";
    expect_kw st "LEVEL";
    (match next st with
     | Lexer.KW "READ" ->
       expect_kw st "COMMITTED";
       S_set_transaction Read_committed
     | Lexer.KW "REPEATABLE" ->
       expect_kw st "READ";
       S_set_transaction Repeatable_read
     | Lexer.KW "SERIALIZABLE" -> S_set_transaction Serializable
     | _ ->
       st.pos <- st.pos - 1;
       fail st "expected isolation level")
  | Lexer.KW "GLOBAL" ->
    advance st;
    let name = ident st in
    expect_tok st Lexer.EQ "=";
    S_set_var { global = true; name; value = parse_literal st }
  | Lexer.KW "NAMES" ->
    advance st;
    S_set_names (ident st)
  | Lexer.IDENT _ ->
    let name = ident st in
    expect_tok st Lexer.EQ "=";
    S_set_var { global = false; name; value = parse_literal st }
  | _ -> fail st "expected SET target"

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
