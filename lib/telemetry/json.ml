type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str f =
  if Float.is_nan f then "null" (* JSON has no NaN *)
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> escape buf s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char buf ',';
         write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         escape buf k;
         Buffer.add_char buf ':';
         write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over a cursor                      *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let parse_literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> Buffer.add_char buf '"'; advance c
       | Some '\\' -> Buffer.add_char buf '\\'; advance c
       | Some '/' -> Buffer.add_char buf '/'; advance c
       | Some 'n' -> Buffer.add_char buf '\n'; advance c
       | Some 'r' -> Buffer.add_char buf '\r'; advance c
       | Some 't' -> Buffer.add_char buf '\t'; advance c
       | Some 'b' -> Buffer.add_char buf '\b'; advance c
       | Some 'f' -> Buffer.add_char buf '\012'; advance c
       | Some 'u' ->
         advance c;
         if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
         let hex = String.sub c.s c.pos 4 in
         (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail c "bad \\u escape"
          | Some code ->
            (* ASCII range only; telemetry never emits more *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            c.pos <- c.pos + 4)
       | _ -> fail c "bad escape");
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  let is_float =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text
  in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail c "expected , or }"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected , or ]"
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing input at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str_list = function
  | Arr items ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Str s :: rest -> go (s :: acc) rest
      | _ -> None
    in
    go [] items
  | _ -> None

let field ?default name conv json =
  match member name json with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad field %S" name))
