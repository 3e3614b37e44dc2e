type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Null | Int _ | Float _ | Text _ | Bool _), _ -> false

let num_of = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | Text _ -> None

let text_of = function
  | Text s -> s
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.17g" f
  | Bool true -> "1"
  | Bool false -> "0"
  | Null -> ""

let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Text x, Text y -> Some (String.compare x y)
  | _ -> (
      match (num_of a, num_of b) with
      | Some x, Some y -> Some (Float.compare x y)
      | _ ->
        (* Mixed text/number: compare text forms, MySQL-ish affinity. *)
        Some (String.compare (text_of a) (text_of b)))

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Text _ -> 3

let compare_total a b =
  let ra = rank a and rb = rank b in
  if ra <> rb then Int.compare ra rb
  else
    (* Numbers compare as floats (so ints past 2^53 can tie), matched
       directly so no float is boxed. *)
    match (a, b) with
    | Null, Null -> 0
    | Bool x, Bool y -> Bool.compare x y
    | Text x, Text y -> String.compare x y
    | Int x, Int y -> Float.compare (float_of_int x) (float_of_int y)
    | Int x, Float y -> Float.compare (float_of_int x) y
    | Float x, Int y -> Float.compare x (float_of_int y)
    | Float x, Float y -> Float.compare x y
    | _ -> 0

let compare_rows x y =
  let nx = Array.length x and ny = Array.length y in
  if nx <> ny then Int.compare nx ny
  else
    let rec loop i =
      if i >= nx then 0
      else
        let c = compare_total x.(i) y.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let is_truthy = function
  | Null -> false
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> f <> 0.0
  | Text s -> s <> ""

let type_name = function
  | Null -> "NULL"
  | Int _ -> "INT"
  | Float _ -> "FLOAT"
  | Text _ -> "TEXT"
  | Bool _ -> "BOOL"

let int_of_text s =
  (* Leading-numeric-prefix parse, like MySQL's lax string-to-number. *)
  let n = String.length s in
  let rec scan i =
    if i < n && (s.[i] >= '0' && s.[i] <= '9') then scan (i + 1) else i
  in
  let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  let stop = scan start in
  if stop = start then 0
  else
    match int_of_string (String.sub s 0 stop) with
    | v -> v
    | exception Failure _ ->
      (* Digit run overflows the native int, e.g. a 25-digit literal:
         clamp like MySQL instead of crashing the engine. *)
      if s.[0] = '-' then min_int else max_int

let coerce v dt =
  let open Sqlcore.Ast in
  match (v, dt) with
  | Null, _ -> Ok Null
  | Int _, T_int -> Ok v
  | Float f, T_int -> Ok (Int (int_of_float f))
  | Bool b, T_int -> Ok (Int (if b then 1 else 0))
  | Text s, T_int -> Ok (Int (int_of_text s))
  | Float _, T_float -> Ok v
  | Int n, T_float -> Ok (Float (float_of_int n))
  | Bool b, T_float -> Ok (Float (if b then 1.0 else 0.0))
  | Text s, T_float ->
    Ok (Float (try float_of_string s with Failure _ -> 0.0))
  | Text _, T_text -> Ok v
  | (Int _ | Float _ | Bool _), T_text -> Ok (Text (text_of v))
  | Bool _, T_bool -> Ok v
  | Int n, T_bool -> Ok (Bool (n <> 0))
  | Float f, T_bool -> Ok (Bool (f <> 0.0))
  | Text s, T_bool -> Ok (Bool (s <> "" && s <> "0"))
  | _, T_varchar width ->
    let s = text_of v in
    let s = if String.length s > width then String.sub s 0 width else s in
    Ok (Text s)
  | _, T_year -> (
      let n =
        match v with
        | Int n -> n
        | Float f -> int_of_float f
        | Bool b -> if b then 1 else 0
        | Text s -> int_of_text s
        | Null -> assert false
      in
      let n = if n >= 0 && n < 70 then 2000 + n
        else if n >= 70 && n < 100 then 1900 + n
        else n
      in
      if n = 0 || (n >= 1901 && n <= 2155) then Ok (Int n)
      else Error (Printf.sprintf "year value %d out of range" n))

let of_literal = function
  | Sqlcore.Ast.L_null -> Null
  | Sqlcore.Ast.L_int n -> Int n
  | Sqlcore.Ast.L_float f -> Float f
  | Sqlcore.Ast.L_string s -> Text s
  | Sqlcore.Ast.L_bool b -> Bool b

let to_display = function
  | Null -> "\\N"
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Text s -> s
  | Bool true -> "t"
  | Bool false -> "f"

(* Numbers hash through their float value, as [compare_total] compares
   them; -0.0 and every NaN tie there, so they hash as 0.0 and one NaN. *)
let hash_float f =
  let f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f in
  Int64.to_int (Int64.bits_of_float f) * 0x85EBCA6B

let hash_value = function
  | Null -> 0
  | Int n -> hash_float (float_of_int n)
  | Float f -> hash_float f
  | Text s -> Hashtbl.hash s
  | Bool b -> if b then 3 else 5
