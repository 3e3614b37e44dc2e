(* Tests for runtime values: coercion, comparison, truthiness. *)

open Storage
open Sqlcore.Ast

let v = Alcotest.testable (fun fmt x ->
    Format.pp_print_string fmt (Value.to_display x)) Value.equal

let test_coerce_int () =
  Alcotest.(check (result v string)) "float to int" (Ok (Value.Int 3))
    (Value.coerce (Value.Float 3.7) T_int);
  Alcotest.(check (result v string)) "text prefix" (Ok (Value.Int 12))
    (Value.coerce (Value.Text "12abc") T_int);
  Alcotest.(check (result v string)) "garbage text" (Ok (Value.Int 0))
    (Value.coerce (Value.Text "abc") T_int);
  Alcotest.(check (result v string)) "bool" (Ok (Value.Int 1))
    (Value.coerce (Value.Bool true) T_int)

let test_coerce_varchar_truncates () =
  Alcotest.(check (result v string)) "truncated" (Ok (Value.Text "abc"))
    (Value.coerce (Value.Text "abcdef") (T_varchar 3));
  Alcotest.(check (result v string)) "int rendered" (Ok (Value.Text "42"))
    (Value.coerce (Value.Int 42) (T_varchar 8))

let test_coerce_year () =
  Alcotest.(check (result v string)) "plain year" (Ok (Value.Int 1999))
    (Value.coerce (Value.Int 1999) T_year);
  Alcotest.(check (result v string)) "two-digit 22 -> 2022"
    (Ok (Value.Int 2022))
    (Value.coerce (Value.Int 22) T_year);
  Alcotest.(check (result v string)) "two-digit 85 -> 1985"
    (Ok (Value.Int 1985))
    (Value.coerce (Value.Int 85) T_year);
  Alcotest.(check bool) "out of range errors" true
    (match Value.coerce (Value.Int 9999) T_year with
     | Error _ -> true
     | Ok _ -> false)

let test_coerce_null_passthrough () =
  List.iter
    (fun dt ->
       Alcotest.(check (result v string)) "null stays null" (Ok Value.Null)
         (Value.coerce Value.Null dt))
    [ T_int; T_float; T_text; T_bool; T_varchar 4; T_year ]

let test_compare_sql_null () =
  Alcotest.(check (option int)) "null left" None
    (Value.compare_sql Value.Null (Value.Int 1));
  Alcotest.(check (option int)) "null right" None
    (Value.compare_sql (Value.Int 1) Value.Null)

let test_compare_sql_cross_type () =
  Alcotest.(check (option int)) "int vs float" (Some 0)
    (Value.compare_sql (Value.Int 2) (Value.Float 2.0));
  (match Value.compare_sql (Value.Int 1) (Value.Float 1.5) with
   | Some c -> Alcotest.(check bool) "1 < 1.5" true (c < 0)
   | None -> Alcotest.fail "expected comparison");
  (match Value.compare_sql (Value.Text "b") (Value.Text "a") with
   | Some c -> Alcotest.(check bool) "b > a" true (c > 0)
   | None -> Alcotest.fail "expected comparison")

let test_truthiness () =
  Alcotest.(check bool) "null false" false (Value.is_truthy Value.Null);
  Alcotest.(check bool) "zero false" false (Value.is_truthy (Value.Int 0));
  Alcotest.(check bool) "empty text false" false
    (Value.is_truthy (Value.Text ""));
  Alcotest.(check bool) "nonzero true" true (Value.is_truthy (Value.Int 5));
  Alcotest.(check bool) "bool" true (Value.is_truthy (Value.Bool true))

let test_of_literal () =
  Alcotest.(check v) "int" (Value.Int 3) (Value.of_literal (L_int 3));
  Alcotest.(check v) "null" Value.Null (Value.of_literal L_null);
  Alcotest.(check v) "string" (Value.Text "x")
    (Value.of_literal (L_string "x"))

(* Property: compare_total is a total order (reflexive-antisymmetric and
   transitive on a sampled domain). *)
let arbitrary_value =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
        map (fun s -> Value.Text s) (string_size (int_bound 6));
        map (fun b -> Value.Bool b) bool ])
  |> QCheck.make

let prop_total_order_antisym =
  QCheck.Test.make ~name:"compare_total antisymmetric" ~count:500
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      let c1 = Value.compare_total a b in
      let c2 = Value.compare_total b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_total_order_trans =
  QCheck.Test.make ~name:"compare_total transitive" ~count:500
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
       let ab = Value.compare_total a b in
       let bc = Value.compare_total b c in
       let ac = Value.compare_total a c in
       if ab <= 0 && bc <= 0 then ac <= 0 else true)

let prop_coerce_idempotent =
  QCheck.Test.make ~name:"coercion idempotent" ~count:500
    (QCheck.pair arbitrary_value
       (QCheck.oneofl [ T_int; T_float; T_text; T_bool; T_varchar 5 ]))
    (fun (value, dt) ->
       match Value.coerce value dt with
       | Error _ -> true
       | Ok once -> (
           match Value.coerce once dt with
           | Error _ -> false
           | Ok twice -> Value.equal once twice))

(* [compare_total] as it was defined before it matched numbers directly:
   every number went through an optional float. The allocation-free
   version must agree with it exactly, past 2^53 (where distinct ints
   tie as floats), on NaN and on -0.0. *)
let reference_compare_total a b =
  let rank = function
    | Value.Null -> 0
    | Value.Bool _ -> 1
    | Value.Int _ | Value.Float _ -> 2
    | Value.Text _ -> 3
  in
  let num_of = function
    | Value.Int n -> Some (float_of_int n)
    | Value.Float f -> Some f
    | Value.Bool b -> Some (if b then 1.0 else 0.0)
    | Value.Null | Value.Text _ -> None
  in
  let ra = rank a and rb = rank b in
  if ra <> rb then Int.compare ra rb
  else
    match (a, b) with
    | Value.Null, Value.Null -> 0
    | Value.Bool x, Value.Bool y -> Bool.compare x y
    | Value.Text x, Value.Text y -> String.compare x y
    | _ -> (
        match (num_of a, num_of b) with
        | Some x, Some y -> Float.compare x y
        | _ -> 0)

let edge_values =
  let p53 = 1 lsl 53 in
  Value.
    [ Null; Bool false; Bool true; Int 0; Int 1; Int (-1); Int p53;
      Int (-p53); Int (p53 + 1); Int (-(p53 + 1)); Int max_int; Int min_int;
      Float 0.0; Float (-0.0); Float 1.0; Float (-1.0); Float Float.nan;
      Float Float.infinity; Float Float.neg_infinity;
      Float (float_of_int p53); Float (-.float_of_int p53); Text "";
      Text "1"; Text "a" ]

let show_typed x = Value.type_name x ^ " " ^ Value.to_display x

let test_compare_total_edges () =
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            Alcotest.(check int)
              (show_typed a ^ " vs " ^ show_typed b)
              (reference_compare_total a b) (Value.compare_total a b))
         edge_values)
    edge_values

let mixed_value =
  QCheck.Gen.(
    oneof
      [ oneofl edge_values;
        map (fun n -> Value.Int n) int;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun n -> Value.Float (float_of_int n)) small_signed_int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Text s) (string_size (int_bound 3));
        map (fun b -> Value.Bool b) bool ])
  |> QCheck.make ~print:show_typed

let prop_compare_total_reference =
  QCheck.Test.make ~name:"compare_total = num_of reference" ~count:2000
    (QCheck.pair mixed_value mixed_value) (fun (a, b) ->
      Value.compare_total a b = reference_compare_total a b)

(* DISTINCT buckets rows by [hash_value] and then compares them with
   [compare_total], so values that tie must hash alike. The generator
   draws from a small domain where ties across Int and Float, signed
   zeros and NaN payloads are common. *)
let tie_prone_value =
  let p53 = 1 lsl 53 in
  QCheck.Gen.(
    oneof
      [ oneofl edge_values;
        map (fun n -> Value.Int n) (int_range (-3) 3);
        map (fun n -> Value.Float (float_of_int n)) (int_range (-3) 3);
        oneofl
          Value.
            [ Float (-0.0); Int (p53 + 1); Float (float_of_int (p53 + 1));
              Float (Int64.float_of_bits 0x7FF0_0000_0000_0001L);
              Float (Int64.float_of_bits 0xFFF8_0000_0000_0000L) ] ])
  |> QCheck.make ~print:show_typed

let prop_hash_agrees_with_compare =
  QCheck.Test.make ~name:"compare_total ties hash alike" ~count:2000
    (QCheck.pair tie_prone_value tie_prone_value) (fun (a, b) ->
      Value.compare_total a b <> 0
      || Value.hash_value a = Value.hash_value b)

let suite =
  [ ("coerce int", `Quick, test_coerce_int);
    ("coerce varchar truncates", `Quick, test_coerce_varchar_truncates);
    ("coerce year", `Quick, test_coerce_year);
    ("coerce null passthrough", `Quick, test_coerce_null_passthrough);
    ("compare_sql null", `Quick, test_compare_sql_null);
    ("compare_sql cross type", `Quick, test_compare_sql_cross_type);
    ("truthiness", `Quick, test_truthiness);
    ("of_literal", `Quick, test_of_literal);
    ("compare_total edge values", `Quick, test_compare_total_edges);
    QCheck_alcotest.to_alcotest prop_total_order_antisym;
    QCheck_alcotest.to_alcotest prop_total_order_trans;
    QCheck_alcotest.to_alcotest prop_coerce_idempotent;
    QCheck_alcotest.to_alcotest prop_compare_total_reference;
    QCheck_alcotest.to_alcotest prop_hash_agrees_with_compare ]
