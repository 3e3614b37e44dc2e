(* Unit and property tests for the utility substrate (Rng, Vec, Pool). *)

module Rng = Reprutil.Rng
module Vec = Reprutil.Vec
module Pool = Reprutil.Pool

let test_rng_deterministic () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 in
  let b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Rng.int rng 0))

let test_rng_choose () =
  let rng = Rng.create 3 in
  let xs = [ 1; 2; 3 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Rng.choose rng xs) xs)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty list")
    (fun () -> ignore (Rng.choose rng []))

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" false
    (Rng.int64 a = Rng.int64 b)

let test_rng_ratio () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.ratio rng 1 4 then incr hits
  done;
  Alcotest.(check bool) "roughly a quarter" true
    (!hits > 2100 && !hits < 2900)

let test_rng_sample () =
  let rng = Rng.create 13 in
  let sampled = Rng.sample rng 3 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "three drawn" 3 (List.length sampled);
  Alcotest.(check int) "distinct" 3
    (List.length (List.sort_uniq compare sampled));
  Alcotest.(check (list int)) "k larger than list" [ 1 ]
    (Rng.sample rng 5 [ 1 ])

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Vec.push v 10;
  Vec.push v 20;
  Vec.push v 30;
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 1 99;
  Alcotest.(check int) "set" 99 (Vec.get v 1);
  Alcotest.(check (option int)) "last" (Some 30) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 30) (Vec.pop v);
  Alcotest.(check int) "after pop" 2 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 10; 99 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "oob get"
    (Invalid_argument "Vec.get: index 1 out of bounds (len 1)") (fun () ->
        ignore (Vec.get v 1))

let test_vec_grow () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "grew" 1000 (Vec.length v);
  Alcotest.(check int) "content" 500 (Vec.get v 500);
  Alcotest.(check int) "fold" 499500 (Vec.fold ( + ) 0 v)

let test_vec_copy_independent () =
  let v = Vec.of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.set w 0 9;
  Alcotest.(check int) "original untouched" 1 (Vec.get v 0)

(* Model-based property: Vec behaves like a list under pushes and pops. *)
let prop_vec_model =
  QCheck.Test.make ~name:"vec matches list model" ~count:200
    QCheck.(list (int_range 0 2))
    (fun ops ->
       let v = Vec.create () in
       let model = ref [] in
       List.iteri
         (fun i op ->
            match op with
            | 0 | 1 ->
              Vec.push v i;
              model := !model @ [ i ]
            | _ ->
              let popped = Vec.pop v in
              let expected =
                match List.rev !model with
                | [] -> None
                | last :: rest ->
                  model := List.rev rest;
                  Some last
              in
              assert (popped = expected))
         ops;
       Vec.to_list v = !model)

(* --- Pool ------------------------------------------------------------- *)

let squares n = Array.init n (fun i () -> i * i)

let test_pool_job_order () =
  let n = 9 in
  let expected = Array.init n (fun i -> i * i) in
  List.iter
    (fun workers ->
       Alcotest.(check (array int))
         (Printf.sprintf "workers=%d" workers)
         expected
         (Pool.run ~workers (squares n)))
    [ 1; 2; n; n + 5 ];
  Alcotest.(check (array int)) "no jobs" [||] (Pool.run ~workers:4 [||])

let test_pool_nonpositive_workers () =
  (* [workers <= 0] is one worker: every job runs on the caller *)
  let self = Domain.self () in
  List.iter
    (fun workers ->
       let on_caller =
         Pool.run ~workers (Array.init 6 (fun _ () -> Domain.self () = self))
       in
       Alcotest.(check (array bool))
         (Printf.sprintf "workers=%d runs on the caller" workers)
         (Array.make 6 true) on_caller)
    [ 0; -3 ]

let test_pool_lowest_failure () =
  (* Job 3 fails at once, job 1 only after some work: job 1's exception
     is the one raised, every time. *)
  let spin () =
    let acc = ref 0 in
    for i = 1 to 200_000 do
      acc := !acc + i
    done;
    Sys.opaque_identity !acc
  in
  let jobs =
    Array.init 5 (fun i () ->
        match i with
        | 1 -> ignore (spin ()); failwith "job 1"
        | 3 -> failwith "job 3"
        | _ -> ignore (spin ()); i)
  in
  for _ = 1 to 20 do
    match Pool.run ~workers:4 jobs with
    | _ -> Alcotest.fail "a failing job must fail the run"
    | exception Failure msg -> Alcotest.(check string) "lowest index" "job 1" msg
  done

let test_pool_domain_cap () =
  (* More workers than the machine recommends: the pool caps itself and
     still runs every job. *)
  let cap = Domain.recommended_domain_count () in
  let n = cap + 8 in
  let ran = Pool.run ~workers:n (Array.init n (fun _ () -> Domain.self ())) in
  Alcotest.(check int) "every job ran" n (Array.length ran);
  let domains = List.sort_uniq compare (Array.to_list ran) in
  Alcotest.(check bool) "at most the recommended domains" true
    (List.length domains <= cap)

let suite =
  [ ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng distinct seeds", `Quick, test_rng_distinct_seeds);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng choose", `Quick, test_rng_choose);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng ratio", `Quick, test_rng_ratio);
    ("rng sample", `Quick, test_rng_sample);
    ("vec basic", `Quick, test_vec_basic);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec grow", `Quick, test_vec_grow);
    ("vec copy", `Quick, test_vec_copy_independent);
    ("pool job order", `Quick, test_pool_job_order);
    ("pool workers <= 0 is one", `Quick, test_pool_nonpositive_workers);
    ("pool raises the lowest failure", `Quick, test_pool_lowest_failure);
    ("pool caps its domains", `Quick, test_pool_domain_cap);
    QCheck_alcotest.to_alcotest prop_vec_model ]
