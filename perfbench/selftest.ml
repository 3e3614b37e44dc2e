(* Checks of the benchmark's order-statistics helpers on known arrays.
   Exits 1 if any fails.
   Run through [python3 perfbench/run.py --self-test]. *)

let failures = ref 0

let expect name got want =
  if Float.abs (got -. want) > 1e-9 then begin
    incr failures;
    Printf.printf "FAIL %s: got %g, want %g\n" name got want
  end
  else Printf.printf "ok   %s\n" name

let () =
  let a = [| 15.; 20.; 35.; 40.; 50. |] in
  expect "percentile 5th of 5" (Stats.percentile 5.0 a) 15.;
  expect "percentile 30th of 5" (Stats.percentile 30.0 a) 20.;
  expect "percentile 40th of 5" (Stats.percentile 40.0 a) 20.;
  expect "percentile 50th of 5" (Stats.percentile 50.0 a) 35.;
  expect "percentile 100th of 5" (Stats.percentile 100.0 a) 50.;
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "p99 of 1..100" (Stats.percentile 99.0 hundred) 99.;
  expect "p50 of 1..100" (Stats.percentile 50.0 hundred) 50.;
  expect "percentile of empty" (Stats.percentile 50.0 [||]) 0.;
  expect "median odd" (Stats.median [| 3.; 1.; 2. |]) 2.;
  expect "median even" (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5;
  expect "top 1% share, one big step"
    (Stats.top_share 0.01 (Array.append [| 100. |] (Array.make 99 1.)))
    (100. /. 199.);
  expect "top share of nothing" (Stats.top_share 0.01 [||]) 0.;
  if !failures > 0 then exit 1
