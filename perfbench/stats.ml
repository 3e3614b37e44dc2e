(* Order statistics for the benchmark's metrics. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. 0 for an empty array. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let s = sorted xs in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let s = sorted xs in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Share of [sum xs] carried by the largest [share] of the samples (at
   least one sample): the wall share of the slowest steps. *)
let top_share share xs =
  let n = Array.length xs in
  let total = Array.fold_left ( +. ) 0.0 xs in
  if n = 0 || total <= 0.0 then 0.0
  else
    let s = sorted xs in
    let k = max 1 (int_of_float (Float.ceil (share *. float_of_int n))) in
    let top = ref 0.0 in
    for i = n - k to n - 1 do
      top := !top +. s.(i)
    done;
    !top /. total
