(* UCB1 over farm campaigns. No RNG anywhere: argmax with
   lowest-index tie-break over pure float scores, so equal histories
   yield equal allocations. *)

type t = {
  n_arms : int;
  c : float;
  n : int array;          (* committed pulls per arm *)
  sum : float array;      (* committed reward mass per arm *)
}

let create ?(c = 0.5) ~arms () =
  if arms < 1 then invalid_arg "Bandit.create: arms < 1";
  { n_arms = arms; c; n = Array.make arms 0; sum = Array.make arms 0. }

let mean_of t n arm = if n.(arm) = 0 then 0. else t.sum.(arm) /. float n.(arm)

(* Best committed mean across arms with history, as the normalisation
   scale; 1.0 when nothing has a positive mean yet so early scores stay
   finite and comparable. *)
let scale t n =
  let best = ref 0. in
  for i = 0 to t.n_arms - 1 do
    if n.(i) > 0 then best := Float.max !best (mean_of t t.n i)
  done;
  if !best > 0. then !best else 1.0

let allocate t ~budget ~active =
  if Array.length active <> t.n_arms then
    invalid_arg "Bandit.allocate: active mask size";
  let execs = Array.make t.n_arms 0 and dealt = Array.make t.n_arms 0 in
  let n_active = Array.fold_left (fun a b -> if b then a + 1 else a) 0 active in
  if n_active = 0 || budget <= 0 then (execs, dealt)
  else begin
    let slices = max 1 (min (max 4 (2 * n_active)) budget) in
    (* Provisional pulls: committed counts plus what this call deals. *)
    let vn = Array.copy t.n in
    let vtotal = ref (Array.fold_left ( + ) 0 vn) in
    let best_mean = scale t t.n in
    let score i =
      if vn.(i) = 0 then infinity
      else
        let exploit = mean_of t t.n i /. best_mean in
        let explore =
          t.c *. sqrt (2. *. log (float (max 2 !vtotal)) /. float vn.(i))
        in
        exploit +. explore
    in
    let pick () =
      let best = ref (-1) and best_score = ref neg_infinity in
      for i = 0 to t.n_arms - 1 do
        if active.(i) then begin
          let s = score i in
          if s > !best_score then begin best := i; best_score := s end
        end
      done;
      !best
    in
    let base = budget / slices and rem = budget mod slices in
    for k = 0 to slices - 1 do
      let arm = pick () in
      execs.(arm) <- execs.(arm) + base + (if k < rem then 1 else 0);
      dealt.(arm) <- dealt.(arm) + 1;
      vn.(arm) <- vn.(arm) + 1;
      incr vtotal
    done;
    (execs, dealt)
  end

let update t ~arm ~pulls ~reward =
  if arm < 0 || arm >= t.n_arms then invalid_arg "Bandit.update: arm";
  if pulls > 0 then begin
    t.n.(arm) <- t.n.(arm) + pulls;
    t.sum.(arm) <- t.sum.(arm) +. (reward *. float pulls)
  end
