(* Fork-join: an atomic claim counter over the calling domain plus a few
   helper domains spawned for this call and joined before it returns. *)

let domains ~workers ~jobs =
  max 1 (min (min workers jobs) (Domain.recommended_domain_count ()))

let run ~workers jobs =
  let n = Array.length jobs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  let rec work () =
    if not (Atomic.get failed) then begin
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        (match jobs.(k) () with
         | v -> results.(k) <- Some v
         | exception e ->
           errors.(k) <- Some (e, Printexc.get_raw_backtrace ());
           Atomic.set failed true);
        work ()
      end
    end
  in
  let wanted = domains ~workers ~jobs:n - 1 in
  (* The runtime caps the number of live domains; a refused spawn leaves
     its share of the jobs to the domains already working. *)
  let rec spawn k acc =
    if k <= 0 then acc
    else
      match Domain.spawn work with
      | d -> spawn (k - 1) (d :: acc)
      | exception Failure _ -> acc
  in
  let helpers = spawn wanted [] in
  work ();
  List.iter Domain.join helpers;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  Array.map (function Some v -> v | None -> assert false) results
