module Key = struct
  type t = Value.t list

  let compare a b =
    let rec loop a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Value.compare_total x y in
        if c <> 0 then c else loop xs ys
    in
    loop a b
end

module M = Map.Make (Key)

type t = { uniq : bool; mutable map : int list M.t }

let create ~unique = { uniq = unique; map = M.empty }

let unique t = t.uniq

let has_null key = List.exists (fun v -> v = Value.Null) key

let add t key rowid =
  match M.find_opt key t.map with
  | Some (existing :: _) when t.uniq && not (has_null key) ->
    `Dup existing
  | Some ids ->
    t.map <- M.add key (rowid :: ids) t.map;
    `Ok
  | None ->
    t.map <- M.add key [ rowid ] t.map;
    `Ok

let remove t key rowid =
  match M.find_opt key t.map with
  | None -> ()
  | Some ids -> (
      match List.filter (fun id -> id <> rowid) ids with
      | [] -> t.map <- M.remove key t.map
      | ids -> t.map <- M.add key ids t.map)

let find t key = match M.find_opt key t.map with None -> [] | Some ids -> ids

let find_range t ~lo ~hi =
  let in_lo key =
    match lo with None -> true | Some lo -> Key.compare key lo >= 0
  in
  let in_hi key =
    match hi with None -> true | Some hi -> Key.compare key hi <= 0
  in
  M.fold
    (fun key ids acc -> if in_lo key && in_hi key then ids @ acc else acc)
    t.map []

let length t = M.cardinal t.map

(* The map is persistent, so an independent copy is just a new record
   holding the same root — later [add]/[remove] on either side rebind
   their own [map] field without disturbing the other. *)
let copy t = { uniq = t.uniq; map = t.map }
