type family = {
  by_name : (string, int) Hashtbl.t;
  by_id : (int, string) Hashtbl.t;
  mutable next : int;
  limit : int;
  label : string;
}

let make_family ~label ~limit =
  { by_name = Hashtbl.create 512;
    by_id = Hashtbl.create 512;
    next = 0;
    limit;
    label }

(* The engine edge-probe family. Its id sequence is load-bearing: edge
   ids feed [Bitmap.probe] and recorded campaigns compare across builds,
   so nothing but engine instrumentation may allocate from it — the
   grammar family exists precisely so parser sites can't shift it. *)
let edges = make_family ~label:"edge" ~limit:Bitmap.size

(* Grammar-rule sites index the rule region of the grammar bitmap
   directly (cell = site id), and the rule region is the map's lower
   half (see {!Grammar}). *)
let grammar = make_family ~label:"grammar" ~limit:(Bitmap.size / 2)

let register_in fam name =
  match Hashtbl.find_opt fam.by_name name with
  | Some id -> id
  | None ->
    let id = fam.next in
    (* Site ids index bitmap regions directly; past the family limit
       they would wrap silently onto earlier sites' cells. Fail loudly
       instead. *)
    if id >= fam.limit then
      invalid_arg
        (Printf.sprintf
           "Coverage.Sites.register %S: %d %s sites exceed the %d-cell \
            bitmap domain"
           name (id + 1) fam.label fam.limit);
    fam.next <- id + 1;
    Hashtbl.replace fam.by_name name id;
    Hashtbl.replace fam.by_id id name;
    id

let count_in fam = fam.next

let register = register_in edges

let count () = count_in edges

let name_of id = Hashtbl.find_opt edges.by_id id

let all () =
  List.init edges.next (fun id ->
      (id, Option.value ~default:"?" (Hashtbl.find_opt edges.by_id id)))
