open Reprutil

type col = {
  c_name : string;
  c_type : Sqlcore.Ast.data_type;
  c_not_null : bool;
  c_primary : bool;
  c_unique : bool;
  c_default : Value.t option;
  c_zerofill : bool;
}

(* Key maps answer "which rows hold this key at these positions" in
   O(log n) for the executor's unique-constraint checks. Each map is
   built on the first [find_key] for its position list and kept current
   by every mutator below; the maps are persistent, so [copy] shares
   them like the row map. A row whose length differs from the schema's
   arity (a trigger altered the table mid-statement) makes the table
   [ragged]: its maps are dropped and [find_key] answers [None] until
   a truncate, so callers fall back to a scan that fails exactly as it
   always did on such rows. *)
module Kmap = Map.Make (Index.Key)
module Iset = Set.Make (Int)

type keymap = { k_pos : int list; k_map : Iset.t Kmap.t }

(* Rows live in a persistent map keyed by rowid. Rowids are assigned
   monotonically and never reused (truncate does not reset
   [next_rowid]), so ascending key order IS insertion order — [iter]
   and [to_rows] preserve the ordering the old Vec-backed storage had.
   The executor never mutates a stored row array in place (updates
   build a fresh array), so [copy] can share both the map root and the
   row arrays: snapshots are O(1) and later mutations of either side
   only rebind their own [t_rows] field. *)
type t = {
  mutable t_name : string;
  t_temp : bool;
  mutable t_cols : col array;
  mutable t_rows : Value.t array Imap.t;
  mutable next_rowid : int;
  mutable t_keys : keymap list;
  mutable t_ragged : bool;
}

let create ~name ~temp cols =
  { t_name = name; t_temp = temp; t_cols = Array.of_list cols;
    t_rows = Imap.empty; next_rowid = 0; t_keys = []; t_ragged = false }

let col_of_def (d : Sqlcore.Ast.col_def) =
  { c_name = d.col_name;
    c_type = d.col_type;
    c_not_null = d.not_null || d.primary_key;
    c_primary = d.primary_key;
    c_unique = d.unique || d.primary_key;
    c_default = Option.map Value.of_literal d.default;
    c_zerofill = d.zerofill }

let name t = t.t_name

let set_name t n = t.t_name <- n

let is_temp t = t.t_temp

let cols t = t.t_cols

let col_index t name =
  let n = Array.length t.t_cols in
  let rec loop i =
    if i >= n then None
    else if String.equal t.t_cols.(i).c_name name then Some i
    else loop (i + 1)
  in
  loop 0

let arity t = Array.length t.t_cols

let row_count t = Imap.cardinal t.t_rows

let key_at row positions = List.map (fun p -> row.(p)) positions

let km_add row id km =
  let key = key_at row km.k_pos in
  let ids = Option.value ~default:Iset.empty (Kmap.find_opt key km.k_map) in
  { km with k_map = Kmap.add key (Iset.add id ids) km.k_map }

let km_remove row id km =
  let key = key_at row km.k_pos in
  match Kmap.find_opt key km.k_map with
  | None -> km
  | Some ids ->
    let ids = Iset.remove id ids in
    { km with
      k_map =
        (if Iset.is_empty ids then Kmap.remove key km.k_map
         else Kmap.add key ids km.k_map) }

(* Call before storing [row]: a row of the wrong arity retires the key
   maps for good (until truncate). *)
let note_arity t row =
  if Array.length row <> Array.length t.t_cols then begin
    t.t_ragged <- true;
    t.t_keys <- []
  end

let insert t row =
  let id = t.next_rowid in
  t.next_rowid <- id + 1;
  note_arity t row;
  t.t_keys <- List.map (km_add row id) t.t_keys;
  t.t_rows <- Imap.add_new id row t.t_rows;
  id

let last_rowid t = t.next_rowid - 1

let find_row t rowid = Imap.find_opt rowid t.t_rows

let update_row t rowid row =
  match Imap.find_opt rowid t.t_rows with
  | None -> ()
  | Some old ->
    note_arity t row;
    t.t_keys <-
      List.map (fun km -> km_add row rowid (km_remove old rowid km)) t.t_keys;
    t.t_rows <- Imap.add rowid row t.t_rows

let delete_rows t pred =
  let gone = ref [] in
  let kept =
    Imap.filter
      (fun id row -> not (pred id) || (gone := (id, row) :: !gone; false))
      t.t_rows
  in
  if !gone <> [] then begin
    t.t_keys <-
      List.map
        (fun km ->
           List.fold_left (fun km (id, row) -> km_remove row id km) km !gone)
        t.t_keys;
    t.t_rows <- kept
  end;
  List.length !gone

let delete_row t rowid =
  match Imap.find_opt rowid t.t_rows with
  | None -> ()
  | Some row ->
    t.t_keys <- List.map (km_remove row rowid) t.t_keys;
    t.t_rows <- Imap.remove rowid t.t_rows

let truncate t =
  let n = Imap.cardinal t.t_rows in
  t.t_rows <- Imap.empty;
  t.t_keys <-
    (if t.t_ragged then []
     else List.map (fun km -> { km with k_map = Kmap.empty }) t.t_keys);
  t.t_ragged <- false;
  n

let ragged t = t.t_ragged

let find_key t positions key =
  if t.t_ragged then None
  else
    let km =
      match List.find_opt (fun km -> km.k_pos = positions) t.t_keys with
      | Some km -> km
      | None ->
        let km =
          Imap.fold (fun id row km -> km_add row id km) t.t_rows
            { k_pos = positions; k_map = Kmap.empty }
        in
        t.t_keys <- km :: t.t_keys;
        km
    in
    Some
      (match Kmap.find_opt key km.k_map with
       | None -> []
       | Some ids -> Iset.elements ids)

let iter f t = Imap.iter f t.t_rows

let to_rows t = Imap.bindings t.t_rows

let rows t = List.rev (Imap.fold (fun _ row acc -> row :: acc) t.t_rows [])

let rows_root_eq a b = Imap.root_eq a.t_rows b.t_rows

let add_column t col =
  t.t_cols <- Array.append t.t_cols [| col |];
  let filler = Option.value ~default:Value.Null col.c_default in
  t.t_rows <- Imap.map (fun row -> Array.append row [| filler |]) t.t_rows

let drop_column t pos =
  let keep_cols =
    Array.of_list
      (List.filteri (fun i _ -> i <> pos) (Array.to_list t.t_cols))
  in
  t.t_cols <- keep_cols;
  (* Values stay put; positions past [pos] shift down by one. *)
  t.t_keys <-
    List.filter_map
      (fun km ->
         if List.mem pos km.k_pos then None
         else
           let shift p = if p > pos then p - 1 else p in
           Some { km with k_pos = List.map shift km.k_pos })
      t.t_keys;
  t.t_rows <-
    Imap.map
      (fun row ->
         Array.of_list
           (List.filteri (fun j _ -> j <> pos) (Array.to_list row)))
      t.t_rows

let rename_column t pos name =
  let cols = Array.copy t.t_cols in
  cols.(pos) <- { cols.(pos) with c_name = name };
  t.t_cols <- cols

let copy t =
  { t_name = t.t_name; t_temp = t.t_temp; t_cols = t.t_cols;
    t_rows = t.t_rows; next_rowid = t.next_rowid; t_keys = t.t_keys;
    t_ragged = t.t_ragged }

(* Pre-refactor physical copy, kept for the --cow off ablation
   (and as the reference implementation in the equivalence tests):
   rebuilds the row map with fresh arrays so no row is shared. The key
   maps hold values, never row arrays, so sharing them is safe. *)
let deep_copy t =
  { t with t_cols = Array.copy t.t_cols; t_rows = Imap.map Array.copy t.t_rows }

let change_column_type t pos dt =
  let cols = Array.copy t.t_cols in
  cols.(pos) <- { cols.(pos) with c_type = dt };
  t.t_cols <- cols;
  t.t_keys <- List.filter (fun km -> not (List.mem pos km.k_pos)) t.t_keys;
  t.t_rows <-
    Imap.map
      (fun row ->
         let row = Array.copy row in
         (row.(pos) <-
            (match Value.coerce row.(pos) dt with
             | Ok v -> v
             | Error _ -> Value.Null));
         row)
      t.t_rows
