open Sqlcore
module Vec = Reprutil.Vec
module Rng = Reprutil.Rng

(* Structures kept per statement type. *)
let cap_per_type = 64

type t = {
  by_type : Ast.stmt Vec.t array;  (* indexed by Stmt_type.to_index *)
  seen : (string, unit) Hashtbl.t;
  journal : Ast.stmt Vec.t;
  mutable total : int;
}

let create () =
  { by_type = Array.init Stmt_type.count (fun _ -> Vec.create ());
    seen = Hashtbl.create 256;
    journal = Vec.create ();
    total = 0 }

(* Eviction is deterministic given the store order: replace the slot the
   size hash points at. [journal] decides whether the structure counts as
   a local discovery worth re-exporting to other shards: foreign imports
   via [store] are kept but never journaled, so they can't echo back. *)
let insert t ~journal stmt =
  let key = Sql_printer.stmt stmt in
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.replace t.seen key ();
    let idx = Stmt_type.to_index (Ast.type_of_stmt stmt) in
    let vec = t.by_type.(idx) in
    if Vec.length vec < cap_per_type then begin
      Vec.push vec stmt;
      t.total <- t.total + 1
    end
    else Vec.set vec (Hashtbl.hash key mod cap_per_type) stmt;
    if journal then Vec.push t.journal stmt;
    true
  end

let harvest t tc =
  let stored = ref 0 in
  List.iter
    (fun stmt -> if insert t ~journal:true stmt then incr stored)
    tc;
  !stored

let store t stmt = insert t ~journal:false stmt

let journal_length t = Vec.length t.journal

let journal_since t from =
  let n = Vec.length t.journal in
  let acc = ref [] in
  for i = n - 1 downto max 0 from do
    acc := Vec.get t.journal i :: !acc
  done;
  !acc

let pick t rng ty =
  let vec = t.by_type.(Stmt_type.to_index ty) in
  let n = Vec.length vec in
  if n = 0 then None else Some (Vec.get vec (Rng.int rng n))

let count t = t.total

let types_covered t =
  Array.fold_left
    (fun acc vec -> if Vec.length vec > 0 then acc + 1 else acc)
    0 t.by_type
