(* Three heap blocks per entry at most (table cell, key, value), and a
   hit writes nothing unless it promotes. A key lives in one generation
   at a time, so the counts and byte totals are of distinct entries. *)

type ('k, 'v) t = {
  generation : int;
  max_bytes : int;
  bytes : 'k -> 'v -> int;
  mutable young : ('k, 'v) Hashtbl.t;
  mutable old : ('k, 'v) Hashtbl.t;
  mutable young_bytes : int;
  mutable old_bytes : int;
  mutable dropped : int;
}

let create ?(bytes = fun _ _ -> 0) ?(max_bytes = max_int) ~generation () =
  { generation; max_bytes; bytes;
    young = Hashtbl.create 256;
    old = Hashtbl.create 1;
    young_bytes = 0;
    old_bytes = 0;
    dropped = 0 }

let add t k v =
  let bytes = t.bytes k v in
  if Hashtbl.length t.young >= t.generation
  || t.young_bytes + bytes > t.max_bytes
  then begin
    t.dropped <- t.dropped + Hashtbl.length t.old;
    t.old <- t.young;
    t.old_bytes <- t.young_bytes;
    t.young <- Hashtbl.create 256;
    t.young_bytes <- 0
  end;
  Hashtbl.replace t.young k v;
  t.young_bytes <- t.young_bytes + bytes

let find t k =
  match Hashtbl.find_opt t.young k with
  | Some _ as hit -> hit
  | None ->
    (match Hashtbl.find_opt t.old k with
     | Some v as hit ->
       Hashtbl.remove t.old k;
       t.old_bytes <- t.old_bytes - t.bytes k v;
       add t k v;
       hit
     | None -> None)

let mem t k = Hashtbl.mem t.young k || Hashtbl.mem t.old k

let length t = Hashtbl.length t.young + Hashtbl.length t.old

let bytes t = t.young_bytes + t.old_bytes

let dropped t = t.dropped
