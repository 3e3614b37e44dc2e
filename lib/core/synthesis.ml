open Sqlcore
module Vec = Reprutil.Vec

(* S is a forest of parent-pointer cons cells: sequence [id] is its
   parent's sequence extended with one statement type, so recording a
   sequence allocates one small node and never materializes a list or
   string. A sequence is uniquely determined by (parent, last type) —
   parents are themselves deduplicated — so the seen-set collapses to a
   per-node bitmap of already-recorded children ([Stmt_type.count] < 126
   bits): dedup is a bit test instead of hashing a key. Algorithm 3
   enumerates hundreds of thousands of sequences per campaign; callers
   reconstruct (via {!to_types}) only the reservoir-sampled handful they
   actually instantiate. *)
type node = {
  parent : int;  (* index into [s]; -1 for the length-1 seeds *)
  ty : int;  (* Stmt_type index of the last statement *)
  len : int;
  mutable kids0 : int;  (* children bitmap, type indices 0..62 *)
  mutable kids1 : int;  (* 63..125 *)
  mutable kids : (int * int) list;
      (* (type index, child id), newest first. Only scanned on the
         duplicate path — the bitmap answers "does this child exist?" —
         so the hot new-child path is a cons, never a hash. *)
}

type id = int

(* Bound on [S], across all affinities. *)
let max_total = 200_000

type t = {
  max_len : int;
  max_per_affinity : int;
  s : node Vec.t;
  ps : (int * int, int list ref) Hashtbl.t;
      (* Prefix Sequence index: (type, len) -> sequence ids, maintained
         incrementally as sequences are recorded (never rebuilt) *)
  roots : int array;  (* seed id per type index *)
}

let ps_bucket t ty_ix len =
  let key = (ty_ix, len) in
  match Hashtbl.find_opt t.ps key with
  | Some bucket -> bucket
  | None ->
    let bucket = ref [] in
    Hashtbl.replace t.ps key bucket;
    bucket

let has_kid node c =
  if c < 63 then node.kids0 land (1 lsl c) <> 0
  else node.kids1 land (1 lsl (c - 63)) <> 0

let set_kid node c =
  if c < 63 then node.kids0 <- node.kids0 lor (1 lsl c)
  else node.kids1 <- node.kids1 lor (1 lsl (c - 63))

(* Record the extension of [parent] with type index [c]: [(id, fresh)]
   where [id] is the (new or pre-existing) child sequence. *)
let record t parent c =
  let pnode = Vec.get t.s parent in
  if has_kid pnode c then (List.assoc c pnode.kids, false)
  else begin
    set_kid pnode c;
    let id = Vec.length t.s in
    Vec.push t.s
      { parent; ty = c; len = pnode.len + 1; kids0 = 0; kids1 = 0; kids = [] };
    pnode.kids <- (c, id) :: pnode.kids;
    let bucket = ps_bucket t c (pnode.len + 1) in
    bucket := id :: !bucket;
    (id, true)
  end

let create ?(max_len = 5) ?(max_per_affinity = 512) ~types () =
  assert (Stmt_type.count <= 126);
  let t =
    { max_len; max_per_affinity; s = Vec.create ();
      ps = Hashtbl.create 256;
      roots = Array.make Stmt_type.count (-1) }
  in
  List.iter
    (fun ty ->
       let c = Stmt_type.to_index ty in
       if t.roots.(c) < 0 then begin
         let id = Vec.length t.s in
         Vec.push t.s
           { parent = -1; ty = c; len = 1; kids0 = 0; kids1 = 0; kids = [] };
         t.roots.(c) <- id;
         let bucket = ps_bucket t c 1 in
         bucket := id :: !bucket
       end)
    types;
  t

let total t = Vec.length t.s

let to_types t id =
  let rec walk id acc =
    if id < 0 then acc
    else
      let n = Vec.get t.s id in
      walk n.parent (Stmt_type.of_index n.ty :: acc)
  in
  walk id []

let sequences t = List.init (Vec.length t.s) (to_types t)

let prefix_count t ~ty ~len =
  match Hashtbl.find_opt t.ps (Stmt_type.to_index ty, len) with
  | None -> 0
  | Some bucket -> List.length !bucket

exception Budget

let on_new_affinity_iter t aff (t1, t2) yield =
  let produced = ref 0 in
  let emit parent c =
    if Vec.length t.s >= max_total || !produced >= t.max_per_affinity then
      raise Budget;
    let id, fresh = record t parent c in
    if fresh then begin
      yield id;
      incr produced
    end;
    id
  in
  (* Function listSeq of Algorithm 3: extend the sequence [id] (ending
     in the type with index [node_ix], of length [level]) with every
     affinity successor, recording each extension. Duplicates are
     re-walked, not pruned: an earlier announcement's budget may have
     cut their subtrees short. Successor lists come from the affinity
     map's per-type memo, maintained incrementally across discoveries
     instead of being rebuilt per visit. *)
  let rec list_seq level node_ix id =
    if level < t.max_len then
      List.iter
        (fun next_ix ->
           let id' = emit id next_ix in
           list_seq (level + 1) next_ix id')
        (Affinity.successor_indices aff node_ix)
  in
  let i1 = Stmt_type.to_index t1 in
  let i2 = Stmt_type.to_index t2 in
  (try
     for level = 1 to t.max_len - 1 do
       (* Snapshot: extensions recorded below must not feed this loop. *)
       let prefix_ids =
         match Hashtbl.find_opt t.ps (i1, level) with
         | None -> []
         | Some bucket -> !bucket
       in
       List.iter
         (fun pid ->
            let id = emit pid i2 in
            list_seq (level + 1) i2 id)
         prefix_ids
     done
   with Budget -> ())

let on_new_affinity t aff pair =
  let news = ref [] in
  on_new_affinity_iter t aff pair (fun id -> news := id :: !news);
  List.rev !news
