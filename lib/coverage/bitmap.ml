(* The map is backed by a flat byte buffer plus a bounded dirty-index
   list: every 0 -> nonzero transition records its cell index, so
   [reset] (run once per execution, on the hottest path) clears only the
   cells an execution actually touched instead of all 64 KiB. Scans
   ([merge_into], [diff], [hash], ...) walk the dirty list too. When an
   execution touches more cells than the list holds, the map falls back
   to whole-buffer operations ([saturated]) until the next [reset]. *)

type t = {
  buf : Bytes.t;
  mutable dirty : int array;
  mutable n_dirty : int;
  mutable saturated : bool;
}

let size = 65536

let mask = size - 1

(* Large enough that single executions (hundreds of cells) and whole
   campaign virgin maps (a few thousand) stay below it. *)
let dirty_cap = 4096

let create () =
  { buf = Bytes.make size '\000';
    dirty = Array.make dirty_cap 0;
    n_dirty = 0;
    saturated = false }

let mark t i =
  if not t.saturated then begin
    if t.n_dirty < dirty_cap then begin
      Array.unsafe_set t.dirty t.n_dirty i;
      t.n_dirty <- t.n_dirty + 1
    end
    else t.saturated <- true
  end

let reset t =
  if t.saturated then begin
    Bytes.fill t.buf 0 size '\000';
    t.saturated <- false
  end
  else
    for k = 0 to t.n_dirty - 1 do
      Bytes.unsafe_set t.buf (Array.unsafe_get t.dirty k) '\000'
    done;
  t.n_dirty <- 0

let hit t index =
  let i = index land mask in
  let v = Char.code (Bytes.unsafe_get t.buf i) in
  if v = 0 then mark t i;
  if v < 255 then Bytes.unsafe_set t.buf i (Char.unsafe_chr (v + 1))

(* Knuth multiplicative mixing keeps distinct (site, key) pairs well
   spread over the map, like AFL's random edge ids. *)
let probe t ~site ~key =
  let h = (site * 0x9E3779B1) lxor ((key + 1) * 0x85EBCA6B) in
  hit t (h lxor (h lsr 15))

(* [probe]'s xor-of-products folds the site id in linearly, so distinct
   (site, key) pairs can alias to one slot with nothing downstream able
   to tell (the edge map keeps it unchanged for bitmap compatibility
   with recorded campaigns). New slot families use this murmur-style
   finalizer instead: the site id is multiplied and re-avalanched so
   every site bit disturbs every output bit. *)
let mix ~site ~key =
  let h = (site + 1) * 0x9E3779B1 in
  let h = h lxor (h lsr 16) in
  let h = (h lxor ((key + 1) * 0x85EBCA6B)) * 0xC2B2AE35 in
  let h = h lxor (h lsr 13) in
  let h = h * 0x27D4EB2F in
  h lxor (h lsr 16)

let probe_mixed t ~site ~key = hit t (mix ~site ~key)

(* Dirty entries are unique (recorded only on 0 -> nonzero) and stay
   nonzero until the next [reset], so when the map is unsaturated the
   dirty prefix {e is} the nonzero cell set. *)
let count_nonzero t =
  if not t.saturated then t.n_dirty
  else begin
    let n = ref 0 in
    for i = 0 to size - 1 do
      if Bytes.unsafe_get t.buf i <> '\000' then incr n
    done;
    !n
  end

(* Nonzero cells within [lo, hi): lets one map carry two disjoint slot
   families (e.g. grammar rules below 0x8000, rule pairs above) that are
   counted separately but share the merge/diff/compact algebra. *)
let count_nonzero_in t ~lo ~hi =
  let n = ref 0 in
  if not t.saturated then
    for k = 0 to t.n_dirty - 1 do
      let i = Array.unsafe_get t.dirty k in
      if i >= lo && i < hi then incr n
    done
  else
    for i = lo to hi - 1 do
      if Bytes.unsafe_get t.buf i <> '\000' then incr n
    done;
  !n

let bucket = function
  | 0 -> 0
  | 1 -> 1
  | 2 -> 2
  | 3 -> 4
  | n when n < 8 -> 8
  | n when n < 16 -> 16
  | n when n < 32 -> 32
  | n when n < 128 -> 64
  | _ -> 128

let merge_cell ~news virgin i c =
  let b = bucket c in
  let v = Char.code (Bytes.unsafe_get virgin.buf i) in
  if b land lnot v <> 0 then begin
    if v = 0 then mark virgin i;
    Bytes.unsafe_set virgin.buf i (Char.unsafe_chr (v lor b));
    incr news
  end

let merge_into ~virgin t =
  let news = ref 0 in
  if not t.saturated then
    for k = 0 to t.n_dirty - 1 do
      let i = Array.unsafe_get t.dirty k in
      merge_cell ~news virgin i (Char.code (Bytes.unsafe_get t.buf i))
    done
  else
    for i = 0 to size - 1 do
      let c = Char.code (Bytes.unsafe_get t.buf i) in
      if c <> 0 then merge_cell ~news virgin i c
    done;
  !news

(* Virgin maps store OR'd bucket bits, so the union of two campaigns'
   coverage is a per-cell bitwise or. *)
let or_cell ~news into i s =
  let v = Char.code (Bytes.unsafe_get into.buf i) in
  if s land lnot v <> 0 then begin
    if v = 0 then mark into i;
    Bytes.unsafe_set into.buf i (Char.unsafe_chr (v lor s));
    incr news
  end

let merge ~into src =
  let news = ref 0 in
  if not src.saturated then
    for k = 0 to src.n_dirty - 1 do
      let i = Array.unsafe_get src.dirty k in
      or_cell ~news into i (Char.code (Bytes.unsafe_get src.buf i))
    done
  else
    for i = 0 to size - 1 do
      let s = Char.code (Bytes.unsafe_get src.buf i) in
      if s <> 0 then or_cell ~news into i s
    done;
  !news

let snapshot t =
  { buf = Bytes.copy t.buf;
    dirty = Array.copy t.dirty;
    n_dirty = t.n_dirty;
    saturated = t.saturated }

let load ~into src =
  reset into;
  if not src.saturated then begin
    for k = 0 to src.n_dirty - 1 do
      let i = Array.unsafe_get src.dirty k in
      Bytes.unsafe_set into.buf i (Bytes.unsafe_get src.buf i);
      Array.unsafe_set into.dirty k i
    done;
    into.n_dirty <- src.n_dirty
  end
  else begin
    Bytes.blit src.buf 0 into.buf 0 size;
    into.saturated <- true;
    into.n_dirty <- 0
  end

(* Like [merge_into] without the mutation: how many cells of the exec
   map [t] hold bucket bits the virgin map lacks. Generation bias ranks
   candidate testcases by this without polluting the virgin map. *)
let count_news ~virgin t =
  let news = ref 0 in
  let check i c =
    if bucket c land lnot (Char.code (Bytes.unsafe_get virgin.buf i)) <> 0
    then incr news
  in
  if not t.saturated then
    for k = 0 to t.n_dirty - 1 do
      let i = Array.unsafe_get t.dirty k in
      check i (Char.code (Bytes.unsafe_get t.buf i))
    done
  else
    for i = 0 to size - 1 do
      let c = Char.code (Bytes.unsafe_get t.buf i) in
      if c <> 0 then check i c
    done;
  !news

let diff t ~since =
  let news = ref 0 in
  if not t.saturated then
    for k = 0 to t.n_dirty - 1 do
      let i = Array.unsafe_get t.dirty k in
      let c = Char.code (Bytes.unsafe_get t.buf i) in
      if c land lnot (Char.code (Bytes.unsafe_get since.buf i)) <> 0 then
        incr news
    done
  else
    for i = 0 to size - 1 do
      let c = Char.code (Bytes.unsafe_get t.buf i) in
      if c land lnot (Char.code (Bytes.unsafe_get since.buf i)) <> 0 then
        incr news
    done;
  !news

let fnv h v = Int64.mul (Int64.logxor h v) 0x100000001b3L

(* The dirty list records insertion order, so sort it before hashing:
   the digest must match a whole-buffer ascending scan bit for bit. *)
let hash t =
  let h = ref 0xcbf29ce484222325L in
  if not t.saturated then begin
    let idx = Array.sub t.dirty 0 t.n_dirty in
    Array.sort compare idx;
    Array.iter
      (fun i ->
         let c = Char.code (Bytes.unsafe_get t.buf i) in
         h := fnv !h (Int64.of_int ((i lsl 8) lor bucket c)))
      idx
  end
  else
    for i = 0 to size - 1 do
      let c = Char.code (Bytes.unsafe_get t.buf i) in
      if c <> 0 then h := fnv !h (Int64.of_int ((i lsl 8) lor bucket c))
    done;
  !h

let is_set t i = Bytes.get t.buf (i land mask) <> '\000'

let copy = snapshot

(* Compact frozen form: just the touched cells, for callers that store
   many point-in-time maps (the prefix-snapshot cache keeps one per
   cached statement boundary). Copying and restoring cost O(touched)
   instead of O(map size). *)
type compact =
  | C_cells of { idx : int array; vals : Bytes.t }
  | C_full of Bytes.t  (* saturated source: fall back to the raw buffer *)

let compact t =
  if not t.saturated then begin
    let n = t.n_dirty in
    let idx = Array.sub t.dirty 0 n in
    let vals = Bytes.create n in
    for k = 0 to n - 1 do
      Bytes.unsafe_set vals k (Bytes.unsafe_get t.buf (Array.unsafe_get idx k))
    done;
    C_cells { idx; vals }
  end
  else C_full (Bytes.copy t.buf)

let load_compact ~into c =
  reset into;
  match c with
  | C_cells { idx; vals } ->
    let n = Array.length idx in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get idx k in
      Bytes.unsafe_set into.buf i (Bytes.unsafe_get vals k);
      Array.unsafe_set into.dirty k i
    done;
    into.n_dirty <- n
  | C_full buf ->
    Bytes.blit buf 0 into.buf 0 size;
    into.saturated <- true;
    into.n_dirty <- 0

let compact_bytes = function
  | C_cells { idx; _ } -> 32 + (9 * Array.length idx)
  | C_full _ -> size + 16

(* Canonical serialisable form: ascending (index, value) pairs. The
   compact's own idx array is in touch order (and C_full is positional),
   so both arms sort/scan into the same ascending listing. C_cells sorts
   packed [index lsl 8 lor value] ints — the (index, value) order,
   without tuples or polymorphic compare. *)
let iter_compact_cells f c =
  match c with
  | C_cells { idx; vals } ->
    let keys =
      Array.init (Array.length idx) (fun k ->
        (Array.unsafe_get idx k lsl 8) lor Char.code (Bytes.unsafe_get vals k))
    in
    Array.sort Int.compare keys;
    Array.iter
      (fun key ->
         let v = key land 0xff in
         if v <> 0 then f (key lsr 8) v)
      keys
  | C_full buf ->
    for i = 0 to size - 1 do
      let v = Char.code (Bytes.unsafe_get buf i) in
      if v <> 0 then f i v
    done

let compact_cells c =
  let acc = ref [] in
  iter_compact_cells (fun i v -> acc := (i, v) :: !acc) c;
  List.rev !acc

let compact_of_cells cells =
  (* Deduplicate through a scratch buffer: duplicate indices must not
     inflate the dirty count the C_cells loader reconstructs. *)
  let buf = Bytes.make size '\000' in
  let n = ref 0 in
  List.iter
    (fun (i, v) ->
       let i = i land mask in
       let v = max 0 (min 255 v) in
       if Bytes.get buf i = '\000' && v <> 0 then incr n;
       if v <> 0 then Bytes.set buf i (Char.chr v))
    cells;
  if !n > dirty_cap then C_full buf
  else begin
    let idx = Array.make !n 0 in
    let vals = Bytes.create !n in
    let k = ref 0 in
    for i = 0 to size - 1 do
      let v = Bytes.unsafe_get buf i in
      if v <> '\000' then begin
        idx.(!k) <- i;
        Bytes.set vals !k v;
        incr k
      end
    done;
    C_cells { idx; vals }
  end
