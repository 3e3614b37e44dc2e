(* Grammar-rule coverage lives in its own bitmap, split into two slot
   families: the lower half holds one cell per production site (the cell
   index IS the site id, so rules can never alias each other or anything
   else), the upper half holds (production x parent-production) pairs
   spread by the avalanching [Bitmap.mix]. Keeping both families in one
   map means the whole merge/diff/snapshot/compact algebra built for the
   edge map applies unchanged to grammar coverage. *)

let rule_region = Bitmap.size / 2

let rule_slot ~site =
  assert (site < rule_region);
  site

let pair_slot ~site ~parent =
  rule_region lor (Bitmap.mix ~site ~key:parent land (rule_region - 1))

let record g ~site ~parent =
  Bitmap.hit g (rule_slot ~site);
  Bitmap.hit g (pair_slot ~site ~parent)

(* A trace packs the cells runs of [record] calls hit, in hit order, two
   bytes per cell (both families fit below [Bitmap.size] = 2^16), after a
   4-byte header holding the byte length of the first run. Traces are
   strings, so a memo holding thousands of them adds nothing for the GC
   to scan. Logging writes into one reusable byte buffer that only
   grows: a fresh buffer per statement would cost a good share of the
   parse it records. *)
type log = { mutable cells : Bytes.t; mutable len : int }

let log_create () = { cells = Bytes.create 1024; len = 0 }

let log_length log = log.len

let log_clear log = log.len <- 0

let log_grow log =
  let cells = Bytes.create (2 * Bytes.length log.cells) in
  Bytes.blit log.cells 0 cells 0 log.len;
  log.cells <- cells

let record_logged g log ~site ~parent =
  let rule = rule_slot ~site and pair = pair_slot ~site ~parent in
  Bitmap.hit g rule;
  Bitmap.hit g pair;
  if log.len + 4 > Bytes.length log.cells then log_grow log;
  Bytes.set_uint16_le log.cells log.len rule;
  Bytes.set_uint16_le log.cells (log.len + 2) pair;
  log.len <- log.len + 4

let trace_of_log log ~first:(pos1, len1) ~second:(pos2, len2) =
  let out = Bytes.create (4 + len1 + len2) in
  Bytes.set_int32_le out 0 (Int32.of_int len1);
  Bytes.blit log.cells pos1 out 4 len1;
  Bytes.blit log.cells pos2 out (4 + len1) len2;
  Bytes.unsafe_to_string out

let replay_cells g trace ~lo ~hi =
  let k = ref lo in
  while !k < hi do
    Bitmap.hit g (String.get_uint16_le trace !k);
    k := !k + 2
  done

let split trace = 4 + Int32.to_int (String.get_int32_le trace 0)

let replay_first g trace = replay_cells g trace ~lo:4 ~hi:(split trace)

let replay_second g trace =
  replay_cells g trace ~lo:(split trace) ~hi:(String.length trace)

let rules g = Bitmap.count_nonzero_in g ~lo:0 ~hi:rule_region

let pairs g = Bitmap.count_nonzero_in g ~lo:rule_region ~hi:Bitmap.size
