(* A ring of recent statements, newest first on lookup. Three parallel
   arrays rather than an array of records: a hit writes nothing, and a
   miss overwrites the oldest slot in place. Only the first [len] slots
   are ever compared, so the filler statement of an empty slot never
   matches. *)

type t = {
  stmts : Sqlcore.Ast.stmt array;
  texts : string array;
  digests : string array;  (* "" until first asked for *)
  mutable len : int;
  mutable next : int;  (* the slot the next miss takes *)
}

let cap = 64

let create () =
  { stmts = Array.make cap Sqlcore.Ast.S_begin;
    texts = Array.make cap "";
    digests = Array.make cap "";
    len = 0;
    next = 0 }

let slot t stmt =
  let rec scan k =
    if k > t.len then begin
      let i = t.next in
      t.stmts.(i) <- stmt;
      t.texts.(i) <- Sqlcore.Sql_printer.stmt stmt;
      t.digests.(i) <- "";
      t.next <- (i + 1) mod cap;
      if t.len < cap then t.len <- t.len + 1;
      i
    end
    else
      let i = (t.next - k + cap) mod cap in
      if t.stmts.(i) == stmt then i else scan (k + 1)
  in
  scan 1

let text t stmt = t.texts.(slot t stmt)

let digest t stmt =
  let i = slot t stmt in
  match t.digests.(i) with
  | "" ->
    let d = Digest.string t.texts.(i) in
    t.digests.(i) <- d;
    d
  | d -> d

let length t = t.len
