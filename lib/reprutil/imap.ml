module M = Map.Make (Int)

type 'a t = { root : 'a M.t; count : int }

let empty = { root = M.empty; count = 0 }


let cardinal t = t.count

let add k v t =
  let delta = if M.mem k t.root then 0 else 1 in
  { root = M.add k v t.root; count = t.count + delta }

let add_new k v t = { root = M.add k v t.root; count = t.count + 1 }

let remove k t =
  if M.mem k t.root then { root = M.remove k t.root; count = t.count - 1 }
  else t

let find_opt k t = M.find_opt k t.root

let mem k t = M.mem k t.root

let iter f t = M.iter f t.root

let fold f t acc = M.fold f t.root acc

let map f t = { root = M.map f t.root; count = t.count }

let filter p t =
  let root = M.filter p t.root in
  { root; count = M.cardinal root }

let bindings t = M.bindings t.root

let of_list l =
  List.fold_left (fun acc (k, v) -> add k v acc) empty l

let root_eq a b = a.root == b.root
