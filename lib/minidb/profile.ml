type flavor = Pg | Mysql | Mariadb | Comdb2

type t = {
  p_name : string;
  p_flavor : flavor;
  p_types : Sqlcore.Stmt_type.t list;
  p_bugs : Fault.bug list;
  p_checker : Fault.checker;
  p_supported : bool array;
  p_quirks : string list;
}

let make ~name ~flavor ~types ~bugs =
  let quirks = [] in
  let supported = Array.make Sqlcore.Stmt_type.count false in
  List.iter
    (fun ty -> supported.(Sqlcore.Stmt_type.to_index ty) <- true)
    types;
  { p_name = name; p_flavor = flavor; p_types = types; p_bugs = bugs;
    p_checker = Fault.compile bugs; p_supported = supported;
    p_quirks = quirks }

let name t = t.p_name

let flavor t = t.p_flavor

let types t = t.p_types

let type_count t = List.length t.p_types

let bugs t = t.p_bugs

let checker t = t.p_checker

let supports t ty = t.p_supported.(Sqlcore.Stmt_type.to_index ty)

let with_quirks t quirks = { t with p_quirks = quirks }

let quirk t name = List.mem name t.p_quirks

let quirks t = t.p_quirks

let without_bugs t = { t with p_bugs = []; p_checker = Fault.compile [] }
