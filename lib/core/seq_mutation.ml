open Sqlcore
module Rng = Reprutil.Rng

type op = Substitution | Insertion | Deletion

let schema_before tc pos =
  let schema = Sym_schema.empty () in
  List.iteri (fun i s -> if i < pos then Sym_schema.apply schema s) tc;
  schema

let random_type rng types ~not_ty =
  let candidates =
    List.filter (fun ty -> not (Stmt_type.equal ty not_ty)) types
  in
  match candidates with [] -> not_ty | cs -> Rng.choose rng cs

let replace_at tc pos stmt =
  List.mapi (fun i s -> if i = pos then stmt else s) tc

let insert_after tc pos stmt =
  List.concat (List.mapi (fun i s -> if i = pos then [ s; stmt ] else [ s ]) tc)

let delete_at tc pos = List.filteri (fun i _ -> i <> pos) tc

let mutate_at rng ~skeletons ~types tc ~pos =
  match List.nth_opt tc pos with
  | None -> []
  | Some current ->
    let cur_ty = Ast.type_of_stmt current in
    let mutants = ref [] in
    (* Substitution: a different type at the same position. *)
    let sub_ty = random_type rng types ~not_ty:cur_ty in
    let schema = schema_before tc pos in
    let sub_stmt = Instantiate.statement rng ~skeletons ~schema sub_ty in
    mutants :=
      (Substitution, Instantiate.repair rng (replace_at tc pos sub_stmt))
      :: !mutants;
    (* Insertion: a random type after the position. Long seeds are not
       extended further (the paper bounds sequence length to stay
       fuzzing-friendly, challenge C3). *)
    if List.length tc < 24 then begin
    let ins_ty = Rng.choose rng types in
    let schema = schema_before tc (pos + 1) in
    let ins_stmt = Instantiate.statement rng ~skeletons ~schema ins_ty in
    mutants :=
      (Insertion, Instantiate.repair rng (insert_after tc pos ins_stmt))
      :: !mutants
    end;
    (* Deletion. *)
    if List.length tc > 1 then
      mutants :=
        (Deletion, Instantiate.repair rng (delete_at tc pos)) :: !mutants;
    List.rev !mutants

let mutate_all rng ~skeletons ~types tc =
  List.concat
    (List.mapi (fun pos _ -> mutate_at rng ~skeletons ~types tc ~pos) tc)
