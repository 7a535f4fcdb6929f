let load_use_conflict ~earlier ~later =
  let delayed = Word.load_writes earlier in
  (not (Reg.Set.is_empty delayed))
  && not (Reg.Set.is_empty (Reg.Set.inter delayed (Word.reads later)))

let sequence_hazards words =
  let acc = ref [] in
  for i = 1 to Array.length words - 1 do
    let delayed = Word.load_writes words.(i - 1) in
    let stale = Reg.Set.inter delayed (Word.reads words.(i)) in
    Reg.Set.iter (fun r -> acc := (i, r) :: !acc) stale
  done;
  List.rev !acc

(* Memory dependence: loads commute with loads; anything involving a store
   conflicts unless both references are to distinct absolute addresses. *)
let mem_dependent m1 m2 =
  let open Mem in
  let addr_of = function
    | Load (_, a, _) -> Some a
    | Store (_, _, a) -> Some a
    | Limm _ -> None
  in
  match (addr_of m1, addr_of m2) with
  | None, _ | _, None -> false
  | Some a1, Some a2 -> (
      if not (is_store m1 || is_store m2) then false
      else
        match (a1, a2) with
        | Abs x, Abs y -> x = y
        | _ -> true)
