(* The page map as a polymorphic hash table keyed by (space, page): the
   implementation the flat per-space table replaced, kept as the oracle for
   the page-map property in the machine suite.  Every operation answers as
   the old [Mips_machine.Pagemap] did, entry order included. *)

type space = Mips_machine.Pagemap.space

type entry = {
  frame : int;
  writable : bool;
  mutable referenced : bool;
  mutable dirty : bool;
}

type t = (space * int, entry) Hashtbl.t

exception Fault of space * int

let page_words = 1024
let create () : t = Hashtbl.create 64

let map t space ~vpage ~frame ~writable =
  Hashtbl.replace t (space, vpage)
    { frame; writable; referenced = false; dirty = false }

let unmap t space ~vpage = Hashtbl.remove t (space, vpage)
let find t space ~vpage = Hashtbl.find_opt t (space, vpage)

let translate t space ~write gaddr =
  let vpage = gaddr / page_words in
  match Hashtbl.find_opt t (space, vpage) with
  | None -> raise (Fault (space, gaddr))
  | Some e ->
      if write && not e.writable then raise (Fault (space, gaddr));
      e.referenced <- true;
      if write then e.dirty <- true;
      (e.frame * page_words) + (gaddr mod page_words)

let drop_clean t ~pick =
  let clean =
    Hashtbl.fold
      (fun (space, vpage) e acc ->
        if e.dirty then acc else (space, vpage) :: acc)
      t []
    |> List.sort compare
  in
  match clean with
  | [] -> None
  | _ :: _ ->
      let ((space, vpage) as victim) =
        List.nth clean (pick mod List.length clean)
      in
      Hashtbl.remove t (space, vpage);
      Some victim

let entries t =
  Hashtbl.fold (fun (space, vpage) e acc -> (space, vpage, e) :: acc) t []
