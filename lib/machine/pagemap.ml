type space = Ispace | Dspace [@@deriving eq, ord, show]

type entry = {
  frame : int;
  writable : bool;
  mutable referenced : bool;
  mutable dirty : bool;
}

(* Every mapping is in its space's flat array, which [translate] and
   [find] read, and in [tbl], which gives [entries] and [drop_clean] their
   order.  Each array is allocated on its space's first mapping, so a
   machine that never maps pays nothing. *)
type t = {
  tbl : (space * int, entry) Hashtbl.t;
  mutable ipages : entry array;
  mutable dpages : entry array;
}

exception Fault of space * int

let page_bits = 10
let page_words = 1 lsl page_bits
let flat_pages = (1 lsl Segmap.vspace_bits) / page_words

(* the empty slot of a flat array, recognized with [==] *)
let absent = { frame = -1; writable = false; referenced = false; dirty = false }

let create () = { tbl = Hashtbl.create 64; ipages = [||]; dpages = [||] }

let[@inline] pages t = function Ispace -> t.ipages | Dspace -> t.dpages
let[@inline] flat pages vpage = vpage >= 0 && vpage < Array.length pages

let[@inline] lookup t space vpage =
  let pages = pages t space in
  if flat pages vpage then Array.unsafe_get pages vpage else absent

let unset_flat t space vpage =
  let pages = pages t space in
  if flat pages vpage then pages.(vpage) <- absent

let map t space ~vpage ~frame ~writable =
  if vpage < 0 || vpage >= flat_pages then
    invalid_arg "Pagemap.map: page outside the global virtual space";
  if Array.length (pages t space) = 0 then begin
    let a = Array.make flat_pages absent in
    match space with Ispace -> t.ipages <- a | Dspace -> t.dpages <- a
  end;
  let e = { frame; writable; referenced = false; dirty = false } in
  Hashtbl.replace t.tbl (space, vpage) e;
  (pages t space).(vpage) <- e

let unmap t space ~vpage =
  Hashtbl.remove t.tbl (space, vpage);
  unset_flat t space vpage

let find t space ~vpage =
  let e = lookup t space vpage in
  if e == absent then None else Some e

let translate t space ~write gaddr =
  let e = lookup t space (gaddr / page_words) in
  if e == absent || (write && not e.writable) then raise (Fault (space, gaddr));
  e.referenced <- true;
  if write then e.dirty <- true;
  (e.frame * page_words) + (gaddr mod page_words)

let drop_clean t ~pick =
  let clean =
    Hashtbl.fold
      (fun (space, vpage) e acc ->
        if e.dirty then acc else (space, vpage) :: acc)
      t.tbl []
    |> List.sort compare
  in
  match clean with
  | [] -> None
  | _ :: _ ->
      let ((space, vpage) as victim) =
        List.nth clean (pick mod List.length clean)
      in
      unmap t space ~vpage;
      Some victim

let entries t =
  Hashtbl.fold (fun (space, vpage) e acc -> (space, vpage, e) :: acc) t.tbl []

let clear t =
  Hashtbl.iter (fun (space, vpage) _ -> unset_flat t space vpage) t.tbl;
  Hashtbl.reset t.tbl
