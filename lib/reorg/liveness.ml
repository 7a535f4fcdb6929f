open Mips_isa

let live_in ~index blocks =
  let n = Array.length blocks in
  let uses = Array.map Block.block_uses blocks in
  let defs = Array.map Block.block_defs blocks in
  let succs = Array.init n (Block.successors index blocks) in
  let live_in = Array.make n Reg.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc j -> Reg.Set.union acc live_in.(j))
          Reg.Set.empty succs.(i)
      in
      let li = Reg.Set.union uses.(i) (Reg.Set.diff out defs.(i)) in
      if not (Reg.Set.equal li live_in.(i)) then begin
        live_in.(i) <- li;
        changed := true
      end
    done
  done;
  live_in
