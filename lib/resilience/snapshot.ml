open Mips_isa
open Mips_machine
open Mips_os

(* --- errors -------------------------------------------------------------- *)

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Checksum_mismatch
  | Corrupt of string
  | Io_error of string

let error_to_string = function
  | Truncated -> "checkpoint truncated"
  | Bad_magic -> "not a checkpoint file (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported checkpoint version %d" v
  | Checksum_mismatch -> "checkpoint checksum mismatch"
  | Corrupt m -> "corrupt checkpoint: " ^ m
  | Io_error m -> "checkpoint I/O error: " ^ m

(* structural failure inside a digest-valid body *)
exception Bad of string

(* --- primitive readers and writers --------------------------------------- *)

module Io = struct
  module W = struct
    type t = Buffer.t

    let create () = Buffer.create 256
    let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

    let u16 b v =
      u8 b v;
      u8 b (v lsr 8)

    let i64 b (v : int64) =
      for k = 0 to 7 do
        u8 b (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
      done

    let int b v = i64 b (Int64.of_int v)
    let bool b v = u8 b (if v then 1 else 0)
    let float b v = i64 b (Int64.bits_of_float v)

    let str b s =
      int b (String.length s);
      Buffer.add_string b s

    let opt f b = function
      | None -> u8 b 0
      | Some v ->
          u8 b 1;
          f b v

    let list f b xs =
      int b (List.length xs);
      List.iter (f b) xs

    let contents = Buffer.contents
  end

  module R = struct
    type t = { data : string; mutable pos : int }

    exception Underflow

    let make data = { data; pos = 0 }
    let remaining r = String.length r.data - r.pos

    let skip r n =
      if n < 0 || n > remaining r then raise Underflow;
      r.pos <- r.pos + n

    let u8 r =
      if r.pos >= String.length r.data then raise Underflow;
      let c = Char.code r.data.[r.pos] in
      r.pos <- r.pos + 1;
      c

    let u16 r =
      let lo = u8 r in
      lo lor (u8 r lsl 8)

    let i64 r =
      let v = ref 0L in
      for k = 0 to 7 do
        v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 r)) (8 * k))
      done;
      !v

    let int r = Int64.to_int (i64 r)

    let bool r =
      match u8 r with
      | 0 -> false
      | 1 -> true
      | n -> raise (Bad (Printf.sprintf "bad boolean byte %d" n))

    let float r = Int64.float_of_bits (i64 r)

    let str r =
      let n = int r in
      if n < 0 || n > remaining r then raise Underflow;
      let s = String.sub r.data r.pos n in
      r.pos <- r.pos + n;
      s

    let opt f r =
      match u8 r with
      | 0 -> None
      | 1 -> Some (f r)
      | n -> raise (Bad (Printf.sprintf "bad option byte %d" n))

    (* each element costs at least one byte, so a hostile length that
       survived the digest still cannot force a huge allocation *)
    let list f r =
      let n = int r in
      if n < 0 || n > remaining r then raise Underflow;
      let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
      go n []
  end
end

(* --- the container -------------------------------------------------------- *)

let magic = "MIPSCKPT"
let version = 1

type container = { kind : string; sections : (string * string) list }

let encode { kind; sections } =
  let b = Io.W.create () in
  Buffer.add_string b magic;
  Io.W.u16 b version;
  Io.W.str b kind;
  Io.W.u16 b (List.length sections);
  List.iter
    (fun (name, payload) ->
      Io.W.str b name;
      Io.W.str b payload)
    sections;
  let body = Io.W.contents b in
  body ^ Digest.string body

let decode data =
  let len = String.length data in
  if len < String.length magic then Error Truncated
  else if String.sub data 0 (String.length magic) <> magic then Error Bad_magic
  else if len < String.length magic + 2 then Error Truncated
  else
    let ver =
      Char.code data.[String.length magic]
      lor (Char.code data.[String.length magic + 1] lsl 8)
    in
    if ver <> version then Error (Bad_version ver)
    else if len < String.length magic + 2 + 16 then Error Truncated
    else
      let body = String.sub data 0 (len - 16) in
      let digest = String.sub data (len - 16) 16 in
      if not (String.equal (Digest.string body) digest) then
        Error Checksum_mismatch
      else
        match
          let r = Io.R.make body in
          Io.R.skip r (String.length magic + 2);
          let kind = Io.R.str r in
          let n = Io.R.u16 r in
          let rec go k acc =
            if k = 0 then List.rev acc
            else
              let name = Io.R.str r in
              let payload = Io.R.str r in
              go (k - 1) ((name, payload) :: acc)
          in
          let sections = go n [] in
          if Io.R.remaining r <> 0 then raise (Bad "trailing bytes");
          { kind; sections }
        with
        | c -> Ok c
        | exception Io.R.Underflow -> Error Truncated
        | exception Bad m -> Error (Corrupt m)

let section c name =
  match List.assoc_opt name c.sections with
  | Some payload -> Ok payload
  | None -> Error (Corrupt ("missing section " ^ name))

(* --- file I/O ------------------------------------------------------------- *)

(* write to a sibling temporary and rename, so a crash mid-write never
   leaves a half checkpoint under the real name *)
let write_file path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data);
  Sys.rename tmp path

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Io_error m)
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | data ->
          close_in_noerr ic;
          decode data
      | exception _ ->
          close_in_noerr ic;
          Error (Io_error ("cannot read " ^ path)))

(* --- shared small codecs --------------------------------------------------- *)

let w_space b = function Pagemap.Ispace -> Io.W.u8 b 0 | Pagemap.Dspace -> Io.W.u8 b 1

let r_space r =
  match Io.R.u8 r with
  | 0 -> Pagemap.Ispace
  | 1 -> Pagemap.Dspace
  | n -> raise (Bad (Printf.sprintf "bad space tag %d" n))

let w_cause b c = Io.W.u8 b (Cause.to_code c)

let r_cause r =
  let code = Io.R.u8 r in
  match Cause.of_code code with
  | c -> c
  | exception Invalid_argument _ ->
      raise (Bad (Printf.sprintf "bad cause code %d" code))

let w_fault_kind b = function
  | Cpu.Missing_page (sp, addr) ->
      Io.W.u8 b 0;
      w_space b sp;
      Io.W.int b addr
  | Cpu.Segment_violation addr ->
      Io.W.u8 b 1;
      Io.W.int b addr
  | Cpu.Transient_ref -> Io.W.u8 b 2

let r_fault_kind r =
  match Io.R.u8 r with
  | 0 ->
      let sp = r_space r in
      Cpu.Missing_page (sp, Io.R.int r)
  | 1 -> Cpu.Segment_violation (Io.R.int r)
  | 2 -> Cpu.Transient_ref
  | n -> raise (Bad (Printf.sprintf "bad fault-kind tag %d" n))

(* --- fault-plan state ------------------------------------------------------ *)

let w_plan b (p : Mips_fault.Plan.t) =
  let c = p.Mips_fault.Plan.cfg in
  Io.W.int b c.Mips_fault.Plan.seed;
  Io.W.float b c.flip_reg_rate;
  Io.W.float b c.flip_data_rate;
  Io.W.float b c.irq_rate;
  Io.W.float b c.page_drop_rate;
  Io.W.float b c.flaky_rate;
  Io.W.int b c.max_injections;
  Io.W.bool b p.enabled;
  Io.W.i64 b (Mips_fault.Rng.state p.rng);
  Io.W.int b p.injected;
  Io.W.int b p.reg_flips;
  Io.W.int b p.data_flips;
  Io.W.int b p.irqs;
  Io.W.int b p.page_drops;
  Io.W.int b p.flaky_armed;
  Io.W.int b p.flaky_fired

let r_plan r : Mips_fault.Plan.t =
  let seed = Io.R.int r in
  let flip_reg_rate = Io.R.float r in
  let flip_data_rate = Io.R.float r in
  let irq_rate = Io.R.float r in
  let page_drop_rate = Io.R.float r in
  let flaky_rate = Io.R.float r in
  let max_injections = Io.R.int r in
  let enabled = Io.R.bool r in
  let rng = Mips_fault.Rng.of_state (Io.R.i64 r) in
  let injected = Io.R.int r in
  let reg_flips = Io.R.int r in
  let data_flips = Io.R.int r in
  let irqs = Io.R.int r in
  let page_drops = Io.R.int r in
  let flaky_armed = Io.R.int r in
  let flaky_fired = Io.R.int r in
  {
    Mips_fault.Plan.cfg =
      {
        Mips_fault.Plan.seed;
        flip_reg_rate;
        flip_data_rate;
        irq_rate;
        page_drop_rate;
        flaky_rate;
        max_injections;
      };
    enabled;
    rng;
    injected;
    reg_flips;
    data_flips;
    irqs;
    page_drops;
    flaky_armed;
    flaky_fired;
  }

(* --- the machine ----------------------------------------------------------- *)

(* Instruction memory is deliberately not serialized: programs are
   re-derived deterministically (recompiled, or re-filled from the process
   image by the kernel), which keeps checkpoints small and makes version
   skew in the compiler visible instead of silently resurrecting stale
   code. *)

let w_stats b (st : Stats.t) =
  Io.W.int b st.Stats.cycles;
  Io.W.int b st.stall_cycles;
  Io.W.int b st.load_use_stall_cycles;
  Io.W.int b st.branch_stall_cycles;
  Io.W.int b st.words;
  Io.W.int b st.nops;
  Io.W.int b st.alu_pieces;
  Io.W.int b st.mem_pieces;
  Io.W.int b st.branch_pieces;
  Io.W.int b st.packed_words;
  Io.W.int b st.branches_taken;
  Io.W.int b st.mem_busy_cycles;
  Io.W.int b st.free_cycles;
  Io.W.float b st.weighted.(0);
  Io.W.list
    (fun b (c, n) ->
      w_cause b c;
      Io.W.int b !n)
    b st.exceptions;
  Io.W.int b st.synthetic_refs;
  Io.W.bool b st.fuel_exhausted;
  List.iter
    (fun (rc : Stats.ref_class) ->
      Io.W.int b rc.Stats.loads;
      Io.W.int b rc.Stats.stores)
    [ st.word_refs; st.word_char_refs; st.byte_refs; st.byte_char_refs ];
  let pairs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.stall_pairs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Io.W.list
    (fun b ((p, c), n) ->
      Io.W.int b p;
      Io.W.int b c;
      Io.W.int b n)
    b pairs

let r_stats r (st : Stats.t) =
  st.Stats.cycles <- Io.R.int r;
  st.stall_cycles <- Io.R.int r;
  st.load_use_stall_cycles <- Io.R.int r;
  st.branch_stall_cycles <- Io.R.int r;
  st.words <- Io.R.int r;
  st.nops <- Io.R.int r;
  st.alu_pieces <- Io.R.int r;
  st.mem_pieces <- Io.R.int r;
  st.branch_pieces <- Io.R.int r;
  st.packed_words <- Io.R.int r;
  st.branches_taken <- Io.R.int r;
  st.mem_busy_cycles <- Io.R.int r;
  st.free_cycles <- Io.R.int r;
  st.weighted.(0) <- Io.R.float r;
  st.exceptions <-
    Io.R.list
      (fun r ->
        let c = r_cause r in
        (c, ref (Io.R.int r)))
      r;
  st.synthetic_refs <- Io.R.int r;
  st.fuel_exhausted <- Io.R.bool r;
  List.iter
    (fun (rc : Stats.ref_class) ->
      rc.Stats.loads <- Io.R.int r;
      rc.Stats.stores <- Io.R.int r)
    [ st.word_refs; st.word_char_refs; st.byte_refs; st.byte_char_refs ];
  Hashtbl.reset st.stall_pairs;
  let pairs =
    Io.R.list
      (fun r ->
        let p = Io.R.int r in
        let c = Io.R.int r in
        let n = Io.R.int r in
        ((p, c), n))
      r
  in
  List.iter (fun (k, n) -> Hashtbl.replace st.stall_pairs k n) pairs

(* data memory as runs of nonzero words: a fresh machine's memory is all
   zero, so only touched regions cost checkpoint bytes.  The scan skips
   every page that still holds the shared zero page; a run may still
   continue into the next page. *)
let w_dmem b cpu =
  let n = (Cpu.config cpu).Cpu.dmem_words in
  Io.W.int b n;
  let runs = ref [] in
  let i = ref 0 in
  while !i < n do
    if not (Cpu.data_written cpu !i) then
      i := (!i lor (Pagemap.page_words - 1)) + 1
    else if Cpu.read_data cpu !i <> 0 then begin
      let start = !i in
      while !i < n && Cpu.read_data cpu !i <> 0 do
        incr i
      done;
      runs := (start, !i - start) :: !runs
    end
    else incr i
  done;
  let runs = List.rev !runs in
  Io.W.int b (List.length runs);
  List.iter
    (fun (start, len) ->
      Io.W.int b start;
      Io.W.int b len;
      for k = start to start + len - 1 do
        Io.W.int b (Cpu.read_data cpu k)
      done)
    runs

let r_dmem r cpu =
  let n = Io.R.int r in
  if n <> (Cpu.config cpu).Cpu.dmem_words then
    raise
      (Bad
         (Printf.sprintf "data-memory size mismatch (snapshot %d, machine %d)"
            n (Cpu.config cpu).Cpu.dmem_words));
  (* the runs only cover nonzero words, and the target machine has the
     program's pristine data image loaded — words the checkpointed run had
     zeroed must not survive, so clear everything first *)
  Cpu.clear_data cpu;
  let nruns = Io.R.int r in
  if nruns < 0 then raise Io.R.Underflow;
  for _ = 1 to nruns do
    let start = Io.R.int r in
    let len = Io.R.int r in
    if start < 0 || len < 0 || start + len > n then
      raise (Bad "data-memory run out of range");
    for k = start to start + len - 1 do
      Cpu.write_data cpu k (Io.R.int r)
    done
  done

let machine_to_string cpu =
  let b = Io.W.create () in
  for i = 0 to 15 do
    Io.W.int b (Cpu.get_reg cpu (Reg.r i))
  done;
  let c0, c1, c2 = Cpu.pc_chain cpu in
  Io.W.int b c0;
  Io.W.int b c1;
  Io.W.int b c2;
  for i = 0 to 2 do
    Io.W.int b (Cpu.epc cpu i)
  done;
  Io.W.int b (Surprise.to_word (Cpu.surprise cpu));
  Io.W.int b (Segmap.to_word (Cpu.segmap cpu));
  Io.W.bool b (Cpu.interrupt_pending cpu);
  (* the execution state the accessors do not reach; [prev_word] is not
     written, since it is always the word at [prev_pc] *)
  Io.W.int b cpu.Cpu.byte_select;
  Io.W.opt
    (fun b (reg, v) ->
      Io.W.int b reg;
      Io.W.int b v)
    b
    (if cpu.pend_r >= 0 then Some (cpu.pend_r, cpu.pend_v) else None);
  Io.W.int b
    (Reg.Set.fold (fun r m -> m lor (1 lsl Reg.to_int r)) cpu.last_load_writes 0);
  Io.W.opt w_fault_kind b cpu.fault;
  Io.W.bool b cpu.flaky_armed;
  Io.W.int b cpu.prev_pc;
  Io.W.int b cpu.delay_pending;
  Io.W.list
    (fun b (sp, vpage, (e : Pagemap.entry)) ->
      w_space b sp;
      Io.W.int b vpage;
      Io.W.int b e.Pagemap.frame;
      Io.W.bool b e.writable;
      Io.W.bool b e.referenced;
      Io.W.bool b e.dirty)
    b
    (Pagemap.entries (Cpu.pagemap cpu));
  w_dmem b cpu;
  w_stats b (Cpu.stats cpu);
  w_plan b (Cpu.fault_plan cpu);
  Io.W.contents b

let restore_machine cpu data =
  match
    let r = Io.R.make data in
    for i = 0 to 15 do
      Cpu.set_reg cpu (Reg.r i) (Io.R.int r)
    done;
    let c0 = Io.R.int r in
    let c1 = Io.R.int r in
    let c2 = Io.R.int r in
    Cpu.set_pc_chain cpu c0 c1 c2;
    for i = 0 to 2 do
      Cpu.set_epc cpu i (Io.R.int r)
    done;
    Cpu.set_surprise cpu (Surprise.of_word (Io.R.int r));
    Cpu.set_segmap cpu (Segmap.of_word (Io.R.int r));
    Cpu.set_interrupt cpu (Io.R.bool r);
    (* the execution state; [flaky_armed] waits for the plan below *)
    cpu.Cpu.byte_select <- Io.R.int r;
    (match
       Io.R.opt
         (fun r ->
           let reg = Io.R.int r in
           (reg, Io.R.int r))
         r
     with
    | Some (reg, v) ->
        cpu.pend_r <- reg;
        cpu.pend_v <- v
    | None -> cpu.pend_r <- -1);
    let mask = Io.R.int r in
    cpu.last_load_writes <- Reg.Set.empty;
    for i = 0 to 15 do
      if mask land (1 lsl i) <> 0 then
        cpu.last_load_writes <- Reg.Set.add (Reg.r i) cpu.last_load_writes
    done;
    cpu.fault <- Io.R.opt r_fault_kind r;
    let flaky_armed = Io.R.bool r in
    let prev_pc = Io.R.int r in
    cpu.prev_pc <- prev_pc;
    cpu.prev_word <-
      (if prev_pc >= 0 && prev_pc < Array.length cpu.imem then cpu.imem.(prev_pc)
       else Word.Nop);
    cpu.delay_pending <- Io.R.int r;
    let entries =
      Io.R.list
        (fun r ->
          let sp = r_space r in
          let vpage = Io.R.int r in
          let frame = Io.R.int r in
          let writable = Io.R.bool r in
          let referenced = Io.R.bool r in
          let dirty = Io.R.bool r in
          (sp, vpage, frame, writable, referenced, dirty))
        r
    in
    let pm = Cpu.pagemap cpu in
    List.iter
      (fun (sp, vpage, frame, writable, referenced, dirty) ->
        Pagemap.map pm sp ~vpage ~frame ~writable;
        match Pagemap.find pm sp ~vpage with
        | Some e ->
            e.Pagemap.referenced <- referenced;
            e.Pagemap.dirty <- dirty
        | None -> assert false)
      entries;
    r_dmem r cpu;
    r_stats r (Cpu.stats cpu);
    (* attaching a plan disarms the flaky flag, so the plan goes on first *)
    Cpu.set_fault_plan cpu (r_plan r);
    cpu.flaky_armed <- flaky_armed;
    if Io.R.remaining r <> 0 then raise (Bad "trailing machine bytes")
  with
  | () -> Ok ()
  | exception Io.R.Underflow -> Error Truncated
  | exception Bad m -> Error (Corrupt m)
  | exception Invalid_argument m -> Error (Corrupt m)

(* --- the hosted loop ------------------------------------------------------- *)

let host_to_string (h : Hosted.host_state) =
  let b = Io.W.create () in
  Io.W.str b h.Hosted.h_output;
  Io.W.int b h.h_in_pos;
  Io.W.int b h.h_retries;
  Io.W.int b h.h_fuel_left;
  Io.W.contents b

let host_of_string data =
  match
    let r = Io.R.make data in
    let h_output = Io.R.str r in
    let h_in_pos = Io.R.int r in
    let h_retries = Io.R.int r in
    let h_fuel_left = Io.R.int r in
    if Io.R.remaining r <> 0 then raise (Bad "trailing host bytes");
    { Hosted.h_output; h_in_pos; h_retries; h_fuel_left }
  with
  | h -> Ok h
  | exception Io.R.Underflow -> Error Truncated
  | exception Bad m -> Error (Corrupt m)

(* --- the kernel scheduler --------------------------------------------------- *)

let w_kill_reason b = function
  | Kernel.Arch_fault (c, d) ->
      Io.W.u8 b 0;
      w_cause b c;
      Io.W.int b d
  | Kernel.Watchdog n ->
      Io.W.u8 b 1;
      Io.W.int b n
  | Kernel.Retry_exhausted n ->
      Io.W.u8 b 2;
      Io.W.int b n
  | Kernel.Double_fault (c1, c2) ->
      Io.W.u8 b 3;
      w_cause b c1;
      w_cause b c2
  | Kernel.Out_of_memory sp ->
      Io.W.u8 b 4;
      w_space b sp

let r_kill_reason r =
  match Io.R.u8 r with
  | 0 ->
      let c = r_cause r in
      Kernel.Arch_fault (c, Io.R.int r)
  | 1 -> Kernel.Watchdog (Io.R.int r)
  | 2 -> Kernel.Retry_exhausted (Io.R.int r)
  | 3 ->
      let c1 = r_cause r in
      Kernel.Double_fault (c1, r_cause r)
  | 4 -> Kernel.Out_of_memory (r_space r)
  | n -> raise (Bad (Printf.sprintf "bad kill-reason tag %d" n))

(* Everything the scheduler knows that the machine does not.  The installed
   process's [regs], [chain] and [usr] are its last-saved (stale) copy; the
   live values travel in the machine payload. *)
let sched_to_string (k : Kernel.t) =
  let b = Io.W.create () in
  Io.W.list
    (fun b (p : Kernel.pcb) ->
      Io.W.int b p.pid;
      Io.W.str b p.pname;
      Io.W.list Io.W.int b (Array.to_list p.regs);
      Array.iter (Io.W.int b) p.chain;
      Io.W.int b (Surprise.to_word p.usr);
      Io.W.int b p.io.in_pos;
      Io.W.str b (Buffer.contents p.io.out);
      (match p.st with
      | Kernel.Ready -> Io.W.u8 b 0
      | Exited s ->
          Io.W.u8 b 1;
          Io.W.int b s
      | Killed reason ->
          Io.W.u8 b 2;
          w_kill_reason b reason);
      Io.W.int b p.cycles_used;
      Io.W.int b p.retries;
      Io.W.int b p.total_retries;
      Io.W.int b p.consec_faults;
      Io.W.opt w_cause b p.first_fault)
    b k.procs;
  Io.W.opt Io.W.int b (Option.map (fun (p : Kernel.pcb) -> p.pid) k.current);
  (* owned frames only, as (frame index, owner pid, global page) *)
  let w_frames frames =
    Io.W.int b
      (Array.fold_left (fun n o -> if o = None then n else n + 1) 0 frames);
    Array.iteri
      (fun i -> function
        | Some (o : Kernel.frame_owner) ->
            Io.W.int b i;
            Io.W.int b o.fo_pid;
            Io.W.int b o.fo_gpage
        | None -> ())
      frames
  in
  w_frames k.code_frames;
  w_frames k.data_frames;
  Io.W.int b k.code_clock;
  Io.W.int b k.data_clock;
  Io.W.list
    (fun b ((pid, gpage), words) ->
      Io.W.int b pid;
      Io.W.int b gpage;
      Io.W.list Io.W.int b (Array.to_list words))
    b
    (Hashtbl.fold (fun key words acc -> (key, words) :: acc) k.backing []
    |> List.sort (fun (a, _) (b, _) -> compare a b));
  List.iter (Io.W.int b)
    [ k.switches; k.page_faults; k.evictions; k.interrupts;
      k.map_changes_outside_fault; k.kernel_cycles; k.watchdog_kills;
      k.transient_faults; k.transient_retries; k.double_faults; k.oom_kills ];
  Io.W.bool b k.out_of_fuel;
  Io.W.int b k.quantum_left;
  Io.W.bool b k.started;
  Io.W.bool b k.halted;
  Io.W.contents b

let restore_sched (k : Kernel.t) data =
  match
    let r = Io.R.make data in
    let n = Io.R.int r in
    if n <> List.length k.procs then raise (Bad "process count mismatch");
    List.iter
      (fun (p : Kernel.pcb) ->
        let pid = Io.R.int r in
        let pname = Io.R.str r in
        if pid <> p.pid || pname <> p.pname then
          raise
            (Bad
               (Printf.sprintf
                  "process mismatch (snapshot %d:%s, live %d:%s)" pid pname
                  p.pid p.pname));
        if Io.R.int r <> Array.length p.regs then
          raise (Bad "register-file size mismatch");
        Array.iteri (fun i _ -> p.regs.(i) <- Io.R.int r) p.regs;
        Array.iteri (fun i _ -> p.chain.(i) <- Io.R.int r) p.chain;
        p.usr <- Surprise.of_word (Io.R.int r);
        p.io.in_pos <- Io.R.int r;
        Buffer.clear p.io.out;
        Buffer.add_string p.io.out (Io.R.str r);
        p.st <-
          (match Io.R.u8 r with
          | 0 -> Kernel.Ready
          | 1 -> Exited (Io.R.int r)
          | 2 -> Killed (r_kill_reason r)
          | n -> raise (Bad (Printf.sprintf "bad process-state tag %d" n)));
        p.cycles_used <- Io.R.int r;
        p.retries <- Io.R.int r;
        p.total_retries <- Io.R.int r;
        p.consec_faults <- Io.R.int r;
        p.first_fault <- Io.R.opt r_cause r)
      k.procs;
    let proc pid =
      match List.find_opt (fun (p : Kernel.pcb) -> p.pid = pid) k.procs with
      | Some p -> p
      | None -> raise (Bad "unknown pid")
    in
    k.current <- Option.map proc (Io.R.opt Io.R.int r);
    let r_frames frames =
      Array.fill frames 0 (Array.length frames) None;
      List.iter
        (fun (i, pid, gpage) ->
          if i < 0 || i >= Array.length frames then
            raise (Bad "frame index out of range");
          frames.(i) <- Some { Kernel.fo_pid = (proc pid).pid; fo_gpage = gpage })
        (Io.R.list
           (fun r ->
             let i = Io.R.int r in
             let pid = Io.R.int r in
             (i, pid, Io.R.int r))
           r)
    in
    r_frames k.code_frames;
    r_frames k.data_frames;
    (* the kernel indexes its pool at the hand when it next evicts *)
    let r_clock frames =
      let c = Io.R.int r in
      if c < 0 || c >= max 1 (Array.length frames) then
        raise (Bad "clock hand out of range");
      c
    in
    k.code_clock <- r_clock k.code_frames;
    k.data_clock <- r_clock k.data_frames;
    Hashtbl.reset k.backing;
    List.iter
      (fun (key, words) -> Hashtbl.replace k.backing key words)
      (Io.R.list
         (fun r ->
           let pid = Io.R.int r in
           let gpage = Io.R.int r in
           ((pid, gpage), Array.of_list (Io.R.list Io.R.int r)))
         r);
    k.switches <- Io.R.int r;
    k.page_faults <- Io.R.int r;
    k.evictions <- Io.R.int r;
    k.interrupts <- Io.R.int r;
    k.map_changes_outside_fault <- Io.R.int r;
    k.kernel_cycles <- Io.R.int r;
    k.watchdog_kills <- Io.R.int r;
    k.transient_faults <- Io.R.int r;
    k.transient_retries <- Io.R.int r;
    k.double_faults <- Io.R.int r;
    k.oom_kills <- Io.R.int r;
    k.out_of_fuel <- Io.R.bool r;
    k.quantum_left <- Io.R.int r;
    k.started <- Io.R.bool r;
    k.halted <- Io.R.bool r;
    k.in_switch <- false;
    if Io.R.remaining r <> 0 then raise (Bad "trailing scheduler bytes");
    Kernel.refill_code_frames k
  with
  | () -> Ok ()
  | exception Io.R.Underflow -> Error Truncated
  | exception Bad m -> Error (Corrupt m)
  | exception Invalid_argument m -> Error (Corrupt m)

(* monadic helpers for callers assembling multi-section restores *)
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* --- hosted-run checkpoints ------------------------------------------------- *)

let hosted_checkpoint ~kind ~meta cpu h =
  encode
    { kind;
      sections =
        [ ("meta", meta); ("machine", machine_to_string cpu);
          ("host", host_to_string h) ] }

let restore_hosted ~kind ~meta cpu path =
  let* c = read_file path in
  let* () =
    if String.equal c.kind kind then Ok ()
    else Error (Corrupt (Printf.sprintf "not a %s checkpoint: %S" kind c.kind))
  in
  let* m = section c "meta" in
  let* () =
    if String.equal m meta then Ok ()
    else Error (Corrupt "checkpoint does not match this run")
  in
  let* h = section c "host" in
  let* h = host_of_string h in
  let* mach = section c "machine" in
  let* () = restore_machine cpu mach in
  Ok h
