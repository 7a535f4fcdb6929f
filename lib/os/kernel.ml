open Mips_isa
open Mips_machine

let mask_bits = 8  (* 256 possible processes, 64K-word segments *)
let max_procs = 1 lsl mask_bits
let seg_words = 1 lsl (Segmap.vspace_bits - mask_bits)
let half = seg_words / 2
let user_stack_top = (1 lsl Segmap.vspace_bits) - 8

(* cost model, in cycles, for kernel work (see DESIGN.md): a context switch
   saves and restores the sixteen general registers at one word per cycle
   through the dual memory interface, plus the dispatch bookkeeping *)
let switch_cost = (2 * 16) + 8
let fault_service_cost = 20  (* the page fill itself is DMA in free cycles *)

type kill_reason =
  | Arch_fault of Cause.t * int
  | Watchdog of int
  | Retry_exhausted of int
  | Double_fault of Cause.t * Cause.t
  | Out_of_memory of Pagemap.space

let kill_reason_name = function
  | Arch_fault (c, _) -> Cause.name c
  | Watchdog _ -> "Watchdog"
  | Retry_exhausted _ -> "Retry_exhausted"
  | Double_fault _ -> "Double_fault"
  | Out_of_memory _ -> "Out_of_memory"

let kill_reason_detail = function
  | Arch_fault (_, d) -> d
  | Watchdog cycles -> cycles
  | Retry_exhausted n -> n
  | Double_fault _ -> 0
  | Out_of_memory Pagemap.Ispace -> 0
  | Out_of_memory Pagemap.Dspace -> 1

type state = Ready | Exited of int | Killed of kill_reason

type pcb = {
  pid : int;
  pname : string;
  program : Program.t;
  data_image : int array;
  regs : int array;
  chain : int array;
  mutable usr : Surprise.t;  (* user-mode surprise register, popped form *)
  io : Hosted.io;
  mutable st : state;
  mutable cycles_used : int;  (* user instruction words, for the watchdog *)
  mutable retries : int;  (* consecutive transient retries, no step between *)
  mutable total_retries : int;
  mutable consec_faults : int;  (* faults with no successful step between *)
  mutable first_fault : Cause.t option;  (* oldest cause in that streak *)
}

type frame_owner = { fo_pid : int; fo_gpage : int }

type t = {
  cpu : Cpu.t;
  quantum : int;
  watchdog : int option;  (* per-process cycle budget *)
  max_retries : int;
  double_fault_limit : int;
  backing_limit : int option;  (* backing-store capacity, in pages *)
  mutable procs : pcb list;
  mutable current : pcb option;
  code_frames : frame_owner option array;
  data_frames : frame_owner option array;
  mutable code_clock : int;
  mutable data_clock : int;
  backing : (int * int, int array) Hashtbl.t;  (* (pid, data gpage) -> words *)
  mutable switches : int;
  mutable page_faults : int;
  mutable evictions : int;
  mutable interrupts : int;
  mutable map_changes_outside_fault : int;
  mutable in_switch : bool;
  mutable kernel_cycles : int;
  mutable watchdog_kills : int;
  mutable transient_faults : int;
  mutable transient_retries : int;
  mutable double_faults : int;
  mutable oom_kills : int;
  mutable out_of_fuel : bool;
  (* sliced-execution state: the run loop lives in [t] so a run can stop
     after any number of steps (checkpointing) and continue bit-identically *)
  mutable quantum_left : int;
  mutable started : bool;  (* first ready process installed *)
  mutable halted : bool;  (* no ready process left *)
  trace : Mips_obs.Sink.t;
  engine : Cpu.engine;
}

let cpu t = t.cpu

let create ?(data_frames = 32) ?(code_frames = 32) ?(quantum = 2000)
    ?watchdog ?(max_retries = 8) ?(double_fault_limit = 8) ?backing_limit
    ?(fault_plan = Mips_fault.Plan.none) ?(trace = Mips_obs.Sink.null)
    ?(engine = Cpu.Ref) ?cpu () =
  let cpu =
    match cpu with
    | None -> Cpu.create ()
    | Some cpu ->
        if Cpu.config cpu <> Cpu.default_config then
          invalid_arg "Kernel.create: the machine must have the default config";
        cpu
  in
  (* machine-level events (issues, monitor calls, dispatches) flow into the
     same sink as the kernel's scheduling decisions *)
  Cpu.set_trace cpu trace;
  Cpu.set_fault_plan cpu fault_plan;
  {
    cpu;
    quantum;
    watchdog;
    max_retries;
    double_fault_limit;
    backing_limit;
    procs = [];
    current = None;
    code_frames = Array.make code_frames None;
    data_frames = Array.make data_frames None;
    code_clock = 0;
    data_clock = 0;
    backing = Hashtbl.create 64;
    switches = 0;
    page_faults = 0;
    evictions = 0;
    interrupts = 0;
    map_changes_outside_fault = 0;
    in_switch = false;
    kernel_cycles = 0;
    watchdog_kills = 0;
    transient_faults = 0;
    transient_retries = 0;
    double_faults = 0;
    oom_kills = 0;
    out_of_fuel = false;
    quantum_left = quantum;
    started = false;
    halted = false;
    trace;
    engine;
  }

let user_sr =
  (* user mode, mapping on, interrupts on, overflow traps off (the
     reorganizer may speculate ALU work into delay slots) *)
  {
    Surprise.user_initial with
    Surprise.map_enable = true;
    ovf_enable = false;
  }

let spawn t ?(input = "") ~name (program : Program.t) =
  let pid = List.length t.procs in
  if pid >= max_procs then
    invalid_arg
      (Printf.sprintf
         "Kernel.spawn: process table full (%d processes, the %d-bit pid \
          field's worth)"
         max_procs mask_bits);
  if Array.length program.Program.code > half then
    invalid_arg "Kernel.spawn: program too large for a segment half";
  let data_image = Array.make (max 1 program.Program.data_words) 0 in
  List.iter
    (fun (a, v) -> if a < Array.length data_image then data_image.(a) <- v)
    program.Program.data;
  let pcb =
    {
      pid;
      pname = name;
      program;
      data_image;
      regs = Array.make 16 0;
      chain = Array.init 3 (fun i -> program.Program.entry + i);
      usr = user_sr;
      io = { Hosted.input; in_pos = 0; out = Buffer.create 128 };
      st = Ready;
      cycles_used = 0;
      retries = 0;
      total_retries = 0;
      consec_faults = 0;
      first_fault = None;
    }
  in
  t.procs <- t.procs @ [ pcb ];
  if t.trace.Mips_obs.Sink.enabled then
    Mips_obs.Sink.emit t.trace (Mips_obs.Event.Spawn { pid; name })

(* --- paging ---------------------------------------------------------------- *)

let page = Pagemap.page_words

(* fill the physical frame for (pid, space, global page) *)
let fill_frame t (p : pcb) space gpage frame =
  let seg_base = p.pid * seg_words in
  let offset0 = (gpage * page) - seg_base in
  match space with
  | Pagemap.Ispace ->
      let code = p.program.Program.code in
      let notes = p.program.Program.notes in
      for k = 0 to page - 1 do
        let o = offset0 + k in
        let w = if o >= 0 && o < Array.length code then code.(o) else Word.Nop in
        Cpu.write_code t.cpu ((frame * page) + k) w;
        let n = if o >= 0 && o < Array.length notes then notes.(o) else Note.plain in
        Cpu.write_note t.cpu ((frame * page) + k) n
      done
  | Pagemap.Dspace -> (
      match Hashtbl.find_opt t.backing (p.pid, gpage) with
      | Some saved ->
          Array.iteri (fun k v -> Cpu.write_data t.cpu ((frame * page) + k) v) saved
      | None ->
          for k = 0 to page - 1 do
            let o = offset0 + k in
            let v =
              if o >= 0 && o < Array.length p.data_image then p.data_image.(o)
              else 0
            in
            Cpu.write_data t.cpu ((frame * page) + k) v
          done)

(* Room in the backing store for one more page of (pid, gpage)?  Re-saving
   a page that is already backed never needs new room. *)
let backing_room t key =
  match t.backing_limit with
  | None -> true
  | Some limit -> Hashtbl.length t.backing < limit || Hashtbl.mem t.backing key

(* clock replacement over one frame pool; [None] when nothing is evictable
   (empty pool, or every candidate is dirty with the backing store full) *)
let evict_from t space frames clock =
  let n = Array.length frames in
  let pm = Cpu.pagemap t.cpu in
  let rec scan i guard =
    if n = 0 || i >= 4 * n then None
    else
      let idx = (clock + i) mod n in
      match frames.(idx) with
      | None -> Some idx  (* free after all *)
      | Some owner -> (
          match Pagemap.find pm space ~vpage:owner.fo_gpage with
          | None -> Some idx
          | Some e ->
              if e.Pagemap.referenced && guard < 2 * n then begin
                e.Pagemap.referenced <- false;
                scan (i + 1) (guard + 1)
              end
              else if
                space = Pagemap.Dspace && e.Pagemap.dirty
                && not (backing_room t (owner.fo_pid, owner.fo_gpage))
              then
                (* nowhere to write it back: pass over this victim *)
                scan (i + 1) guard
              else begin
                (* evict *)
                t.evictions <- t.evictions + 1;
                (match space with
                | Pagemap.Dspace when e.Pagemap.dirty ->
                    let saved = Array.init page (fun k ->
                        Cpu.read_data t.cpu ((e.Pagemap.frame * page) + k))
                    in
                    Hashtbl.replace t.backing (owner.fo_pid, owner.fo_gpage) saved
                | _ -> ());
                Pagemap.unmap pm space ~vpage:owner.fo_gpage;
                Some idx
              end)
  in
  scan 0 0

let grab_frame t space =
  let frames, clock =
    match space with
    | Pagemap.Ispace -> (t.code_frames, t.code_clock)
    | Pagemap.Dspace -> (t.data_frames, t.data_clock)
  in
  let rec free i =
    if i >= Array.length frames then None
    else if frames.(i) = None then Some i
    else free (i + 1)
  in
  let idx =
    match free 0 with Some i -> Some i | None -> evict_from t space frames clock
  in
  match idx with
  | None -> None
  | Some idx ->
      (match space with
      | Pagemap.Ispace -> t.code_clock <- (idx + 1) mod Array.length frames
      | Pagemap.Dspace -> t.data_clock <- (idx + 1) mod Array.length frames);
      Some (frames, idx)

let valid_offset offset = offset >= 0 && offset < seg_words

type fault_service = Serviced | Bad_address | Out_of_frames

let service_fault t (p : pcb) space gaddr =
  let gpage = gaddr / page in
  let seg_base = p.pid * seg_words in
  let offset = gaddr - seg_base in
  if not (valid_offset offset) then Bad_address
  else begin
    t.page_faults <- t.page_faults + 1;
    t.kernel_cycles <- t.kernel_cycles + fault_service_cost;
    if t.trace.Mips_obs.Sink.enabled then
      Mips_obs.Sink.emit t.trace
        (Mips_obs.Event.Page_fault
           { pid = p.pid; ispace = space = Pagemap.Ispace; gaddr });
    match grab_frame t space with
    | None -> Out_of_frames
    | Some (frames, frame) ->
        fill_frame t p space gpage frame;
        frames.(frame) <- Some { fo_pid = p.pid; fo_gpage = gpage };
        Pagemap.map (Cpu.pagemap t.cpu) space ~vpage:gpage ~frame
          ~writable:(space = Pagemap.Dspace);
        if t.in_switch then
          t.map_changes_outside_fault <- t.map_changes_outside_fault + 1;
        Serviced
  end

(* kernel access to a user virtual word (for putstr), paging as needed; an
   unmappable word reads as 0 *)
let kernel_read_user_word t (p : pcb) vaddr =
  let seg = Segmap.make ~pid:p.pid ~mask_bits in
  let gaddr = Segmap.translate seg vaddr in
  let pm = Cpu.pagemap t.cpu in
  let rec attempt retries =
    match Pagemap.translate pm Pagemap.Dspace ~write:false gaddr with
    | phys -> Cpu.read_data t.cpu phys
    | exception Pagemap.Fault _ ->
        if retries > 0 && service_fault t p Pagemap.Dspace gaddr = Serviced then
          attempt (retries - 1)
        else 0
  in
  attempt 1

(* --- context switching -------------------------------------------------------- *)

let save_current t =
  match t.current with
  | None -> ()
  | Some p ->
      for i = 0 to 15 do
        p.regs.(i) <- Cpu.get_reg t.cpu (Reg.r i)
      done;
      for i = 0 to 2 do
        p.chain.(i) <- Cpu.epc t.cpu i
      done;
      p.usr <- Surprise.pop (Cpu.surprise t.cpu)

let install t (p : pcb) =
  for i = 0 to 15 do
    Cpu.set_reg t.cpu (Reg.r i) p.regs.(i)
  done;
  Cpu.set_segmap t.cpu (Segmap.make ~pid:p.pid ~mask_bits);
  Cpu.set_surprise t.cpu p.usr;
  Cpu.set_pc_chain t.cpu p.chain.(0) p.chain.(1) p.chain.(2);
  t.current <- Some p

(* the first ready process with a pid past [after], else [first], else
   the first ready one *)
let rec ready_after after first = function
  | [] -> first
  | ({ st = Ready; _ } as p) :: rest ->
      if p.pid > after then Some p
      else ready_after after (match first with None -> Some p | Some _ -> first) rest
  | _ :: rest -> ready_after after first rest

(* rotate to the ready process after the current one *)
let next_ready t =
  ready_after (match t.current with Some cur -> cur.pid | None -> min_int) None t.procs

(* install the next ready process; the kernel halts when there is none *)
let switch t =
  let from = t.current in
  save_current t;
  t.in_switch <- true;
  let next = next_ready t in
  (match next with Some p -> install t p | None -> t.current <- None);
  t.in_switch <- false;
  t.switches <- t.switches + 1;
  t.kernel_cycles <- t.kernel_cycles + switch_cost;
  if t.trace.Mips_obs.Sink.enabled then
    Mips_obs.Sink.emit t.trace
      (Mips_obs.Event.Context_switch
         {
           from_pid = Option.map (fun p -> p.pid) from;
           to_pid = Option.map (fun p -> p.pid) next;
         });
  if next = None then t.halted <- true

(* a process leaves the ready set: report how, then run the next one *)
let depart t (p : pcb) st =
  p.st <- st;
  (if t.trace.Mips_obs.Sink.enabled then
    match st with
    | Exited status ->
        Mips_obs.Sink.emit t.trace
          (Mips_obs.Event.Proc_exit { pid = p.pid; name = p.pname; status })
    | Killed reason ->
        Mips_obs.Sink.emit t.trace
          (Mips_obs.Event.Proc_killed
             {
               pid = p.pid;
               name = p.pname;
               cause = kill_reason_name reason;
               detail = kill_reason_detail reason;
             })
    | Ready -> ());
  t.current <- None;
  switch t

(* --- the main loop ----------------------------------------------------------------- *)

type proc_report = {
  pname : string;
  output : string;
  exit_status : int option;
  killed : kill_reason option;
  live : bool;
  cycles_used : int;
  retries : int;
}

type report = {
  procs : proc_report list;
  switches : int;
  page_faults : int;
  evictions : int;
  interrupts : int;
  map_changes_during_switches : int;
  switch_cycle_cost : int;
  total_cycles : int;
  kernel_cycles : int;
  watchdog_kills : int;
  transient_faults : int;
  transient_retries : int;
  double_faults : int;
  oom_kills : int;
  fuel_exhausted : bool;
}

let report (t : t) =
  {
    procs =
      List.map
        (fun (p : pcb) ->
          {
            pname = p.pname;
            output = Buffer.contents p.io.out;
            exit_status = (match p.st with Exited s -> Some s | _ -> None);
            killed = (match p.st with Killed r -> Some r | _ -> None);
            live = p.st = Ready;
            cycles_used = p.cycles_used;
            retries = p.total_retries;
          })
        t.procs;
    switches = t.switches;
    page_faults = t.page_faults;
    evictions = t.evictions;
    interrupts = t.interrupts;
    map_changes_during_switches = t.map_changes_outside_fault;
    switch_cycle_cost = switch_cost;
    total_cycles = (Cpu.stats t.cpu).Stats.cycles + t.kernel_cycles;
    kernel_cycles = t.kernel_cycles;
    watchdog_kills = t.watchdog_kills;
    transient_faults = t.transient_faults;
    transient_retries = t.transient_retries;
    double_faults = t.double_faults;
    oom_kills = t.oom_kills;
    fuel_exhausted = t.out_of_fuel;
  }

let report_json (r : report) =
  let open Mips_obs.Json in
  Obj
    [ ( "procs",
        List
          (List.map
             (fun (p : proc_report) ->
               Obj
                 [ ("name", Str p.pname);
                   ("output_bytes", Int (String.length p.output));
                   ( "exit_status",
                     match p.exit_status with Some s -> Int s | None -> Null );
                   ( "killed",
                     match p.killed with
                     | Some reason ->
                         Obj
                           [ ("cause", Str (kill_reason_name reason));
                             ("detail", Int (kill_reason_detail reason)) ]
                     | None -> Null );
                   ("live", Bool p.live);
                   ("cycles_used", Int p.cycles_used);
                   ("retries", Int p.retries) ])
             r.procs) );
      ("switches", Int r.switches);
      ("page_faults", Int r.page_faults);
      ("evictions", Int r.evictions);
      ("interrupts", Int r.interrupts);
      ("map_changes_during_switches", Int r.map_changes_during_switches);
      ("switch_cycle_cost", Int r.switch_cycle_cost);
      ("total_cycles", Int r.total_cycles);
      ("kernel_cycles", Int r.kernel_cycles);
      ("watchdog_kills", Int r.watchdog_kills);
      ("transient_faults", Int r.transient_faults);
      ("transient_retries", Int r.transient_retries);
      ("double_faults", Int r.double_faults);
      ("oom_kills", Int r.oom_kills);
      ("fuel_exhausted", Bool r.fuel_exhausted) ]

(* one process dies; the machine (and everyone else) keeps going *)
let kill (t : t) (p : pcb) reason =
  (match reason with
  | Watchdog cycles ->
      t.watchdog_kills <- t.watchdog_kills + 1;
      if t.trace.Mips_obs.Sink.enabled then
        Mips_obs.Sink.emit t.trace
          (Mips_obs.Event.Watchdog_kill { pid = p.pid; name = p.pname; cycles })
  | Double_fault (first, second) ->
      t.double_faults <- t.double_faults + 1;
      if t.trace.Mips_obs.Sink.enabled then
        Mips_obs.Sink.emit t.trace
          (Mips_obs.Event.Double_fault
             {
               pid = p.pid;
               name = p.pname;
               first = Cause.name first;
               second = Cause.name second;
             })
  | Out_of_memory _ -> t.oom_kills <- t.oom_kills + 1
  | Arch_fault _ | Retry_exhausted _ -> ());
  depart t p (Killed reason)

(* install the first ready process; idempotent, so a restored kernel (whose
   current process is already live in the machine) is not clobbered *)
let start (t : t) =
  if not t.started then begin
    (match next_ready t with Some p -> install t p | None -> ());
    t.started <- true;
    t.halted <- t.current = None
  end

(* The per-step bookkeeping, once for the [n] words of a slice: a slice
   never crosses the quantum or the watchdog budget before its last word. *)
let stepped (t : t) n =
  if n > 0 then begin
    (match t.current with
    | Some p -> (
        p.cycles_used <- p.cycles_used + n;
        (* forward progress: every no-progress streak ends here *)
        p.retries <- 0;
        p.consec_faults <- 0;
        p.first_fault <- None;
        match t.watchdog with
        | Some budget when p.cycles_used > budget ->
            kill t p (Watchdog p.cycles_used)
        | _ -> ())
    | None -> ());
    t.quantum_left <- t.quantum_left - n;
    if (not t.halted) && t.quantum_left <= 0 then begin
      Cpu.set_interrupt t.cpu true;
      t.quantum_left <- t.quantum
    end
  end

(* one dispatched exception: resume, switch or kill *)
let dispatched (t : t) cause =
  let p = match t.current with Some p -> p | None -> assert false in
  let transient =
    cause = Cause.Page_fault && Cpu.faulted t.cpu = Some Cpu.Transient_ref
  in
  let is_fault =
    (not transient)
    && match cause with Cause.Interrupt | Cause.Trap -> false | _ -> true
  in
  if is_fault then begin
    if p.first_fault = None then p.first_fault <- Some cause;
    p.consec_faults <- p.consec_faults + 1
  end;
  if is_fault && p.consec_faults >= t.double_fault_limit then
    (* faulting over and over with no successful step in between:
       looping through the dispatch path will not converge — kill *)
    let first = match p.first_fault with Some c -> c | None -> cause in
    kill t p (Double_fault (first, cause))
  else
    match cause with
    | Cause.Interrupt ->
        Cpu.set_interrupt t.cpu false;
        t.interrupts <- t.interrupts + 1;
        switch t;
        t.quantum_left <- t.quantum
    | Cause.Trap -> (
        let code = (Cpu.surprise t.cpu).Surprise.cause_detail in
        let read_word = kernel_read_user_word t p in
        match Hosted.serve p.io ~read_word t.cpu code with
        | Hosted.Resume -> Cpu.resume t.cpu
        | Yield ->
            switch t;
            t.quantum_left <- t.quantum
        | Exit status -> depart t p (Exited status)
        | Unknown -> kill t p (Arch_fault (Cause.Trap, code)))
    | Cause.Page_fault when transient ->
        t.transient_faults <- t.transient_faults + 1;
        p.retries <- p.retries + 1;
        p.total_retries <- p.total_retries + 1;
        if p.retries > t.max_retries then
          kill t p (Retry_exhausted p.retries)
        else begin
          (* bounded retry with exponential backoff, charged as kernel
             work (the backoff models a widening re-issue delay) *)
          t.transient_retries <- t.transient_retries + 1;
          t.kernel_cycles <-
            t.kernel_cycles
            + (fault_service_cost * (1 lsl min (p.retries - 1) 6));
          if t.trace.Mips_obs.Sink.enabled then
            Mips_obs.Sink.emit t.trace
              (Mips_obs.Event.Retry { pid = p.pid; attempt = p.retries });
          Cpu.resume t.cpu
        end
    | Cause.Page_fault -> (
        match Cpu.faulted_addr t.cpu with
        | Some (space, gaddr) -> (
            match service_fault t p space gaddr with
            | Serviced -> Cpu.resume t.cpu
            | Bad_address ->
                (* a reference between the two valid regions, or outside
                   the segment entirely: terminate the offender *)
                kill t p (Arch_fault (Cause.Page_fault, 0))
            | Out_of_frames -> kill t p (Out_of_memory space))
        | None -> kill t p (Arch_fault (Cause.Page_fault, 0)))
    | (Cause.Overflow | Cause.Privilege | Cause.Illegal | Cause.Reset) as c
      ->
        kill t p (Arch_fault (c, (Cpu.surprise t.cpu).Surprise.cause_detail))

let halt _ _ = `Halt

(* Run for at most [steps] loop iterations (one word or one dispatch each),
   in machine slices that end at the first dispatch, whose cause the kernel
   reads from the surprise register.  All loop state lives in [t], so any
   slicing of the same total budget runs identically. *)
let run_for (t : t) ~steps =
  start t;
  let left = ref steps in
  while (not t.halted) && !left > 0 do
    let budget =
      match (t.current, t.watchdog) with
      | Some p, Some w -> w + 1 - p.cycles_used
      | _ -> max_int
    in
    let slice = max 1 (min !left (min t.quantum_left budget)) in
    let fuel = Cpu.run_engine ~fuel:slice ~engine:t.engine t.cpu halt in
    stepped t (slice - fuel);
    left := !left - (slice - fuel);
    if fuel > 0 then begin
      dispatched t (Cpu.surprise t.cpu).Surprise.cause;
      decr left
    end
  done;
  t.out_of_fuel <- not t.halted;
  if t.halted then `Done else `More

let run ?(fuel = 50_000_000) t =
  ignore (run_for t ~steps:fuel);
  report t

(* --- checkpoint -------------------------------------------------------------- *)

(* Instruction memory is not checkpointed: a restored kernel refills every
   owned code frame from its owner's program image.  Code pages are
   read-only, so the refill is bit-identical to the frame's content in the
   uninterrupted run; data frames travel with the machine's data memory. *)
let refill_code_frames (t : t) =
  Array.iteri
    (fun frame -> function
      | Some o ->
          let p = List.find (fun (p : pcb) -> p.pid = o.fo_pid) t.procs in
          fill_frame t p Pagemap.Ispace o.fo_gpage frame
      | None -> ())
    t.code_frames
