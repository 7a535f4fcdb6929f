type config = {
  seed : int;
  flip_reg_rate : float;
  flip_data_rate : float;
  irq_rate : float;
  page_drop_rate : float;
  flaky_rate : float;
  max_injections : int;
}

let quiet =
  {
    seed = 0;
    flip_reg_rate = 0.;
    flip_data_rate = 0.;
    irq_rate = 0.;
    page_drop_rate = 0.;
    flaky_rate = 0.;
    max_injections = 0;
  }

type injection =
  | Flip_reg of { reg : int; bit : int }
  | Flip_data of { word : int; bit : int }
  | Spurious_interrupt
  | Drop_page of { pick : int }
  | Flaky_mem

type t = {
  enabled : bool;
  cfg : config;
  rng : Rng.t;
  mutable injected : int;
  mutable reg_flips : int;
  mutable data_flips : int;
  mutable irqs : int;
  mutable page_drops : int;
  mutable flaky_armed : int;
  mutable flaky_fired : int;
}

let fresh ~enabled cfg =
  {
    enabled;
    cfg;
    rng = Rng.create cfg.seed;
    injected = 0;
    reg_flips = 0;
    data_flips = 0;
    irqs = 0;
    page_drops = 0;
    flaky_armed = 0;
    flaky_fired = 0;
  }

let none = fresh ~enabled:false quiet
let make cfg = fresh ~enabled:true cfg
let enabled t = t.enabled
let config t = t.cfg

let decide t =
  if
    (not t.enabled)
    || (t.cfg.max_injections > 0 && t.injected >= t.cfg.max_injections)
  then None
  else begin
    let c = t.cfg in
    (* one uniform draw per step: decision k depends only on seed and k *)
    let u = Rng.float t.rng in
    let t1 = c.flip_reg_rate in
    let t2 = t1 +. c.flip_data_rate in
    let t3 = t2 +. c.irq_rate in
    let t4 = t3 +. c.page_drop_rate in
    let t5 = t4 +. c.flaky_rate in
    if u >= t5 then None
    else begin
      t.injected <- t.injected + 1;
      if u < t1 then begin
        t.reg_flips <- t.reg_flips + 1;
        Some (Flip_reg { reg = Rng.int t.rng 16; bit = Rng.int t.rng 32 })
      end
      else if u < t2 then begin
        t.data_flips <- t.data_flips + 1;
        Some (Flip_data { word = Rng.bits30 t.rng; bit = Rng.int t.rng 32 })
      end
      else if u < t3 then begin
        t.irqs <- t.irqs + 1;
        Some Spurious_interrupt
      end
      else if u < t4 then begin
        t.page_drops <- t.page_drops + 1;
        Some (Drop_page { pick = Rng.bits30 t.rng })
      end
      else begin
        t.flaky_armed <- t.flaky_armed + 1;
        Some Flaky_mem
      end
    end
  end

let note_flaky_fired t = t.flaky_fired <- t.flaky_fired + 1
let injected t = t.injected
let flaky_fired t = t.flaky_fired

let counts t =
  [ ("reg_flip", t.reg_flips);
    ("data_flip", t.data_flips);
    ("irq", t.irqs);
    ("page_drop", t.page_drops);
    ("flaky_armed", t.flaky_armed);
    ("flaky_fired", t.flaky_fired) ]

let injection_kind = function
  | Flip_reg _ -> "reg_flip"
  | Flip_data _ -> "data_flip"
  | Spurious_interrupt -> "irq"
  | Drop_page _ -> "page_drop"
  | Flaky_mem -> "flaky"

let injection_target = function
  | Flip_reg { reg; _ } -> reg
  | Flip_data { word; _ } -> word
  | Drop_page { pick } -> pick
  | Spurious_interrupt | Flaky_mem -> 0

let to_json t =
  let open Mips_obs.Json in
  Obj
    [ ("enabled", Bool t.enabled);
      ("seed", Int t.cfg.seed);
      ( "rates",
        Obj
          [ ("flip_reg", Float t.cfg.flip_reg_rate);
            ("flip_data", Float t.cfg.flip_data_rate);
            ("irq", Float t.cfg.irq_rate);
            ("page_drop", Float t.cfg.page_drop_rate);
            ("flaky", Float t.cfg.flaky_rate) ] );
      ("max_injections", Int t.cfg.max_injections);
      ("injected", Int t.injected);
      ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) (counts t))) ]
