open Gpu_sim

type t = {
  device : Device.t;
  cta_threads : int;
  cap : int;
  min_cap : int;
  aux_factor : int;
  join_expansion : int;
  broadcast_cap : int;
  max_groups : int;
  input_sharing : bool;
  max_retries : int;
  retry_budget : int option;
  jobs : int;
  faults : string option;
  deadline_cycles : float option;
  wall_deadline_s : float option;
  analyze : bool;
  integrity : bool;
  checkpoint : bool;
  checkpoint_budget_frac : float;
  attrib : bool;  (** per-operator cost attribution (EXPLAIN ANALYZE) *)
}

let default =
  {
    device = Device.fermi_c2050;
    cta_threads = 128;
    cap = 256;
    min_cap = 32;
    aux_factor = 2;
    join_expansion = 2;
    broadcast_cap = 1024;
    max_groups = 512;
    input_sharing = true;
    max_retries = 10;
    retry_budget = None;
    jobs = 1;
    faults = None;
    deadline_cycles = None;
    wall_deadline_s = None;
    analyze = true;
    integrity = true;
    checkpoint = false;
    checkpoint_budget_frac = 0.5;
    attrib = false;
  }

let with_jobs t jobs =
  { t with jobs = (if jobs >= 1 then jobs else Domain.recommended_domain_count ()) }

let budget t =
  {
    Qplan.Selection.max_regs_per_thread = t.device.Device.max_registers_per_thread;
    max_shared_bytes = t.device.Device.max_shared_mem_per_cta;
  }
