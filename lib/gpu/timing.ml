type params = {
  launch_overhead_cycles : float;
  alu_cycles : float;
  shared_access_cycles : float;
  atomic_cycles : float;
  barrier_cycles : float;
  global_latency_cycles : float;
  achieved_bw_fraction : float;
  compute_saturation_occupancy : float;
  memory_saturation_occupancy : float;
  min_compute_saturation : float;
  min_memory_saturation : float;
}

let default_params =
  {
    (* calibrated against the paper's headline ratios; see DESIGN.md.
       ALU at 0.5 cycles reflects Fermi's dual-issue schedulers and that
       the naive generated code carries more instructions per word than
       hand-tuned CUDA *)
    launch_overhead_cycles = 6000.0;
    alu_cycles = 0.5;
    shared_access_cycles = 1.0;
    atomic_cycles = 6.0;
    barrier_cycles = 12.0;
    global_latency_cycles = 4.0;
    achieved_bw_fraction = 0.55;
    compute_saturation_occupancy = 0.5;
    memory_saturation_occupancy = 0.25;
    min_compute_saturation = 0.35;
    min_memory_saturation = 0.5;
  }

type kernel_time = {
  compute_cycles : float;
  memory_cycles : float;
  launch_cycles : float;
  total_cycles : float;
}

let global_bytes_per_cycle (d : Device.t) = d.global_bw_gbps /. d.clock_ghz

let saturation ~at ~floor occupancy =
  if at <= 0.0 then 1.0
  else Float.max floor (Float.min 1.0 (occupancy /. at))

let kernel_time (d : Device.t) ~occupancy (s : Stats.t) =
  let params = default_params in
  let thread_cycles =
    (float_of_int s.Stats.instructions *. params.alu_cycles)
    +. float_of_int (s.Stats.shared_loads + s.Stats.shared_stores)
       *. params.shared_access_cycles
    +. (float_of_int s.Stats.atomics *. params.atomic_cycles)
    +. (float_of_int s.Stats.barrier_waits *. params.barrier_cycles)
    +. float_of_int (s.Stats.global_loads + s.Stats.global_stores)
       *. params.global_latency_cycles
  in
  let lanes = float_of_int (d.sm_count * d.warp_size) in
  let compute_cycles =
    thread_cycles
    /. (lanes
        *. saturation ~at:params.compute_saturation_occupancy
             ~floor:params.min_compute_saturation occupancy)
  in
  let bw =
    global_bytes_per_cycle d *. params.achieved_bw_fraction
    *. saturation ~at:params.memory_saturation_occupancy
         ~floor:params.min_memory_saturation occupancy
  in
  let memory_cycles = float_of_int (Stats.global_bytes s) /. bw in
  let launch_cycles = params.launch_overhead_cycles in
  {
    compute_cycles;
    memory_cycles;
    launch_cycles;
    total_cycles = launch_cycles +. Float.max compute_cycles memory_cycles;
  }

let cycles_to_seconds (d : Device.t) cycles = cycles /. (d.clock_ghz *. 1e9)
