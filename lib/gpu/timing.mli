(** Cost model: converts {!Stats} event counts into simulated cycles.

    The model captures the first-order effects kernel fusion exploits:

    - global memory is a device-wide bandwidth resource, so global traffic
      costs [bytes / bytes_per_cycle];
    - per-thread work (ALU, shared-memory accesses, barriers, atomics) flows
      through the SM lanes, so it costs [thread_cycles / lanes];
    - a kernel launch has a fixed overhead, so a fused kernel amortizes
      launches;
    - low occupancy degrades both latency hiding and achieved bandwidth.

    Constants were calibrated once against the paper's headline ratios
    (Figs. 4, 16, 20) and then frozen; see DESIGN.md. *)

type params = {
  launch_overhead_cycles : float;  (** fixed cost per kernel launch *)
  alu_cycles : float;  (** per-thread cycles per ALU/branch instruction *)
  shared_access_cycles : float;  (** per shared-memory load/store *)
  atomic_cycles : float;  (** per atomic operation *)
  barrier_cycles : float;  (** per-thread cost of one barrier arrival *)
  global_latency_cycles : float;
      (** per-transaction latency charged to the issuing thread *)
  achieved_bw_fraction : float;
      (** fraction of peak global bandwidth the access patterns achieve
          (tuple-strided accesses never reach peak on real hardware) *)
  compute_saturation_occupancy : float;
      (** occupancy at which ALU throughput saturates (e.g. 0.5) *)
  memory_saturation_occupancy : float;
      (** occupancy at which global bandwidth saturates (e.g. 0.25) *)
  min_compute_saturation : float;
      (** throughput floor at minimal occupancy: instruction-level
          parallelism keeps units busy even with few warps (Volkov) *)
  min_memory_saturation : float;
      (** bandwidth floor at minimal occupancy (memory-level parallelism) *)
}

val default_params : params

type kernel_time = {
  compute_cycles : float;  (** lane-limited per-thread work *)
  memory_cycles : float;  (** bandwidth-limited global traffic *)
  launch_cycles : float;
  total_cycles : float;  (** launch + max(compute, memory) *)
}

val kernel_time : Device.t -> occupancy:float -> Stats.t -> kernel_time
(** Simulated execution time of one kernel whose dynamic events are [stats]
    and whose achieved occupancy (active warps / max warps per SM, in
    [0, 1]) is [occupancy], under {!default_params}. *)

val cycles_to_seconds : Device.t -> float -> float
(** Convert SM cycles to wall-clock seconds at the device clock. *)

val global_bytes_per_cycle : Device.t -> float
(** Peak global-memory bytes transferred per SM clock cycle. *)
