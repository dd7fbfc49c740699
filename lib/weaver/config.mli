(** Weaver configuration: device, cost model and skeleton tuning knobs.

    The paper picks one kernel configuration (CTA and thread dimensions)
    that works well across the micro-benchmarks (§4.1); [cta_threads] and
    [cap] play that role here. Capacity knobs size the shared-memory tiles
    and staging buffers; the runtime retries with scaled values when a
    kernel traps on a capacity overflow. *)

open Gpu_sim

type t = {
  device : Device.t;
  timing : Timing.params;
  cta_threads : int;  (** threads per CTA for compute/gather kernels *)
  cap : int;  (** target driving rows per CTA (tile capacity seed) *)
  min_cap : int;  (** below this the layout gives up (group infeasible) *)
  aux_factor : int;
      (** slack factor for keyed input tiles (snapped key ranges may
          exceed an even slice) *)
  join_expansion : int;  (** join output rows per left input row budgeted *)
  broadcast_cap : int;  (** max rows of a PRODUCT's broadcast side *)
  max_groups : int;  (** aggregation hash-table capacity *)
  input_sharing : bool;  (** enable the §4.4 input-dependence extension *)
  max_retries : int;  (** capacity-overflow retries before giving up *)
  retry_budget : int option;
      (** per-request recovery token budget. Every recovery action — a
          capacity/alloc/transfer retry, a fission split, a checkpoint
          rollback, a Resident->Streamed demotion — spends one token;
          when the budget is exhausted the next action is vetoed with a
          typed {!Gpu_sim.Fault.Budget_vetoed} ([Tokens_exhausted])
          instead of burning more device cycles. When a [deadline_cycles]
          budget is also set, recovery additionally vetoes any action
          whose cost estimate (the cycles it is expected to re-spend)
          cannot finish before the deadline ([Deadline_too_close]) — fail
          fast rather than start work that is doomed to miss. [None] (the
          default) disables token accounting; the per-site retry caps
          still apply (see {!Runtime}). *)
  jobs : int;
      (** worker domains executing CTAs per kernel launch (see
          {!Gpu_sim.Interp.run}); 1 = sequential. Results and merged stats
          are identical for any value — this is purely a simulator
          wall-clock knob *)
  faults : string option;
      (** fault-injection schedule (see {!Gpu_sim.Fault_inject.of_spec});
          [None] (the default) disables injection at zero cost. The
          [WEAVER_FAULTS] environment variable seeds runs that don't set
          this field. *)
  deadline_cycles : float option;
      (** per-query budget in simulated cycles (kernel + PCIe, the
          {!Metrics.t.total_cycles} currency). The runtime checks the
          budget at launch/transfer checkpoints and fails the query with
          {!Gpu_sim.Fault.Deadline_exceeded} once spent cycles exceed it
          (strictly; a budget of exactly the run's cost never fires). A
          non-positive budget fires at the first checkpoint. Deterministic:
          depends only on the cost model, never on the host clock. *)
  wall_deadline_s : float option;
      (** wall-clock watchdog in seconds, measured from run start. Coarse
          host-side protection against pathological simulations; checked
          at the same checkpoints plus per-CTA via the {!Gpu_sim.Cancel}
          token. Non-deterministic by nature. *)
  analyze : bool;
      (** run the static-analysis gate ({!Weaver_analysis}) over every
          woven kernel before it launches: barrier divergence, shared
          races, resource certification, def-use hygiene. A gating
          diagnostic fails the query with
          {!Gpu_sim.Fault.Static_rejected}. On by default; turn off to
          benchmark codegen without the certification cost. *)
  integrity : bool;
      (** verify buffer integrity certificates (word digests recorded at
          PCIe transfer boundaries and at segment-output adoption) at
          every downstream use and release; a mismatch fails the attempt
          with {!Gpu_sim.Fault.Data_corrupted} and enters recovery instead
          of silently propagating garbage. On by default — certificates
          are always *recorded* (so injected [:flip] corruption lands on
          the same buffers either way); this flag gates only the
          verification. *)
  checkpoint : bool;
      (** snapshot every verified segment output (host-side copy +
          certificate) into a bounded checkpoint ledger, and on a
          recoverable fault resume from the ledger — re-executing only
          the suffix after the last verified checkpoint — instead of
          restarting the whole fused chain. The rollback rung sits ahead
          of full-restart recovery and charges the [retry_budget] token
          gate only for the replayed suffix. Off by default. *)
  checkpoint_budget_frac : float;
      (** checkpoint ledger size budget as a fraction of device memory
          (the same footprint currency the service's admission estimate
          uses). Oldest snapshots are evicted first when the ledger
          overflows; a snapshot larger than the whole budget is skipped. *)
  attrib : bool;
      (** per-operator cost attribution (EXPLAIN ANALYZE): launches record
          their per-instruction execution profile and reduce it to
          per-operator samples ({!Gpu_sim.Executor.attrib_sample}), and the
          runtime records fusion counterfactuals per executed group. Off
          by default — the profile costs one int array per launch. *)
}

val default : t
(** Fermi C2050, default timing, 128 threads/CTA, 256-row tiles,
    sequential interpretation ([jobs = 1]). *)

val with_jobs : t -> int -> t
(** [with_jobs t n] sets the CTA worker count; [n <= 0] means "auto"
    ({!Gpu_sim.Domain_pool.default_jobs}, i.e. the machine's recommended
    domain count unless [WEAVER_JOBS] overrides it). *)

val budget : t -> Qplan.Selection.budget
(** Algorithm 2's resource budget: the device's register and per-CTA
    shared-memory limits. *)
