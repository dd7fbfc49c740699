(** The host runtime: executes a compiled program on the simulated GPU.

    Mirrors the paper's lightweight host runtime layer (Harmony/Ocelot in
    Fig. 5): it stages relations into device buffers, launches each
    execution unit's kernels, reads back result sizes, manages buffer
    lifetimes and accounts PCIe traffic.

    Every device unit — a fused group, a UNIQUE, an AGGREGATE — runs one
    skeleton, the paper's multi-stage operator: per attempt it allocates
    bounds per input and staging plus counts per output, launches
    partition then compute, and runs a tail. For fused groups and UNIQUE
    the tail is an offset scan plus a gather per output; for AGGREGATE it
    is the final reduction. The inputs are verified last, and the outputs
    published together. A SORT is modelled host-side.

    Two transfer modes reproduce the two evaluation regimes:
    - [Resident] (small inputs, Figs. 16-18): base relations are uploaded
      once, intermediates live in device memory (freed as their last
      consumer finishes), and only sink results return to the host;
    - [Streamed] (large inputs, Fig. 21): every unit's inputs are uploaded
      just before it runs and its outputs downloaded and freed right
      after, modelling data sets that exceed device memory.

    Fault recovery is one ladder, tried in this order (DESIGN.md §8 has
    it as a table). Each row reads fault class → rung (bound; counter;
    trace instant); every attempt is charged:
    - injected [Alloc_failure] or [Transfer_failure]
      ({!Gpu_sim.Fault_inject}) → retry in place (3 per call; [retries];
      [alloc_retry] / [transfer_retry]);
    - [Capacity_trap] (a join expanded past its staging budget, a snapped
      key range outgrew its tile, an aggregation table filled) → retry
      with that capacity scaled ([config.max_retries] per unit;
      [retries]; [capacity_retry]). A lone operator follows one doubling
      rule with a bound: UNIQUE's slice up to shared memory / 8,
      AGGREGATE's table up to the groups that fit ¾ of shared memory;
      reaching the bound exhausts its capacities;
    - capacities exhausted in a fused group → {b fission}: re-select
      under the grown estimate, else halve; the pieces run next from the
      attempt's work list, so their [weave:] spans are siblings of the
      group's (down to singletons; [fissions]; [fission]);
    - capacities exhausted in a lone operator → {b host fallback} (once;
      no counter; [host_fallback]). A capacity trap never escapes its
      unit; the rows below see what escapes an attempt;
    - [Deadline_exceeded] or [Cancelled] → fail as is; any other fault
      with a cancellation already on the token → fail with the
      cancellation;
    - [Alloc_failure], [Transfer_failure] or [Data_corrupted] with
      [config.checkpoint] on → {b rollback} to the last verified
      checkpoint, replaying only the suffix ([config.max_retries], and
      past the first the ledger must have grown; [rollbacks],
      [replayed_cycles], [saved_replay_cycles]; [rollback]);
    - [Alloc_failure] in a [Resident] run → {b demotion}: restart
      [Streamed] with the same PCIe ledger and injection schedule state
      (once; [demotions]; [demotion]);
    - [Alloc_failure], [Transfer_failure] or [Data_corrupted] →
      {!Execution_error} with [Recovery_exhausted]; anything else →
      {!Execution_error} with the fault as is.

    The checkpoint ledger holds verified segment outputs, snapshotted
    into a budget-bounded host store. The integrity layer certifies
    buffers at PCIe boundaries and segment-output adoption, and with
    [config.integrity] verifies them before their data is trusted
    ({!Gpu_sim.Fault.Data_corrupted}). Without the ledger, detected
    corruption is terminal: there is no safe prefix to resume from.

    Every recovery action — retry, fission, rollback, demotion — first
    passes one gate: a cancellation already on the token wins, then the
    [config.retry_budget] token purse and the deadline-cost veto apply
    ({!Gpu_sim.Fault.Budget_vetoed}). Counters survive failed attempts:
    a run's metrics charge every attempt it made.

    Every kernel launch runs its CTAs on [config.jobs] worker domains
    (see {!Gpu_sim.Interp.run}); results, stats and cycle counts are
    independent of the job count.

    Each kernel is certified once per program. Every attempt lowers its
    units to raw (pre -O3) kernels, which are data-dependent: a capacity
    retry grows a tile, fission makes new groups, and the fused pivot
    follows the input row counts. A raw kernel then passes the
    static-analysis gate and -O3, and the result is remembered in the
    program's memo. The key is a digest of the raw kernel and its
    shared-memory regions, plus [opt] and [config.analyze]. Those are all
    the result depends on. The raw kernel, not the unit, is keyed, so a
    new sizing is a new key by construction. A later attempt or request
    that lowers the same kernel skips both the gate (no [gate:] spans) and
    -O3. A rejection raises {!Gpu_sim.Fault.Static_rejected} and is never
    remembered.

    The runtime also enforces the skeletons' sorted-input invariant: when
    a keyed unit's input is not key-sorted (e.g. a PROJECT reordered
    attributes between groups), the relation is re-sorted and the cost of
    a modelled SORT is charged. *)

open Relation_lib
open Qplan

type mode = Resident | Streamed

type unit_kind =
  | U_fused of { name : string; ir : Fusion.t }
  | U_sort of { op_id : int; key_arity : int; source : Plan.source }
  | U_unique of { op_id : int; key_arity : int; source : Plan.source }
  | U_aggregate of {
      op_id : int;
      source : Plan.source;
      lay : Ra_lib.Aggregate_emit.layout;
    }

type memo
(** A program's certificate memo (see the header): the -O3 kernels that
    passed the gate, keyed by what certification depends on. *)

val memo : unit -> memo
(** An empty memo, for {!Driver.compile}. *)

type program = {
  plan : Plan.t;
  config : Config.t;
  opt : Optimizer.level;
  units : unit_kind list;  (** topologically ordered *)
  groups : int list list;  (** the fusion groups chosen (incl. singletons) *)
  memo : memo;
      (** shared by every copy of the program ([{ p with config }]); safe
          to share across domains *)
}

val certified_kernels : program -> int
(** How many certified kernels the program's memo holds. Every miss
    that certifies (the gate and -O3, or -O3 alone with the gate off)
    adds one, so a run that leaves the count unchanged ran neither the
    gate nor -O3. *)

val unit_inputs : unit_kind -> Plan.source list
(** The relations a unit reads: a fused group's inputs, or a barrier
    operator's single source. *)

val unit_outputs : unit_kind -> int list
(** The plan nodes a unit materializes: a fused group's outputs (its
    sinks and the intermediates other units read), or the barrier
    operator itself. *)

type result = { sinks : (int * Relation.t) list; metrics : Metrics.t }

type failure = {
  fault : Gpu_sim.Fault.t;
  partial : Metrics.t;
  trail : string list;
}
(** A failed run: the typed fault plus the metrics accumulated up to the
    failure point — cycles are charged, injected faults counted, and
    [partial.leaks] is the post-cleanup live-buffer list (always [[]]
    unless the runtime has a lifetime bug; the service layer's isolation
    tests assert on it). [trail] is the flight recorder's last events
    ({!Weaver_obs.Trace.trail}) when the caller passed a tracer, [[]]
    otherwise — rendered after the one-line fault report so a failure
    comes with its recent-history context. *)

exception Execution_error of Gpu_sim.Fault.t
(** Raised for unrecoverable faults. Render the payload with
    {!Gpu_sim.Fault.render}. *)

val run_result :
  ?cancel:Gpu_sim.Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  program ->
  Relation.t array ->
  mode:mode ->
  (result, failure) Stdlib.result
(** Like {!run}, but failures come back as values carrying partial
    metrics instead of an exception. [cancel] (default
    {!Gpu_sim.Cancel.none}) is polled per CTA and at every host
    checkpoint; a fired token fails the run with its stored fault
    (typically {!Gpu_sim.Fault.Cancelled}). Deadlines from the program's
    config ([deadline_cycles], [wall_deadline_s]) are enforced here:
    cycle deadlines deterministically at launch/transfer checkpoints,
    wall deadlines via a watchdog installed on the token. Both are
    terminal — never retried, never demoted. Still raises
    [Invalid_argument] on base-relation count/schema mismatch (caller
    bugs, not query faults).

    [trace] (default [Trace.none], zero cost) observes the whole run:
    Host-lane spans per execution unit and per attempt, Kernel-lane spans
    per launch (executor-owned) and per modelled report, Pcie/Mem-lane
    events from the ledger and the allocator, Gate-lane spans from the
    static-analysis gate, and instants for every recovery action
    (capacity/alloc/transfer retries, fission, demotion, host fallback,
    injected faults). The simulated-cycle timeline is deterministic: for
    a fixed workload it is bit-identical across [jobs] values. *)

val run :
  ?cancel:Gpu_sim.Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  program ->
  Relation.t array ->
  mode:mode ->
  result
(** Raises {!Execution_error} on unrecoverable faults (exhausted
    recovery, schema mismatches as [Host_error], missed deadlines,
    cancellation) and [Invalid_argument] on base-relation count/schema
    mismatch. *)

val kernels_source : program -> string
(** CUDA-style source of every generated kernel (after the program's
    optimization level), for inspection — the Fig. 15 view. *)

val analyze_program :
  program -> Weaver_analysis.Analysis.report list
(** Run the static-analysis suite over every woven kernel of the
    program, exactly as the execution gate does: on the unoptimized KIR
    (the contract codegen must honor — O3 then only rewrites what was
    already certified), with the fused compute kernel checked against
    its layout's shared-memory regions and each kernel's register
    budget. The kernels are built by the same function the execution
    gate uses, so the reports cover exactly the kernels a run certifies
    (unique and aggregate partition kernels included); sort units have no
    woven KIR and are skipped. Pure: builds kernels but executes
    nothing. *)

val analyze_kernel :
  ?regions:Weaver_analysis.Analysis.region list ->
  ?trace:Weaver_obs.Trace.t ->
  Gpu_sim.Kir.kernel ->
  Weaver_analysis.Analysis.report
(** One kernel through the same suite, budgeting [regs_per_thread]. *)
