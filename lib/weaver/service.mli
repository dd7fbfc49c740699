(** Multi-query service front end: deadlines, admission control, overload
    shedding.

    {!run_batch} drives a batch of compiled queries through
    {!Runtime.run_result} on one simulated device, adding the robustness
    layer a production server needs on top of per-query recovery (see
    DESIGN.md §9 "Service layer"):

    - {b Isolation}: every query gets its own memory manager, PCIe ledger
      and fault-injection state. One query's fault, missed deadline or
      cancellation never perturbs another's result — service-batch outputs
      are bit-identical to solo runs.
    - {b Deadlines}: per-request budgets in simulated cycles (enforced
      deterministically at the runtime's launch/transfer checkpoints) and
      wall-clock seconds (a {!Gpu_sim.Cancel} watchdog polled per CTA).
      A missed deadline fails that query with
      {!Gpu_sim.Fault.Deadline_exceeded} and zero leaked buffers.
    - {b Admission control}: a query's device-memory footprint is
      estimated from base cardinalities and the planner's expansion
      budgets before it runs. Resident queries whose estimate exceeds
      half of device memory (a fixed budget) are admitted pre-demoted to
      Streamed; queries whose single largest working set cannot fit at
      all are rejected with {!Over_capacity}. The wait queue is bounded:
      beyond [queue_limit] waiting requests, submissions are rejected
      with {!Queue_full} (backpressure, never unbounded buffering).
    - {b Overload shedding}: one degradation ladder (Normal -> Brownout
      -> Shed, DESIGN.md §13) scores recent pressure — failed executions,
      completions that survived only by demoting themselves, deep-queue
      admissions — over a window of the last 8 marks: 3 brown the service
      out, 6 shed it. Brownout pre-demotes every Resident admission to
      Streamed instead of letting each queued query rediscover the same
      pressure, and turns checkpointing off; Shed rejects 3 admissions
      with {!Overloaded}, then probes at Brownout; 3 clean completions
      step Brownout back to Normal.
    - {b Hedging}: optionally, once 4 executions have completed, a
      primary execution that outlives a latency quantile of them is
      cancelled and retried as a Streamed backup.
    - {b One ledger}: the responses are the only tally. {!stats} is a
      fold over them after the batch, and the registry is written once
      from the stats and the responses. *)

open Gpu_sim
open Relation_lib

type deadline = { cycles : float option; wall_s : float option }

type request = {
  rid : int;  (** caller-chosen id, echoed in the response *)
  program : Runtime.program;
  bases : Relation.t array;
  mode : Runtime.mode;  (** requested placement; admission may demote *)
  deadline : deadline;
  cancel : Cancel.t option;
      (** client-side abort handle; cancel it (with {!Fault.Cancelled})
          from another domain or a watchdog to stop the query *)
}

val request :
  ?deadline_cycles:float ->
  ?wall_deadline_s:float ->
  ?cancel:Cancel.t ->
  ?mode:Runtime.mode ->
  rid:int ->
  Runtime.program ->
  Relation.t array ->
  request
(** Default mode is [Resident]; omitted deadlines inherit whatever the
    program's own config carries. *)

type rejection =
  | Queue_full of { limit : int }
  | Over_capacity of { footprint_bytes : int; capacity_bytes : int }
  | Overloaded of { level : string }
      (** the degradation-ladder controller was in its [Shed] state when
          this request reached admission (see DESIGN.md §13); the request
          was never executed *)

type verdict =
  | Completed of Runtime.result
  | Failed of Runtime.failure
      (** typed fault + partial metrics; [partial.leaks] is always [[]] *)
  | Rejected of rejection  (** never executed; zero cycles charged *)

type response = {
  rid : int;
  verdict : verdict;
  mode_used : Runtime.mode;
  pre_demoted : bool;  (** admission downgraded a Resident request *)
  hedged : bool;
      (** a speculative Streamed backup launch produced this verdict after
          the primary overran the hedge latency quantile *)
  footprint_bytes : int;  (** admission's estimate for [mode_used] *)
  latency_cycles : float;
      (** service clock (cumulative simulated cycles, arrival = 0) when
          this query left the system *)
}

type config = {
  queue_limit : int;  (** max requests waiting behind the running one *)
  hedge_quantile : float option;
      (** when set (e.g. [Some 0.95]), a primary execution whose elapsed
          cycles exceed this quantile of the batch's completed-execution
          history — or whose recovery the deadline-cost veto stops inside
          that cap — is cancelled and hedged with a speculative Streamed
          backup; first completion wins, the loser's buffers are freed.
          Requests before the fourth completion never hedge. [None] (the
          default) disables hedging. Hedging is also suspended while the
          degradation ladder is above Normal. *)
}
(** The admission budget, the hedge warm-up and the ladder's window,
    thresholds and cooldown are fixed policy, not settings (see the
    module header and DESIGN.md §9, §13). *)

val default_config : config
(** queue 16, hedging off. *)

type stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  queue_rejections : int;  (** {!Queue_full} share of [rejected] *)
  capacity_rejections : int;  (** {!Over_capacity} share of [rejected] *)
  shed_rejections : int;  (** {!Overloaded} share of [rejected] *)
  completed : int;
  failed : int;
  deadline_misses : int;
  cancelled : int;
  budget_vetoes : int;
      (** failures carrying {!Gpu_sim.Fault.Budget_vetoed} (recovery
          stopped by the token budget or the deadline-cost veto).
          [Deadline_too_close] vetoes are also counted in
          [deadline_misses]: they are deadline misses discovered early. *)
  pre_demotions : int;  (** admission-time Resident->Streamed downgrades *)
  runtime_demotions : int;  (** OOM-driven demotions inside the runtime *)
  hedges : int;  (** speculative backup launches issued *)
  hedge_wins : int;  (** hedges whose backup completed the request *)
  hedge_losses : int;  (** hedges whose backup also failed *)
  brownout_entries : int;  (** Normal -> Brownout ladder escalations *)
  shed_entries : int;  (** escalations into Shed *)
  corruptions_detected : int;
      (** certificate mismatches caught across all executions (completed
          and failed) *)
  rollbacks : int;  (** checkpoint-resumed recoveries across the batch *)
  checkpoints_taken : int;  (** ledger snapshots across the batch *)
  p50_latency_cycles : float;
  p95_latency_cycles : float;
  total_cycles : float;  (** simulated cycles the whole batch consumed *)
  throughput_qps : float;  (** completed queries per simulated second *)
  wall_seconds : float;  (** host wall clock for the whole batch *)
}

val run_batch :
  ?config:config ->
  ?trace:Weaver_obs.Trace.t ->
  ?registry:Weaver_obs.Registry.t ->
  request list ->
  response list * stats
(** Execute a batch (all requests arrive at time zero, in list order) and
    return one response per request, positionally, plus aggregate
    statistics. Queries run sequentially on the simulated device; latency
    percentiles are over completed queries.

    [trace] (default {!Weaver_obs.Trace.none}) observes the batch: one
    Queue-lane span per admitted request from batch arrival to execution
    start, one Service-lane span per execution (verdict and mode in its
    args), and Service-lane instants for rejections, pre-demotions,
    ladder transitions, hedges, deadline misses and cancellations — on top of
    everything the runtime itself traces. Even without a caller trace,
    each query runs over a private recorder-only tracer so a {!Failed}
    verdict always carries a flight-recorder [trail].

    [registry] (when given) is written once, after the batch. Every
    counter is present even at zero:
    [weaver_service_{submitted,admitted,rejected,completed,failed,
    deadline_misses,cancelled,pre_demotions}_total], the dedicated
    rejection counters
    [weaver_service_rejected_{queue_full,over_capacity,shed}_total], the
    overload counters [weaver_service_{budget_vetoes,hedges,hedge_wins,
    hedge_losses,brownout_transitions}_total] and the integrity counters
    [weaver_service_{corruptions_detected,rollbacks,checkpoints}_total],
    each equal to its {!stats} field (transitions count ladder moves in
    either direction). Histograms, sampled in execution order:
    [weaver_service_latency_cycles] and [weaver_service_exec_cycles]
    (completed queries), [weaver_service_queue_wait_cycles] (executed
    queries) and [weaver_op_cycles{op=...}] (attributed cycles per plan
    operator per executed query). Gauges at their final values:
    [weaver_service_queue_depth] (queue position of the last admission),
    [weaver_service_throughput_qps] and [weaver_service_brownout_level]
    (0 = Normal, 1 = Brownout, 2 = Shed).

    Completed and Failed metrics come back stamped with
    [Metrics.queue_wait_cycles] and [Metrics.service = true]. *)

val pp_stats : Format.formatter -> stats -> unit
