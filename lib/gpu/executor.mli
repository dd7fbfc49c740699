(** Kernel launcher: validation + interpretation + cost model.

    This is the layer the runtime talks to. It checks a launch against
    device limits, computes achieved occupancy, interprets the kernel and
    converts the observed events into simulated cycles. *)

type launch_report = {
  kernel_name : string;
  grid : int;
  cta : int;
  occupancy : float;
  limiting_resource : string;
  stats : Stats.t;
  time : Timing.kernel_time;
  attrib : Weaver_obs.Attrib.sample option;
      (** per-operator evidence for cost attribution; [None] unless the
          launch ran with [~attrib:true] *)
}

val attrib_sample :
  Kir.kernel ->
  int array ->
  Weaver_obs.Attrib.sample
(** Reduce per-pc execution counts (as produced by {!Interp.run}'s
    profile) to a per-operator sample using the kernel's provenance tags.
    Counts on instructions tagged with several operators split evenly
    (integer remainders to the lowest ids); untagged instructions accrue
    to {!Weaver_obs.Attrib.overhead_op}. Deterministic for given counts. *)

val launch :
  ?jobs:int ->
  ?faults:Fault_inject.t ->
  ?cancel:Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  ?attrib:bool ->
  Device.t ->
  Memory.t ->
  Kir.kernel ->
  params:int array ->
  grid:int ->
  cta:int ->
  launch_report
(** Execute one kernel launch. [jobs] (default 1) is the number of worker
    domains interpreting CTAs (see {!Interp.run}); results and stats are
    identical for any value. [faults] (default {!Fault_inject.none}) is
    consulted after validation: a scheduled event makes this launch trap
    with an injected capacity fault before any instruction executes.
    [cancel] (default {!Cancel.none}) is checked before the launch and
    polled per CTA during interpretation; a fired token aborts with its
    stored fault. [trace] (default [Trace.none]) gets one Kernel-lane span
    per launch — closed with occupancy, instruction count and the top
    hot-spot instruction counts when the tracer records events, and closed
    with a fault instant when the launch traps — and its simulated clock
    advances by the launch's total cycles. [attrib] (default [false])
    additionally records the per-instruction execution profile and
    reduces it to the report's per-operator {!field-launch_report.attrib}
    sample. Raises [Interp.Runtime_error]
    (= {!Fault.Error}) on runtime faults and [Invalid_argument] when the
    launch violates hard device limits (see {!Device.validate_launch}). *)

val total_cycles : launch_report list -> float
(** Sum of simulated total cycles over a sequence of launches. *)

val sum_stats : launch_report list -> Stats.t

val pp_report : Format.formatter -> launch_report -> unit
