(** Kernel Weaver's top-level API: compile a query plan, run it, compare.

    [compile] is the whole Fig. 5 pipeline after the language front-end:
    Algorithm 1 finds fusion candidates on the dependence graph, Algorithm
    2 selects resource-feasible groups, the weaver builds each group's
    segment program and the code generator emits its KIR kernels (lowered
    lazily at run time so capacity retries can regenerate them).

    [~fuse:false] compiles every fusible operator as its own singleton
    group — the unfused baseline, using exactly the same skeleton library,
    which is the paper's comparison methodology. *)

open Qplan
open Relation_lib

val compile :
  ?config:Config.t ->
  ?fuse:bool ->
  ?opt:Optimizer.level ->
  ?trace:Weaver_obs.Trace.t ->
  Plan.t ->
  Runtime.program
(** Defaults: [Config.default], [fuse:true], [opt:O3]. Raises
    [Runtime.Execution_error] if some group cannot be planned at all.
    [trace] (default [Trace.none]) gets one Driver-lane [compile] span
    over candidate search, selection and weaving. *)

val run :
  ?cancel:Gpu_sim.Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  Runtime.program ->
  Relation.t array ->
  mode:Runtime.mode ->
  Runtime.result
(** Alias of {!Runtime.run}. *)

type comparison = {
  fused : Runtime.result;
  unfused : Runtime.result;
  fused_program : Runtime.program;
  unfused_program : Runtime.program;
}

val results_agree :
  (int * Relation_lib.Relation.t) list -> (int * Relation_lib.Relation.t) list -> bool
(** Whether two runs' sinks agree, pairwise in order: the same sink ids,
    and relations equal as multisets, except that a relation with a float
    attribute compares approximately ({!Relation_lib.Relation.approx_equal}:
    f32 reassociation differs across schedules and plans). *)

val compare_fusion :
  ?config:Config.t ->
  ?opt:Optimizer.level ->
  Plan.t ->
  Relation_lib.Relation.t array ->
  mode:Runtime.mode ->
  comparison
(** Run the same plan and inputs with and without fusion (the experiment
    every figure of §5 performs). Results are checked to be
    multiset-equal; a mismatch raises [Runtime.Execution_error] — fusion
    must never change answers. Relations with float attributes are
    compared approximately (f32 reassociation differs across schedules). *)

val speedup : baseline:Metrics.t -> improved:Metrics.t -> float
(** [total_cycles baseline / total_cycles improved]. *)

val group_summary : Runtime.program -> string
(** Human-readable list of execution units and fusion groups. *)
