(** Orchestrator: run every checker over a kernel and collect a report.

    The four analyses — barrier divergence, shared-memory races,
    resource certification, def-use hygiene — all ride on the same CFG,
    reaching-definitions, liveness, uniformity, and symbolic-expression
    infrastructure, built once per kernel. *)

type region = Resources.region = { base : int; words : int }

type report = {
  kname : string;
  diags : Diag.t list;  (** sorted, errors first *)
  certificate : Resources.certificate;
  stores_disjoint : bool;
      (** no two threads of one CTA may store to the same global word
          between two barriers ({!Races.check}); a certificate fact, not a
          diagnostic *)
  instrs : int;
}

val analyze :
  ?regions:region list ->
  ?expected_regs:int ->
  ?trace:Weaver_obs.Trace.t ->
  Gpu_sim.Kir.kernel ->
  report
(** [regions] describes the shared-memory layout the optimizer budgeted
    (checked against the kernel's [shared_words]); [expected_regs] is
    the register budget the fusion decision assumed (typically
    [regs_per_thread]). Both default to "don't check". [trace] (default
    [Trace.none]) gets a zero-duration Gate-lane span per analyzed
    kernel carrying instruction and diagnostic counts. *)

val gating : report -> Diag.t list
(** The diagnostics that fail the gate (errors and warnings; hints are
    advisory). *)

val report_json : report -> string
