(** A persistent pool of worker domains for parallel CTA execution.

    Worker domains are spawned lazily on the first parallel {!run} and kept
    parked between runs, so the per-launch cost of parallelism is a queue
    push and a condition broadcast, not a domain spawn. The pool grows to
    the largest [jobs] ever requested (capped at 64 workers). *)

val run :
  ?cancel:Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  jobs:int ->
  (int -> (string * Weaver_obs.Trace.value) list) ->
  unit
(** [run ~jobs f] executes [f 0 .. f (jobs - 1)] concurrently — [f 0] on
    the calling domain, the rest on pool workers — and returns when all
    have finished. When [trace] records events and has a wall clock, each
    [f w] runs inside a wall-clock span on worker lane [w], closed with the
    arguments [f w] returns. If any worker raised, the exception of the
    lowest-indexed failing worker is re-raised (a deterministic choice).
    [jobs <= 1] degenerates to a plain call of [f 0]. A fired [cancel]
    token makes [run] raise before dispatching any work; cancellation
    mid-run is the job of the polls inside [f].

    Intended for one submitter at a time (the interpreter); [f] must not
    itself call [run] on the same pool. *)
