(** Dynamic kernel profiler: per-instruction execution counts.

    Wraps {!Interp.run}'s per-pc profile and renders hot-spot
    listings, the simulator's answer to nvprof. Used by the CLI's
    inspection paths and by developers chasing where a kernel's
    instructions actually go. *)

type t = {
  kernel : Kir.kernel;
  counts : int array;  (** executions of each body instruction *)
  stats : Stats.t;
}

val run :
  ?max_instructions:int ->
  ?jobs:int ->
  Memory.t ->
  Kir.kernel ->
  params:int array ->
  grid:int ->
  cta:int ->
  t
(** Like {!Interp.run} but also returns how often each instruction
    executed: the interpreter's basic-block entry counts spread over each
    block's instructions (deterministic — parallel runs keep per-worker
    count arrays and sum them afterwards). *)

val hot_spots : ?top:int -> t -> (int * int * Kir.instr) list
(** The [top] (default 10) most-executed instructions as
    [(index, count, instruction)], busiest first. *)

val pp : Format.formatter -> t -> unit
(** Annotated listing: every instruction with its execution count. *)
