(** Backward liveness and the maximum number of simultaneously-live
    registers. *)

type t

val compute : Cfg.t -> t

val live_in : t -> int -> Dataflow.Bits.t
(** Registers live on entry to a block. *)

val live_out : t -> int -> Dataflow.Bits.t
(** Registers live on exit from a block. *)

val max_live : t -> counted:(int -> bool) -> int * int
(** [(width, at)]: the maximum over all program points (in blocks
    reachable from entry) of the number of live registers satisfying
    [counted], and an instruction index where the maximum is reached.
    Typically [counted] excludes special and parameter registers, which
    live in dedicated hardware spaces rather than the allocatable
    register file. *)

val dead_defs : t -> Defs.t -> int list
(** Reachable register-defining instructions whose definition reaches no
    use ([Atom] excluded: its register write is a side effect of the
    memory update). Ascending order. *)
