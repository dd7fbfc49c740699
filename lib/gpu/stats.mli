(** Dynamic event counters collected while interpreting KIR kernels.

    The interpreter derives them from basic-block execution counts (each
    block's static per-entry counts times its entries); the {!Timing} cost
    model then converts them into simulated cycles. Keeping
    raw event counts separate from the cost model lets experiments report
    both (e.g. Fig. 17 needs bytes, Fig. 18 needs memory cycles). *)

type t = {
  mutable instructions : int;  (** all executed instructions *)
  mutable alu_ops : int;  (** arithmetic / logic / compare / select / cvt *)
  mutable branches : int;
  mutable global_loads : int;
  mutable global_load_bytes : int;
  mutable global_stores : int;
  mutable global_store_bytes : int;
  mutable shared_loads : int;
  mutable shared_load_bytes : int;
  mutable shared_stores : int;
  mutable shared_store_bytes : int;
  mutable atomics : int;
  mutable barrier_waits : int;  (** per-thread arrivals at a barrier *)
}

val create : unit -> t
(** Fresh zeroed counters. *)

val reset : t -> unit
(** Zero every counter in place. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val add_scaled : t -> int -> t -> unit
(** [add_scaled acc k x] accumulates [k] times [x] into [acc]. *)

val copy : t -> t

val equal : t -> t -> bool
(** Field-wise equality — what the parallel-vs-sequential differential
    tests assert on merged counters. *)

val global_bytes : t -> int
(** Total bytes moved to/from global memory. *)

val shared_bytes : t -> int
(** Total bytes moved to/from shared memory. *)

val pp : Format.formatter -> t -> unit
