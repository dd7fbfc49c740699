(** PCIe transfer model and traffic ledger.

    Host-to-device and device-to-host copies are charged a fixed latency
    plus bandwidth-proportional time (Device.pcie_bw_gbps is the effective
    rate, already below the PCIe 2.0 x16 peak, as measured systems are).
    The ledger supports Fig. 21 (PCIe traffic with and without fusion). *)

type direction = Host_to_device | Device_to_host

type t

val create : ?faults:Fault_inject.t -> ?trace:Weaver_obs.Trace.t -> Device.t -> t
(** [faults] (default {!Fault_inject.none}) is consulted on every
    {!transfer}; a scheduled event makes the transfer raise
    {!Fault.Error} with a [Transfer_failure] payload. [trace] (default
    [Trace.none]) gets one Pcie-lane span per transfer (its simulated
    clock advances by the transfer cycles) and a [transfer_fault] instant
    when the injector fails one. *)

val transfer : t -> direction -> bytes:int -> float
(** Record one transfer of [bytes]; returns its duration in seconds.
    When the fault injector schedules this call to fail, the traffic and
    time are still charged (the bus was occupied) and {!Fault.Error}
    ([Transfer_failure]) is raised. *)

val transfer_seconds : Device.t -> bytes:int -> float
(** The cost model of one transfer of [bytes] on [device], in seconds: a
    fixed latency plus bandwidth-proportional time. {!transfer} charges
    exactly this; callers that weigh a transfer before making it (the
    runtime's checkpoint policy) read it here. *)

val total_bytes : t -> int
val bytes_h2d : t -> int
val bytes_d2h : t -> int
val transfer_count : t -> int

val total_seconds : t -> float
(** Accumulated transfer time in seconds. *)

val total_cycles : t -> float
(** Accumulated transfer time expressed in SM cycles of the device, so it
    can be combined with kernel cycles. *)

val reset : t -> unit
