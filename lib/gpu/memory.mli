(** Simulated device (global) memory.

    Buffers are flat arrays of 64-bit words with an accounted byte width per
    element, handed out as integer handles that kernels receive as
    parameters. The manager tracks live and peak allocated bytes, which is
    the measurement behind Fig. 17 (global memory allocation with and
    without fusion). *)

type t

type buffer = int
(** Opaque buffer handle, passed to kernels as a parameter value. *)

val create : ?faults:Fault_inject.t -> ?trace:Weaver_obs.Trace.t -> Device.t -> t
(** [faults] (default {!Fault_inject.none}) is consulted on every
    {!alloc}; a scheduled event makes the allocation raise
    {!Fault.Error} with an [Alloc_failure] payload (simulated device
    OOM). [trace] (default [Trace.none]) gets a Mem-lane [device_bytes]
    counter sample after every alloc/free and an [alloc_fault] instant
    when the injector fails an allocation. *)

val alloc : ?label:string -> t -> words:int -> bytes:int -> buffer
(** Allocate a buffer of [words] elements accounted as [bytes] bytes of
    device memory (supplied exactly because tuples mix attribute widths).
    Raises [Invalid_argument] on a negative size, and {!Fault.Error}
    ([Alloc_failure]) when the fault injector schedules this call to
    fail. *)

val free : t -> buffer -> unit
(** Release a buffer. Double frees raise [Invalid_argument]. *)

val data : t -> buffer -> int array
(** Backing store, shared with the simulator (host-side reads and writes
    model explicit cudaMemcpy done by the runtime, which accounts PCIe
    traffic separately). Raises [Not_found] for dead handles. *)

val words : t -> buffer -> int
val bytes : t -> buffer -> int
val label : t -> buffer -> string
val is_live : t -> buffer -> bool

val live_buffers : t -> (buffer * string) list
(** Handles and labels of every currently-live buffer, sorted by handle.
    Introspection for leak assertions: after a run releases its
    materializations, anything left here beyond the base relations is a
    leak. *)

(* Integrity certificates (silent-data-corruption defense). A buffer may
   carry a digest of its words, recorded by the runtime at PCIe
   transfer boundaries and at segment-output adoption; verification
   recomputes the digest and raises a typed fault on mismatch. The fault
   injector's [:flip] kind targets only certified buffers (the data at
   rest whose corruption would otherwise silently poison every downstream
   operator), so every injected flip is detectable. *)

val checksum : t -> buffer -> int
(** Digest over the buffer's current words (padding included): one
    multiply-xorshift step per word, in four interleaved lanes, with the
    length and the lanes folded in by the same step. Every step is a
    bijection of the running state, so changing any single word always
    changes the digest. Deterministic, and may be negative. *)

val certify : t -> buffer -> unit
(** Record the buffer's current digest as its integrity certificate.
    Re-certify after any legitimate in-place rewrite (e.g. an implicit
    sort), or verification will blame the rewrite. Raises
    [Invalid_argument] on a dead buffer. *)

val cert : t -> buffer -> int option
(** The recorded certificate, if any. *)

val verify : t -> buffer -> site:string -> unit
(** Recompute the digest and compare against the certificate; a mismatch
    raises {!Fault.Error} with [Data_corrupted] naming [site]. No-op on an
    uncertified buffer. *)

val mismatches : t -> buffer list
(** Every live certified buffer whose current digest mismatches its
    certificate, sorted by handle — the sweep behind "count every
    outstanding flip when one is detected". *)

val live_bytes : t -> int
(** Bytes currently allocated. *)

val peak_bytes : t -> int
(** High-water mark of {!live_bytes} since creation or {!reset_peak}. *)

val reset_peak : t -> unit
(** Reset the high-water mark to the current live size. *)

val capacity_bytes : t -> int
(** Device memory capacity (from the device descriptor). *)

val would_overflow : t -> extra_bytes:int -> bool
(** Whether allocating [extra_bytes] more would exceed device capacity;
    used by the runtime to decide when data must be staged over PCIe. *)
