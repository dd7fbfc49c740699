(** Typed fault taxonomy for the simulated GPU stack.

    Every runtime failure the simulator or host runtime can hit is a
    constructor of {!t}, carried end-to-end inside {!Error} so recovery
    policies pattern-match on structure instead of parsing message
    strings. The weaver runtime's recovery (capacity retry, fission
    fallback, Resident->Streamed demotion) dispatches on these; anything
    that escapes recovery is rendered once, by {!render}, at the CLI
    boundary.

    The taxonomy, and who raises each fault:
    - [Capacity_trap]: a kernel's bounds check fired — a snapped key range
      outgrew its input tile ([Cap_input_tile]), a segment's output
      outgrew its staging/tile budget ([Cap_staging]) or the aggregation
      table filled ([Cap_groups]). Recoverable: the runtime retries with
      scaled capacities, then splits the fusion group.
    - [Out_of_bounds], [Div_by_zero], [Invalid_handle], [Invalid_launch]:
      interpreter faults; compiler bugs, never retried.
    - [Budget_exhausted]: the per-CTA instruction budget ran out.
    - [Alloc_failure]: device memory allocation failed (device OOM,
      possibly injected). Recoverable by Resident->Streamed demotion.
    - [Transfer_failure]: a PCIe copy failed (injected transient).
      Recoverable by retrying the transfer.
    - [Host_error]: host-side planning/runtime invariant violations.
    - [Budget_vetoed]: the runtime's recovery controller refused to start
      a retry/fission/demotion attempt — either the per-request retry
      token budget ran out ([Tokens_exhausted]) or the attempt's cost
      estimate cannot finish inside the remaining deadline budget
      ([Deadline_too_close]). Fail-fast by construction: terminal, never
      retried.
    - [Deadline_exceeded]: a per-query budget (simulated cycles or wall
      clock) ran out; raised cooperatively via {!Cancel} tokens. Terminal:
      never retried.
    - [Cancelled]: the query was cancelled from outside (service shutdown,
      client abort). Terminal: never retried.
    - [Recovery_exhausted]: every applicable policy was tried. *)

type capacity = Cap_input_tile | Cap_staging | Cap_groups

type space = Global_space | Shared_space

type direction = H2d | D2h

type deadline_kind = Deadline_cycles | Deadline_wall

type budget_reason =
  | Tokens_exhausted of { budget : int; spent : int }
      (** the per-request retry token budget ran out *)
  | Deadline_too_close of { estimated : float; remaining : float }
      (** the attempt's cost estimate exceeds the remaining cycle budget *)

type t =
  | Capacity_trap of {
      which : capacity;
      kernel : string;  (** filled by the interpreter at trap time *)
      op : int option;  (** producing operator, when the emitter knows it *)
      segment : int option;  (** fused segment index *)
      input : int option;  (** overflowing input index *)
      needed : int option;  (** observed demand, filled at trap time *)
      have : int;  (** the capacity that overflowed *)
    }
  | Out_of_bounds of {
      kernel : string;
      space : space;
      buffer : int option;  (** global-space buffer handle *)
      index : int;
      length : int;
    }
  | Div_by_zero of { kernel : string }
  | Budget_exhausted of { kernel : string }
  | Invalid_handle of { kernel : string; handle : int }
  | Invalid_launch of { kernel : string; reason : string }
  | Alloc_failure of {
      label : string;
      requested_bytes : int;
      live_bytes : int;
      capacity_bytes : int;
      injected : bool;
    }
  | Transfer_failure of { direction : direction; bytes : int; injected : bool }
  | Data_corrupted of {
      buffer : int;  (** the buffer handle whose certificate mismatched *)
      expected : int;  (** the recorded integrity certificate (word digest) *)
      got : int;  (** the checksum observed at the verification site *)
      site : string;  (** where verification fired (d2h, publish, ...) *)
    }
      (** An integrity certificate mismatch: a buffer's contents changed
          between certification (PCIe boundary or segment-output adoption)
          and a verification site — silent data corruption made loud.
          Recoverable: the runtime rolls back to the last verified
          checkpoint and replays the suffix. *)
  | Host_error of string
  | Budget_vetoed of { action : string; reason : budget_reason }
      (** recovery refused to start [action]; see {!budget_reason} *)
  | Deadline_exceeded of { kind : deadline_kind; limit : float; spent : float }
  | Cancelled of { reason : string }
  | Recovery_exhausted of { attempts : int; last : t }
  | Static_rejected of { kernel : string; count : int; first : string }
      (** the static-analysis gate refused to launch a woven kernel;
          [first] is the highest-severity diagnostic, rendered *)

exception Error of t
(** The one fault-carrying exception of the GPU layer.
    [Interp.Runtime_error] is a rebinding of it. *)

val raise_ : t -> 'a

val capacity_trap :
  ?kernel:string ->
  ?op:int ->
  ?segment:int ->
  ?input:int ->
  ?needed:int ->
  which:capacity ->
  have:int ->
  unit ->
  t

val host_error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted {!Host_error}. *)

val set_kernel : string -> t -> t
(** Fill an empty [kernel] field (emitters don't know the final kernel
    name; the interpreter does). *)

val set_needed : int -> t -> t
(** Fill a capacity trap's observed demand (a runtime register value). *)

val is_capacity : t -> bool

val render : t -> string
(** One-line human-readable message. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

val pp_capacity : Format.formatter -> capacity -> unit
val show_capacity : capacity -> string
val equal_capacity : capacity -> capacity -> bool

val pp_space : Format.formatter -> space -> unit
val show_space : space -> string
val equal_space : space -> space -> bool

val pp_direction : Format.formatter -> direction -> unit
val show_direction : direction -> string
val equal_direction : direction -> direction -> bool

val pp_deadline_kind : Format.formatter -> deadline_kind -> unit
val show_deadline_kind : deadline_kind -> string
val equal_deadline_kind : deadline_kind -> deadline_kind -> bool

val pp_budget_reason : Format.formatter -> budget_reason -> unit
val show_budget_reason : budget_reason -> string
val equal_budget_reason : budget_reason -> budget_reason -> bool
