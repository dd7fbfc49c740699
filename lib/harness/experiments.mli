(** One function per figure/table of the paper's evaluation (§5).

    Every experiment runs the fused and unfused compilations of the same
    workload through the simulator and reports the paper's metric; the
    headline values are what EXPERIMENTS.md tracks against the paper.
    Sizes default to simulator-friendly row counts (the paper used
    64 MB-1 GB buffers on real hardware; ratios, not absolute sizes, are
    the reproduction target — see DESIGN.md). *)

val fig4 : ?sizes:int list -> ?jobs:int -> unit -> Report.outcome
(** Back-to-back SELECT throughput, 2 and 3 selects fused vs unfused,
    over a size sweep. Paper: 1.80x / 2.35x average. *)

val table2 : unit -> Report.outcome
(** The experimental environment (simulated device + compiler config). *)

val fig16 : ?rows:int -> ?jobs:int -> unit -> Report.outcome
(** GPU-computation speedup from fusion, small inputs, patterns (a)-(e).
    Paper: 2.89x average; (a),(e) > (c) > (b) > (d). *)

val fig17 : ?rows:int -> ?jobs:int -> unit -> Report.outcome
(** Peak GPU global memory allocated, with/without fusion. Paper: fusion
    allocates less everywhere except (d), which is slightly worse. *)

val fig18 : ?rows:int -> ?jobs:int -> unit -> Report.outcome
(** Global-memory access cycles, with/without fusion. Paper: -59% avg. *)

val fig19 : ?rows:int -> ?jobs:int -> unit -> Report.outcome
(** -O3 vs -O0 speedup, with and without fusion. Paper: fusion widens the
    optimizer's win. *)

val fig20 : ?rows:int -> ?ratios:float list -> ?jobs:int -> unit -> Report.outcome
(** Fusion speedup of two back-to-back SELECTs vs selection ratio.
    Paper: 1.28x at 10% ... 2.01x at 90%. *)

val fig21 : ?rows:int -> ?jobs:int -> unit -> Report.outcome
(** Large inputs (streamed over PCIe): computation, PCIe and overall
    speedups per pattern. Paper: 2.91x / 2.08x / 1.98x averages, no PCIe
    win for (d). *)

val table3 : unit -> Report.outcome
(** Estimated registers, shared memory and occupancy for individual
    operators and the fused patterns (the paper's ptxas/occupancy
    numbers). *)

val q1 : ?lineitems:int -> ?jobs:int -> unit -> Report.outcome
(** TPC-H Q1: overall speedup, SORT's share, non-SORT speedup.
    Paper: 1.25x overall, SORT ~71%, 3.18x on the fused remainder. *)

val q21 : ?lineitems:int -> ?jobs:int -> unit -> Report.outcome
(** TPC-H Q21: overall speedup. Paper: 1.22x. *)

val analysis : unit -> Report.outcome
(** Static-analysis gate over the golden set (patterns (a)-(e), Q1,
    Q21): per-workload kernel/diagnostic counts and pass runtime. Pure
    compile + analyze; runs nothing on the device. *)

val all : ?quick:bool -> ?jobs:int -> unit -> (string * (unit -> Report.outcome)) list
(** Every experiment as a lazy thunk, keyed by its figure/table id —
    forcing one entry runs only that experiment. [quick] shrinks sizes
    (used by tests). *)

val select :
  ?quick:bool ->
  ?jobs:int ->
  string list ->
  ((string * (unit -> Report.outcome)) list, string) result
(** The named entries of {!all} and {!Ablations.all}, in the order given
    ([[]] selects every one), or a usage message naming the unknown names
    and listing the known ones. Front ends exit 2 on [Error]. *)
