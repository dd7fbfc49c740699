(** KIR optimization passes: the [-O0] / [-O3] axis of Fig. 19.

    The code generator deliberately emits naive code (every tile access
    recomputes its address, every operator reloads its inputs); [-O3]
    cleans it up the way nvcc would:

    - block-local value numbering: copy propagation, constant folding and
      common-subexpression elimination with per-register versioning, so
      address arithmetic inside loop bodies collapses;
    - redundant-load elimination: a reload of the same shared/global
      location with no intervening aliasing store, atomic or barrier
      becomes a register move;
    - global dead-code elimination, iterated to fixpoint, which deletes
      the moves left behind and — the significant part — loads of
      attributes no fused operator ever uses;
    - register allocation, which must run last: dead-code elimination
      calls a definition dead when its register is read nowhere in the
      kernel, which registers shared by several values would defeat. A
      linear scan over live intervals taken from
      {!Weaver_analysis.Live}'s block sets renames the virtual registers
      onto reused ones and shrinks [reg_count] (Q21's fused compute
      kernel at 2,000 lineitems: 1,448 to 27). Specials and parameters
      keep their numbers, a register live at entry or never written
      keeps a number of its own, and the body, labels and provenance
      keep their shape: only register names change, so every
      instruction count, [Stats] event and simulated cycle is what it
      was. Occupancy reads [regs_per_thread] (the §4.3.3 estimate),
      not [reg_count].

    Fusion enlarges basic blocks (one loop body spans the whole operator
    chain), so these passes find strictly more in fused kernels — that
    widening of optimization scope is benefit 6 of §2.3.

    The passes assume builder-generated kernels: values are defined before
    use on every path (re-definitions happen only through explicit loop
    registers). Hand-crafted kernels violating this should not be fed
    through the optimizer. *)

type level = O0 | O3 [@@deriving show, eq]

val optimize : level -> Gpu_sim.Kir.kernel -> Gpu_sim.Kir.kernel
(** [optimize O0 k] is [k]; [optimize O3 k] is [allocate (simplify k)],
    revalidated. *)

val simplify : Gpu_sim.Kir.kernel -> Gpu_sim.Kir.kernel
(** -O3 before allocation: value numbering and dead-code elimination to
    fixpoint, on virtual registers. *)

val allocate : Gpu_sim.Kir.kernel -> Gpu_sim.Kir.kernel
(** The register allocator alone: the same kernel with its registers
    renamed as described above. *)

val static_instructions : Gpu_sim.Kir.kernel -> int
