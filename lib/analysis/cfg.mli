(** Control-flow graph over a KIR kernel body.

    Blocks are maximal straight-line runs: every branch target starts a
    block, and every [Br]/[Brz]/[Brnz]/[Bar]/[Ret]/[Trap] ends one
    ([Bar] ends a block so that barrier-delimited phases fall out of the
    block structure). Out-of-range branch targets are treated as
    falling off the kernel (no successor) rather than crashing, so the
    analyzer can be pointed at kernels that [Kir_validate] would
    reject.

    Two derived views are exposed:

    - the {e trap-pruned} graph, with every [Trap]-terminated block (and
      edges into it) removed. A [Trap] aborts the whole launch, so for
      divergence purposes a conditional branch whose one side traps is
      not a divergence point — surviving threads all take the other
      side. Post-dominators and branch influence regions are computed on
      this view, with a virtual exit joining every pruned-exit block.
    - the {e barrier-free reachability} closure on the full graph:
      [may_concurrent] holds when two blocks can execute on opposite
      sides of no barrier, i.e. some path connects them without leaving
      a [Bar]-terminated block. It is computed per block on first use.

    Post-dominators form a tree built by Cooper, Harvey & Kennedy's
    iterative algorithm, near-linear in the number of blocks. The
    trap-pruned graph and its post-dominators are built on first use: a
    caller that reads only blocks, edges and reachability (liveness,
    register allocation) never pays for them. *)

type block = {
  id : int;
  first : int;
  last : int;  (** inclusive; [body.(last)] is the terminator *)
  succs : int list;
  preds : int list;
  traps : bool;  (** terminator is [Trap] *)
}

type t

val build : Gpu_sim.Kir.kernel -> t
val kernel : t -> Gpu_sim.Kir.kernel
val nblocks : t -> int
val block : t -> int -> block
val block_of : t -> int -> int
(** Block id containing an instruction index. *)

val reachable : t -> int -> bool
(** Reachable from entry in the full graph. *)

val preachable : t -> int -> bool
(** Reachable from entry in the trap-pruned graph. *)

val psuccs : t -> int -> int list
(** Successors in the trap-pruned graph. *)

val cond_target : t -> int -> int option
(** If block [b] ends in [Brz]/[Brnz] with an in-range target, the
    target block id (the fall-through block is [block_of (last+1)]). *)

val ipd : t -> int -> int
(** Immediate post-dominator of a pre-reachable block in the trap-pruned
    graph; [nblocks] names the virtual exit, and blocks off the pruned
    graph get [-1]. A pre-reachable block that cannot reach the exit has
    no true post-dominator; it gets the answer of the classic dense
    set formulation, whose sets for such blocks stay full: the other
    node with the largest post-dominator set, lowest index on ties. *)

val influence : t -> int -> int list
(** Influence region of the conditional branch ending block [b]: blocks
    reachable (pruned graph) from a successor of [b] without passing
    through [b]'s immediate post-dominator, the branch and the
    post-dominator block excluded. Empty when [b] has fewer than two
    pruned successors. *)

val one_sided : t -> int -> (int list * int list) option
(** For a two-way pruned conditional: blocks executed only when the
    condition is non-zero, and only when it is zero. [None] otherwise. *)

val may_concurrent : t -> int -> int -> bool
(** No barrier separates the two blocks on some execution ordering
    (includes [a = b]). *)

val iter_instrs : t -> (int -> Gpu_sim.Kir.instr -> unit) -> unit
(** All instructions of blocks reachable in the full graph. *)
