(** KIR interpreter: executes a kernel over a grid of CTAs.

    Thread scheduling is {e run-to-barrier}: within a CTA every thread runs
    sequentially until its next [Bar] (or [Ret]); once all live threads have
    arrived, execution resumes past the barrier. This is faithful to
    [__syncthreads] for the well-structured kernels the code generator
    emits. CTAs execute independently: the workers of a persistent
    {!Domain_pool} (one at [jobs = 1]) claim them in chunks of
    consecutive indices off one shared counter.

    Execution is {e block-compiled}: at each launch, once per worker, the
    body is split into basic blocks (a block starts at pc 0, at every label
    target and after every [Br]/[Brz]/[Brnz]/[Bar]/[Ret]/[Trap]) and each
    block becomes an array of closures with its operands resolved:
    register/immediate shapes are specialised, parameter and launch-shape
    ([ntid], [nctaid]) registers the body never writes are folded to their
    launch values, and a global access
    whose base folds to a live buffer handle binds that buffer's backing
    array once (an invalid handle still faults only when its instruction
    executes). The register file is register-major: one array per
    register, indexed by thread. The interpreter counts block entries, one
    counter per block per worker; the {!Stats} counters and the per-pc
    profile are both those counts times each block's static contents. The
    instruction budget is charged per block, and per instruction once the
    remaining budget no longer covers a whole block, so exhaustion fires
    before exactly the instruction it would under per-instruction charging.

    {b Thread batching.} A launch of more than one thread per CTA whose
    kernel carries the gate's [Kir.stores_disjoint] fact, uses no atomics,
    reaches global memory only through launch-constant handles, stores
    through distinct handles and never loads a handle it stores, runs each
    CTA on the {e batched} schedule: the running threads at the lowest pc
    execute each block together, one loop over the batch per instruction
    (a batch of one runs the single-thread closures). Each barrier round
    starts with one pass over the CTA that releases the threads waiting at
    a barrier and puts every running thread in the pending group of its
    pc. From then on the schedule tracks where every running thread
    waits: the group at the lowest pc runs as the batch, a two-way branch
    on a register partitions the batch in the loop that writes the
    threads' pcs, the side bound for the higher target waits in the group
    at that pc, and a batch that reaches a group's pc joins it. The round
    ends when every thread has stopped at a barrier or returned. No other
    exit splits a batch: at a trap, a branch to an out-of-range label or
    an instruction naming a bad register, a batch's threads agree on the
    next pc or one of them raises. Every batch holds the running threads
    at the lowest pc, in an order nothing observes. A block entry adds
    the batch size to its count, so [Stats] and the profile are
    unchanged. This reorders the instructions of different threads
    between two barriers, which nothing can observe: registers are per
    thread, the gate certified shared memory race-free and global stores
    disjoint across threads, and no thread loads a buffer any thread
    stores. A batch that holds every live thread of its CTA (or a lone
    thread that is its CTA's last live one) goes on through a [Bar]
    without the release round: it would be released at once and the next
    round would start with exactly that batch at the next pc. A batched
    CTA logs the old word of every global store; if it faults, or meets a
    block its remaining budget slice does not cover, its stores are undone
    and it re-runs per-thread with a fresh slice, raising exactly the
    per-thread fault, after exactly its partial writes. Other launches run
    per-thread.

    {b Register file.} One register file per worker holds [reg_count]
    registers per thread: after -O3's register allocation a few dozen
    rather than the code generator's virtual count (Q21's fused compute
    kernel: 27 rather than ~1,500). A worker re-zeroes it between CTAs
    only for a kernel without the gate's store fact. That stays sound
    when allocation makes registers share numbers: the gate (on the raw
    kernel) rejects any read that may precede a write, -O3 keeps that
    property, and the allocator gives a register live at entry a number
    of its own, so every read of a shared number follows a write of the
    same value by the same thread in the same CTA.

    Determinism: given the same memory contents and parameters, a launch
    returns bit-identical results, stats and profiles at every [jobs].
    Registers and shared memory are CTA-private; the code generator's
    skeletons give every CTA a disjoint output slice and emit no global
    atomics; per-worker block counts are summed, which is
    order-independent. A global atomic's old value can depend on the
    order in which CTAs reach it, so a launch whose kernel contains a
    global [Atom] runs on one worker, in CTA index order. See DESIGN.md
    "Parallel simulation" and "Thread-batched interpretation". *)

exception Runtime_error of Fault.t
(** Raised on traps, out-of-bounds accesses, division by zero, invalid
    buffer handles or exceeding the instruction budget. This is a
    rebinding of {!Fault.Error}: matching either name catches the same
    exception, so recovery code can pattern-match on the typed payload
    regardless of which module raised it. *)

val run :
  ?max_instructions:int ->
  ?profile:int array ->
  ?jobs:int ->
  ?cancel:Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  Memory.t ->
  Kir.kernel ->
  params:int array ->
  grid:int ->
  cta:int ->
  Stats.t
(** [run mem k ~params ~grid ~cta] executes kernel [k] with [grid] CTAs of
    [cta] threads and returns the dynamic event counts. [params] length
    must equal [k.params]. [max_instructions] (default [2_000_000_000])
    bounds executed instructions to catch runaway loops; each CTA gets an
    even slice ([max_instructions / grid], rounded up) so detection fires
    under any CTA schedule. [profile], when given (length >= body length),
    receives each instruction's execution count, added in when the launch
    completes (the executor's launch spans name their three hottest pcs
    from it); a faulting launch leaves it untouched.
    [jobs] (default 1) is the number of worker domains executing CTAs;
    it is clamped to [grid], and is 1 for a kernel with a global [Atom].
    When a launch faults, the error of the lowest faulting CTA index is
    surfaced, at every [jobs]. [cancel] (default {!Cancel.none}) is polled at the
    per-CTA checkpoints on every worker; a fired token aborts the launch
    with its stored fault within one CTA. [trace] (default [Trace.none])
    adds wall-clock-only Worker-lane spans around each worker's CTA chunk
    when the tracer records events and has a wall clock, closed with the
    worker's [batched] CTA count, [mean_batch] (its threads per block
    execution on the batched schedule), [regs] (its register-file words,
    [reg_count * cta]), [barrier_passes] (barriers a whole-CTA batch
    went through without a release) and [rescans] (barrier rounds of its
    batched CTAs, each one pass over the CTA); the simulated timeline is
    untouched (the executor owns the launch span). *)

val with_launch_observer :
  (Memory.t -> Kir.kernel -> params:int array -> grid:int -> cta:int -> unit) ->
  (unit -> 'a) ->
  'a
(** [with_launch_observer f thunk] runs [thunk], calling [f] before every
    {!run} it makes, after the launch arguments are validated and before
    any instruction executes. Test support for differential checks: [f]
    can replay the launch on a copy of memory. Launches [f] makes itself
    are not observed. *)

val with_batch_observer :
  (pc:int -> int array -> int -> unit) -> (unit -> 'a) -> 'a
(** [with_batch_observer f thunk] runs [thunk], calling [f ~pc ts n]
    each time the batched schedule of a {!run} it makes enters the block
    at [pc] with the threads [ts.(0 .. n-1)] (a lone thread as an array
    of one). The array is the schedule's own, to be read during the call
    only. Calls come from the launch's workers, so [f] must be safe to
    call from several domains unless the launch runs at [jobs = 1]. Test
    support: pins which threads the schedule runs together. *)
