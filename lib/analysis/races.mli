(** Shared-memory race detection.

    Within each barrier-delimited phase (pairs of accesses not
    separated by a [Bar] on every path), flags write/write and
    read/write pairs that distinct threads may issue to the same
    shared-memory word. Addresses are compared symbolically in
    [scale * core + offset] form ({!Sym.norm}); accesses whose cores
    certify disjointness across threads — own-range slices, positions
    read from an exclusive-scan slot, merge position+rank sums, and
    own×bound products — are accepted, matching the communication
    patterns the emitters weave. Distinct static base addresses are
    assumed to name distinct arrays (in-bounds is the resource
    checker's and the trap guards' job); anything unrecognized falls
    back to a conservative may-race warning, and a pair that provably
    collides (equal constant or uniform addresses from more than one
    thread) is a definite-race error. Accesses guarded by the same
    [tid == u] singleton context are issued by one thread and cannot
    race with themselves. *)

val analyze : Cfg.t -> Sym.t -> Diag.t list

val check : Cfg.t -> Sym.t -> Diag.t list * bool
(** [analyze]'s diagnostics, and whether the global stores are
    {e disjoint}: no two threads of one CTA may store to the same global
    word between two barriers. Pairs of global stores are judged by the
    shared-memory rules above, with one extension: a uniform additive term
    peeled off the index leaves the class of the thread-distinct core
    beneath it, and two stores whose uniform terms are the same are judged
    on those cores. Stores through distinct bases (distinct parameters or
    constant handles) are assumed to name distinct buffers, which the
    interpreter checks per launch before it relies on the fact. The
    extension applies to this fact only, never to a diagnostic. *)
