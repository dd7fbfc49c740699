(** SORT as a modelled library primitive.

    The paper treats SORT as the canonical kernel-dependence operator — it
    is never fused, only timed (it dominates TPC-H Q1 at ~71% of
    execution). We therefore model it instead of interpreting it: the
    result is computed exactly on the host (the data still lives in a
    device buffer), while the charged events follow a standard GPU merge
    sort — one CTA-local sort pass plus ceil(log2(#tiles)) merge passes,
    each streaming the whole relation through global memory.

    A real, interpreted KIR sort exists as a demonstrator in {!Bitonic}
    (CTA-local); see DESIGN.md for the substitution rationale. *)

open Gpu_sim

val tile_rows : int
(** Rows per CTA-local sort tile in the cost model (1024). *)

val pass_count : rows:int -> int
(** Total modelled kernel launches: 1 local pass + merge passes. *)

val synthetic_stats : rows:int -> schema:Relation_lib.Schema.t -> Stats.t list
(** One {!Stats} record per modelled kernel launch. *)

val sort_host :
  Memory.t ->
  src:Memory.buffer ->
  dst:Memory.buffer ->
  rows:int ->
  schema:Relation_lib.Schema.t ->
  key_arity:int ->
  unit
(** Stable key-prefix sort of the relation stored in [src] into [dst]
    ({!Relation_lib.Relation.sort_words}); the two buffers must differ. *)
