(** Oracle evaluator: runs a plan on the host with {!Relation_lib.Rel_ops}.

    Used to validate both the unfused GPU skeletons and every fused kernel
    the weaver generates: for any plan and inputs, all three must agree.
    It is also the runtime's host fallback and Datalog's evaluator, and
    handy on its own as a plain in-memory query engine. Operators run on
    flat row-major arrays: predicates and expressions are staged once per
    operator ({!Pred.compile}), and every output is written once at its
    exact size. [test/reference_oracle.ml] keeps the list-level evaluator
    this replaced, and a differential suite holds the two to the same
    rows, order and exceptions. *)

val eval : Plan.t -> Relation_lib.Relation.t array -> Relation_lib.Relation.t array
(** [eval plan bases] returns one relation per plan node (indexed by node
    id). [bases] must have one relation per plan base, with matching
    schemas. Raises [Invalid_argument] on mismatches. *)

val eval_sinks : Plan.t -> Relation_lib.Relation.t array -> (int * Relation_lib.Relation.t) list
(** Only the sink nodes' results, as [(node id, relation)] pairs. *)

val eval_kind :
  Op.kind -> Relation_lib.Relation.t list -> Relation_lib.Relation.t
(** Evaluate a single operator on materialized inputs (used by the
    runtime's degenerate-skew fallback and by tests). *)

val eval_aggregate :
  group_by:int list ->
  aggs:Op.agg list ->
  Relation_lib.Relation.t ->
  Relation_lib.Relation.t
(** Host group-by aggregation (exposed for direct testing): output tuples
    are [group values ++ aggregate values], one per distinct group, in the
    order of a stable sort on the raw group words as signed ints
    ({!Relation_lib.Relation.group_perm}: an f32 group column sorts by its
    bits). Each aggregate folds the group's members in input order: an
    f32 SUM rounds through binary32 after every addition, AVG sums in
    double; a NaN member is kept over a NaN running sum. No groups, no
    rows: an empty input gives an empty output even with [group_by = []]. *)
