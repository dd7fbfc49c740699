(** Host implementations of the relational algebra, on flat row-major
    arrays.

    These are the semantic ground truth: the reference query evaluator
    ([Qplan.Reference]) runs on them, and the GPU skeletons and fused
    kernels are tested against it. Each operator reads its inputs' data
    in place and writes its output once, at its exact size; a row
    function takes the input's data array and the word offset of one row.
    The simple, obviously-correct list-level algorithms they replaced
    live on in [test/reference_oracle.ml], the oracle's oracle, which
    these must equal row for row, in the same order, raising the same
    exceptions.

    Set operators follow the paper's key-based semantics (Table 1): keys
    are the first [key_arity] attributes, relations are treated as sets
    of keys, and the surviving tuple comes from the left input. All
    operators expect key-sorted inputs where the paper's skeletons do,
    but sort defensively, so they accept anything. *)

val select : (int array -> int -> bool) -> Relation.t -> Relation.t
(** [select pred r] keeps the rows at whose word offset [o] [pred data o]
    holds, in order; [pred] is called once per row, first row first. *)

val project : int list -> Relation.t -> Relation.t
(** Keep the attributes at the given indices, in that order. *)

val map :
  Schema.t -> (int array -> int -> int) array -> Relation.t -> Relation.t
(** Arithmetic operator: attribute [j] of output row [i] is [fs.(j) data
    o], [o] the word offset of input row [i]; rows in order, attributes
    left to right. Raises [Invalid_argument] unless [fs] has one function
    per output attribute. *)

val join : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Sort-merge natural join on the key prefix: output tuples are
    [key ++ left values ++ right values]; schemas must agree on the key
    prefix dtypes. Output is key-sorted. *)

val product : Relation.t -> Relation.t -> Relation.t
(** Cross product, left-major order. *)

val semijoin : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Left tuples whose key occurs in the right input (EXISTS). Unlike
    {!intersect}, duplicates are kept and only the key prefix dtypes must
    agree — the right side is probed, never emitted. Preserves order. *)

val antijoin : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Left tuples whose key does not occur in the right input (NOT
    EXISTS). Duplicates kept, order preserved. *)

val union : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Tuples whose key appears in at least one input; on key collisions the
    left tuple survives, and duplicate keys collapse. Key-sorted output. *)

val intersect : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Left tuples whose key appears in the right input (deduplicated by
    key). Key-sorted output. *)

val difference : key_arity:int -> Relation.t -> Relation.t -> Relation.t
(** Left tuples whose key does not appear in the right input
    (deduplicated by key). Key-sorted output. *)

val sort : key_arity:int -> Relation.t -> Relation.t
(** Stable key-prefix sort (alias of {!Relation.sort}). *)

val unique : key_arity:int -> Relation.t -> Relation.t
(** Drop tuples whose key equals a previous tuple's key, after sorting. *)
