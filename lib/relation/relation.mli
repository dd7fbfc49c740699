(** Relations: densely packed arrays of fixed-width tuples.

    This is the storage format of Diamos et al.'s skeletons the paper
    builds on (Fig. 6): a relation is a dense array of tuples, kept sorted
    by a key prefix under strict weak ordering so partitioning and lookup
    can use binary search. Attribute [j] of tuple [i] lives at word
    [i * arity + j]. *)

type t

val create : Schema.t -> int array list -> t
(** Build from tuples (each of length [Schema.arity]); tuple contents are
    copied. Raises [Invalid_argument] on arity mismatch. *)

val of_array : Schema.t -> int array -> t
(** Adopt a flat array whose length must be a multiple of the arity. *)

val empty : Schema.t -> t

val schema : t -> Schema.t
val arity : t -> int
val count : t -> int
(** Number of tuples. *)

val bytes : t -> int
(** Accounted size: tuples x tuple_bytes. *)

val data : t -> int array
(** The backing flat array (not a copy; treat as read-only). *)

val get : t -> int -> int array
(** Copy of tuple [i]. *)

val attr : t -> int -> int -> Value.t
(** [attr r i j] is attribute [j] of tuple [i]. *)

val to_list : t -> int array list
val iter : (int array -> unit) -> t -> unit
val fold : ('a -> int array -> 'a) -> 'a -> t -> 'a

(** Every function taking [~key_arity] raises [Invalid_argument] naming
    itself unless [0 <= key_arity <= arity]. A [key_arity] of [0] is the
    empty key: every row ties, so sorting is the identity. *)

val compare_key : Schema.t -> key_arity:int -> int array -> int array -> int
(** Lexicographic comparison of the first [key_arity] attributes using each
    attribute's dtype ordering. *)

val compare_tuple : Schema.t -> int array -> int array -> int
(** Full-tuple lexicographic comparison. *)

val sort : key_arity:int -> t -> t
(** Stable sort by the key prefix (ties keep input order), returning a new
    relation: {!sort_words} into a fresh array. *)

val sort_words :
  Schema.t ->
  key_arity:int ->
  rows:int ->
  src:int array ->
  dst:int array ->
  unit
(** [sort_words schema ~key_arity ~rows ~src ~dst] writes the first [rows]
    rows of the flat row-major array [src], stably sorted by their key
    prefix, into the first [rows] rows of [dst]; neither array is touched
    past them. The order is {!compare_key}'s: ints signed over the full
    native int, floats as the low 32 bits read as binary32 under
    [Float.compare] (all NaNs equal and below [-inf], [-0.0 = +0.0]).

    The algorithm is a least-significant-digit radix sort of the row
    indices, last key column first. Each column's keys are extracted once
    and mapped to ints whose signed order is the column's order (f32 bits
    to sign-magnitude, NaNs to one value below [-inf]); a column whose
    keys are all equal is skipped. The keys, less their minimum, are
    counting-sorted one digit at a time. The digits are at most
    [min 16 (bit length of rows)] bits wide, balanced across the passes
    the key range needs. Then each row is gathered once from [src] into
    [dst]. Raises [Invalid_argument] if either array is shorter than
    [rows] rows, or if they are the same array and [rows > 0]. *)

val group_perm : t -> cols:int list -> int array
(** The row indices in the order of a stable sort by the words of [cols]
    (repeats allowed), compared raw as signed ints, column by column:
    the order [Stdlib.compare] gives the arrays of those words, so an f32
    column sorts by its bits, not by value. Rows with equal words keep
    input order. [cols = []] is the identity. Same radix sort as
    {!sort_words}; raises [Invalid_argument] on a column out of range. *)

val is_sorted : key_arity:int -> t -> bool
(** Whether {!sort} would leave the relation's data unchanged: adjacent
    rows compared in place under {!sort}'s per-column order, stopping at
    the first descent. *)

val is_sorted_words :
  Schema.t -> key_arity:int -> rows:int -> int array -> bool
(** {!is_sorted} over the first [rows] rows of a flat row-major array with
    the given schema (e.g. a device buffer, whose padding past [rows] is
    ignored), without copying it. *)

val equal_multiset : t -> t -> bool
(** Same tuples with the same multiplicities, ignoring order. Schemas must
    be {!Schema.compatible}. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Like {!equal_multiset} but float attributes compare within a relative
    tolerance [eps] (default [1e-4]) — needed because f32 accumulation
    order differs between host and device schedules. *)

val pp : Format.formatter -> t -> unit
(** Print up to 20 tuples (for debugging and examples). *)
