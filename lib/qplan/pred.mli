(** Scalar expressions and predicates over tuple attributes.

    These appear in SELECT conditions and in arithmetic (map) operators such
    as TPC-H Q1's [price * (1 - discount) * (1 + tax)]. Expressions are
    typed against a schema: integer and float arithmetic are distinguished,
    and integers promote to f32 when mixed. The same AST is staged into
    host row functions ({!compile}, for the reference evaluator) and
    compiled to KIR (code generator); a differential test holds
    [Ra_lib.Expr_emit]'s kernels to {!eval_expr}'s bits. *)

type arith = Add | Sub | Mul | Div [@@deriving show, eq]

type cmp = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show, eq]

type expr =
  | Attr of int  (** input attribute by position *)
  | Int of int
  | F32 of float
  | Bin of arith * expr * expr
[@@deriving show, eq]

type t =
  | Cmp of cmp * expr * expr
  | And of t * t
  | Or of t * t
  | Not of t
  | True
[@@deriving show, eq]

exception Type_error of string

val type_of_expr : Relation_lib.Schema.t -> expr -> Relation_lib.Dtype.t
(** Resulting dtype ([I32], [I64], [F32] or [Date]); raises {!Type_error}
    on out-of-range attributes or arithmetic on booleans. Mixed int/float
    arithmetic promotes to [F32]. *)

val check : Relation_lib.Schema.t -> t -> unit
(** Typecheck a predicate; raises {!Type_error}. Comparisons require both
    sides to be both-float or both-integer after promotion. *)

val compile_expr :
  Relation_lib.Schema.t -> expr -> int array -> int -> Relation_lib.Value.t
(** [compile_expr schema e] resolves every node's type once and returns a
    row function: [f data o] is [e]'s value on the row at word offset [o]
    of the flat row-major [data], encoded per {!type_of_expr}. Float
    arithmetic rounds through binary32 after every operation, and ints
    widen through binary32, as the device does. Compiling never raises: a
    node that does not type makes a function raising its {!Type_error}
    at every row that reaches it, an attribute outside the schema one
    raising [Invalid_argument "index out of bounds"]; integer division
    by zero raises {!Type_error} at the row that divides. *)

val compile : Relation_lib.Schema.t -> t -> int array -> int -> bool
(** {!compile_expr} for predicates: [And] and [Or] short-circuit, so a
    side that is never reached never raises. Comparisons are float ones
    (under [Float.compare]) when either side is float. *)

val eval_expr : Relation_lib.Schema.t -> int array -> expr -> Relation_lib.Value.t
(** [eval_expr schema tup e] is [compile_expr schema e tup 0]. *)

val eval : Relation_lib.Schema.t -> int array -> t -> bool
(** [eval schema tup p] is [compile schema p tup 0]. *)

val attrs_used : t -> int list
(** Sorted, deduplicated attribute indices read by a predicate. *)

val expr_attrs : expr -> int list

(** {2 Convenience constructors} *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val attr_between : int -> int -> int -> t
(** [attr_between i lo hi] is [lo <= attr i && attr i <= hi]. *)
