(** Bit-set facts and a worklist solver shared by every dataflow pass. *)

module Bits : sig
  type t
  (** A fixed-length set of bit positions, packed into machine words. *)

  val create : int -> t
  (** All-zero set over [n] bit positions. *)

  val length : t -> int
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val get : t -> int -> bool
  val copy : t -> t
  val equal : t -> t -> bool

  val fill : t -> unit
  (** Set every position. *)

  val union_into : dst:t -> t -> bool
  (** [dst <- dst ∪ src]; returns [true] if [dst] changed. *)

  val inter_into : dst:t -> t -> bool
  (** [dst <- dst ∩ src]; returns [true] if [dst] changed. *)

  val iter : (int -> unit) -> t -> unit
  (** Set positions in ascending order. *)

  val count : t -> int

  val count_inter : t -> t -> int
  (** [count_inter a b] is the size of [a ∩ b] (same length). *)
end

val solve :
  ?start:Bits.t array * Bits.t array ->
  nblocks:int ->
  direction:[ `Forward | `Backward ] ->
  succs:(int -> int list) ->
  preds:(int -> int list) ->
  boundary:Bits.t ->
  transfer:(int -> Bits.t -> Bits.t) ->
  unit ->
  Bits.t array * Bits.t array
(** Union-join least fixpoint of monotone [transfer]s. Returns
    [(in_, out)] per block, where for [`Forward] [in_.(b) = ∪ out.(pred)]
    (block 0 additionally joins [boundary]) and
    [out.(b) = transfer b in_.(b)]; [`Backward] mirrors this over
    successors, with exit blocks (no successors) joining [boundary].

    Blocks are visited in rounds: reverse postorder from block 0 for
    [`Forward], postorder for [`Backward], then the blocks unreachable
    from block 0 in index order. A round skips blocks none of whose
    inputs changed since their last visit; solving ends after a round
    that changes nothing.

    [start] (default all-empty) is the state to iterate from; the
    solver takes ownership of its arrays. It must lie below the least
    fixpoint — for instance the fixpoint of an earlier solve whose
    transfers were pointwise smaller. *)
