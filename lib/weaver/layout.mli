(** Shared-memory layout and resource estimation (§4.3.3).

    Computes, for a fusion group, exactly where every tile and every
    segment's scratch (compaction flags, match counts, totals) lives in
    shared memory — the code generator consumes these offsets, so the
    estimate and the generated kernel agree by construction.

    Two sizing rules mirror the paper:
    - tiles live for the whole kernel (they carry data between stages);
    - scratch is per-segment and segments run back to back, so scratch
      regions {e overlay} each other in one arena sized by the hungriest
      segment — the analogue of §4.3.3's register reuse across stages.

    The driving tile capacity [cap] starts at the configured target and
    halves until the group fits the per-CTA shared budget; if even
    [min_cap] does not fit, the group is infeasible and Algorithm 2 will
    split it. Register usage is estimated from a per-operator table
    (calibrated against Table 3) plus a small per-extra-operator charge. *)

type seg_scratch =
  | S_none
  | S_pipe of { flags : int; scratch : Ra_lib.Tile.t; total : int }
  | S_counts of { counts : int; curs : int; total : int }
  | S_union of { counts_l : int; counts_r : int; total_l : int; total_r : int }

type t = {
  cap : int;  (** driving rows per CTA actually chosen *)
  input_caps : int array;
  tiles : Ra_lib.Tile.t array;  (** persistent tiles with final offsets *)
  tile_caps : int array;
  seg_scratch : seg_scratch array;  (** parallel to [Fusion.segments] *)
  out_caps : int array;  (** per output slot: staging rows per CTA *)
  shared_words : int;
  shared_bytes : int;
  regs_per_thread : int;
}

val op_regs : Qplan.Op.kind -> int
(** Per-operator register estimate (the "PTX registers" of Table 3). *)

val compute :
  ?fixed_cap:int ->
  ?seg_expansion:(int -> int) ->
  Config.t ->
  Qplan.Plan.t ->
  Fusion.t ->
  t
(** Raises {!Fusion.Infeasible} when no capacity fits the device.
    [fixed_cap] disables the capacity search (capacity-overflow retries
    must not let a smaller capacity cancel the scaled tile factors);
    [seg_expansion] overrides the join-output expansion per segment
    index, so a retry grows only the segment that overflowed. *)

val estimate : Config.t -> Qplan.Plan.t -> int list -> Qplan.Selection.estimate
(** Algorithm 2's callback: builds the group IR and lays it out; an
    infeasible group reports an over-budget estimate so selection splits
    it. *)
