(** KIR: a small PTX-like intermediate representation for simulated kernels.

    Relational-algebra operator skeletons are compiled to KIR by the code
    generator; the {!Weaver} fuses at this level, the {!Interp} executes it
    and the optimizer rewrites it. Values are 64-bit integers; 32-bit floats
    travel bit-encoded in the low 32 bits (see {!Value} in the relation
    library).

    Register conventions: registers are virtual (no reuse by construction)
    until -O3 allocates them ([Weaver.Optimizer.allocate] renames them
    onto reused numbers and shrinks [reg_count]); [r0]..[r3] are preloaded
    with the thread id, CTA id, threads-per-CTA and CTA count, and the next
    [params] registers hold the kernel parameters, before and after
    allocation. Use {!Kir_builder} rather than constructing programs by
    hand. *)

type reg = int [@@deriving show, eq]

type operand = Reg of reg | Imm of int [@@deriving show, eq]

type space = Global | Shared [@@deriving show, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** traps on division by zero *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Min
  | Max
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmin
  | Fmax
[@@deriving show, eq]

type unop =
  | Not  (** logical: 0 -> 1, non-zero -> 0 *)
  | Neg
  | Fneg
  | I2f  (** integer to bit-encoded f32 *)
  | F2i  (** bit-encoded f32 to integer (truncation) *)
[@@deriving show, eq]

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Feq | Fne | Flt | Fle | Fgt | Fge
[@@deriving show, eq]

type atomop = Atom_add | Atom_min | Atom_max | Atom_exch
[@@deriving show, eq]

type label = int [@@deriving show, eq]

type instr =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Cmp of cmp * reg * operand * operand  (** dst gets 0 or 1 *)
  | Sel of reg * operand * operand * operand
      (** [Sel (d, c, a, b)]: [d := if c <> 0 then a else b] *)
  | Ld of { space : space; dst : reg; base : operand; idx : operand; width : int }
      (** load word [idx] of buffer [base] (global) or of the CTA's shared
          array (shared, [base] ignored); [width] is the accounted byte
          width (4 or 8) *)
  | St of { space : space; base : operand; idx : operand; src : operand; width : int }
  | Atom of {
      op : atomop;
      space : space;
      dst : reg;  (** receives the value previously stored *)
      base : operand;
      idx : operand;
      src : operand;
    }
  | Br of label
  | Brz of operand * label  (** branch when zero *)
  | Brnz of operand * label  (** branch when non-zero *)
  | Bar  (** CTA-wide barrier; all live threads must reach it *)
  | Ret
  | Trap of Fault.t * operand option
      (** abort the launch with a typed fault; the operand, when present,
          is the observed demand substituted into the fault's [needed]
          field at trap time (see {!Fault.set_needed}) *)
[@@deriving show, eq]

type kernel = {
  kname : string;
  params : int;  (** number of kernel parameters *)
  reg_count : int;
      (** registers, including specials and params: virtual ones from
          the code generator, allocated ones after -O3 *)
  regs_per_thread : int;
      (** hardware register estimate used for occupancy (set by codegen
          from {!Weaver.Resources}-style estimation, not the virtual count) *)
  shared_words : int;  (** shared-memory words per CTA *)
  shared_bytes : int;  (** accounted shared bytes per CTA (occupancy) *)
  body : instr array;
  labels : int array;  (** label id -> instruction index *)
  prov : int list array;
      (** per-instruction provenance: the sorted plan-operator ids each
          instruction was emitted for ([[]] = infrastructure such as
          preambles, tile bookkeeping or the trailing [Ret]). Parallel to
          [body]; optimizer passes preserve the alignment (DCE compacts,
          folding unions). May be shorter than [body] for hand-built
          kernels — read through {!prov_at}. *)
  stores_disjoint : bool;
      (** the kernel passed the static-analysis gate, which certified that
          no two threads of one CTA store to the same global word between
          two barriers. Set by the runtime after the gate, [false]
          everywhere else. A kernel that passed the gate reads no register
          before writing it and has no shared-memory race. The
          interpreter batches threads only in kernels that carry it. *)
}

val special_regs : int
(** Number of preloaded special registers (4: tid, ctaid, ntid, nctaid). *)

val reg_tid : reg
val reg_ctaid : reg
val reg_ntid : reg
val reg_nctaid : reg

val param_reg : int -> reg
(** Register holding kernel parameter [i]. *)

val is_float_binop : binop -> bool
val is_float_cmp : cmp -> bool

val instr_count : kernel -> int

val no_prov : int list array
(** The empty provenance array: every instruction reads as infrastructure
    through {!prov_at}. For hand-built kernel literals in tests. *)

val prov_at : kernel -> int -> int list
(** Provenance set of the instruction at [pc]; [[]] when untagged or out
    of range (tolerates provenance arrays shorter than the body). *)

val retag : int list -> kernel -> kernel
(** [retag ops k]: a copy of [k] whose every instruction is attributed to
    [ops] (sorted, deduplicated). Used for single-operator kernels emitted
    by skeletons that do not thread provenance through the builder. *)

val defined_reg : instr -> reg option
(** The register written by an instruction, if any. *)

val used_operands : instr -> operand list
(** Every operand read by an instruction. *)

val iter_used_regs : (reg -> unit) -> instr -> unit
(** [f r] for every register operand an instruction reads, in
    {!used_operands} order, without building the list. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_kernel : Format.formatter -> kernel -> unit
