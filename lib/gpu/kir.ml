type reg = int [@@deriving show, eq]

type operand = Reg of reg | Imm of int [@@deriving show, eq]

type space = Global | Shared [@@deriving show, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
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

type unop = Not | Neg | Fneg | I2f | F2i [@@deriving show, eq]

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Feq | Fne | Flt | Fle | Fgt | Fge
[@@deriving show, eq]

type atomop = Atom_add | Atom_min | Atom_max | Atom_exch [@@deriving show, eq]

type label = int [@@deriving show, eq]

type instr =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Cmp of cmp * reg * operand * operand
  | Sel of reg * operand * operand * operand
  | Ld of { space : space; dst : reg; base : operand; idx : operand; width : int }
  | St of { space : space; base : operand; idx : operand; src : operand; width : int }
  | Atom of {
      op : atomop;
      space : space;
      dst : reg;
      base : operand;
      idx : operand;
      src : operand;
    }
  | Br of label
  | Brz of operand * label
  | Brnz of operand * label
  | Bar
  | Ret
  | Trap of Fault.t * operand option
      (* the operand, when present, is the observed demand that exceeded
         the capacity; the interpreter substitutes its value into the
         fault's [needed] field at trap time *)
[@@deriving show, eq]

type kernel = {
  kname : string;
  params : int;
  reg_count : int;
  regs_per_thread : int;
  shared_words : int;
  shared_bytes : int;
  body : instr array;
  labels : int array;
  prov : int list array;
  stores_disjoint : bool;
}

let special_regs = 4
let reg_tid = 0
let reg_ctaid = 1
let reg_ntid = 2
let reg_nctaid = 3
let param_reg i = special_regs + i

let is_float_binop = function
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> true
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max ->
      false

let is_float_cmp = function
  | Feq | Fne | Flt | Fle | Fgt | Fge -> true
  | Eq | Ne | Lt | Le | Gt | Ge -> false

let instr_count k = Array.length k.body

let no_prov = [||]

let prov_at k pc =
  if pc >= 0 && pc < Array.length k.prov then k.prov.(pc) else []

let retag ops k =
  let ops = List.sort_uniq compare ops in
  { k with prov = Array.make (Array.length k.body) ops }

let defined_reg = function
  | Mov (d, _)
  | Bin (_, d, _, _)
  | Un (_, d, _)
  | Cmp (_, d, _, _)
  | Sel (d, _, _, _)
  | Ld { dst = d; _ }
  | Atom { dst = d; _ } ->
      Some d
  | St _ | Br _ | Brz _ | Brnz _ | Bar | Ret | Trap _ -> None

let used_operands = function
  | Mov (_, a) | Un (_, _, a) -> [ a ]
  | Bin (_, _, a, b) | Cmp (_, _, a, b) -> [ a; b ]
  | Sel (_, c, a, b) -> [ c; a; b ]
  | Ld { base; idx; _ } -> [ base; idx ]
  | St { base; idx; src; _ } -> [ base; idx; src ]
  | Atom { base; idx; src; _ } -> [ base; idx; src ]
  | Br _ | Bar | Ret | Trap (_, None) -> []
  | Trap (_, Some n) -> [ n ]
  | Brz (c, _) | Brnz (c, _) -> [ c ]

let use_reg f = function Reg r -> f r | Imm _ -> ()

let iter_used_regs f = function
  | Mov (_, a) | Un (_, _, a) | Trap (_, Some a) | Brz (a, _) | Brnz (a, _) ->
      use_reg f a
  | Bin (_, _, a, b) | Cmp (_, _, a, b) | Ld { base = a; idx = b; _ } ->
      use_reg f a;
      use_reg f b
  | Sel (_, a, b, c)
  | St { base = a; idx = b; src = c; _ }
  | Atom { base = a; idx = b; src = c; _ } ->
      use_reg f a;
      use_reg f b;
      use_reg f c
  | Br _ | Bar | Ret | Trap (_, None) -> ()

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm n -> Format.fprintf ppf "%d" n

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Min -> "min"
  | Max -> "max"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fmin -> "fmin"
  | Fmax -> "fmax"

let unop_name = function
  | Not -> "not"
  | Neg -> "neg"
  | Fneg -> "fneg"
  | I2f -> "i2f"
  | F2i -> "f2i"

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Feq -> "feq"
  | Fne -> "fne"
  | Flt -> "flt"
  | Fle -> "fle"
  | Fgt -> "fgt"
  | Fge -> "fge"

let atomop_name = function
  | Atom_add -> "add"
  | Atom_min -> "min"
  | Atom_max -> "max"
  | Atom_exch -> "exch"

let space_name = function Global -> "global" | Shared -> "shared"

let pp_instr ppf =
  let p fmt = Format.fprintf ppf fmt in
  let o = pp_operand in
  function
  | Mov (d, a) -> p "mov r%d, %a" d o a
  | Bin (op, d, a, b) -> p "%s r%d, %a, %a" (binop_name op) d o a o b
  | Un (op, d, a) -> p "%s r%d, %a" (unop_name op) d o a
  | Cmp (c, d, a, b) -> p "set.%s r%d, %a, %a" (cmp_name c) d o a o b
  | Sel (d, c, a, b) -> p "sel r%d, %a, %a, %a" d o c o a o b
  | Ld { space; dst; base; idx; width } ->
      p "ld.%s.b%d r%d, [%a + %a]" (space_name space) (width * 8) dst o base o
        idx
  | St { space; base; idx; src; width } ->
      p "st.%s.b%d [%a + %a], %a" (space_name space) (width * 8) o base o idx o
        src
  | Atom { op; space; dst; base; idx; src } ->
      p "atom.%s.%s r%d, [%a + %a], %a" (space_name space) (atomop_name op) dst
        o base o idx o src
  | Br l -> p "bra L%d" l
  | Brz (c, l) -> p "brz %a, L%d" o c l
  | Brnz (c, l) -> p "brnz %a, L%d" o c l
  | Bar -> p "bar.sync"
  | Ret -> p "ret"
  | Trap (f, n) -> (
      p "trap \"%s\"" (Fault.render f);
      match n with Some x -> p " [needed=%a]" o x | None -> ())

let pp_kernel ppf k =
  Format.fprintf ppf
    "@[<v>.kernel %s (params=%d, regs=%d, shared=%dB/%dw)@ " k.kname k.params
    k.reg_count k.shared_bytes k.shared_words;
  (* invert the label table so listing shows jump targets *)
  let label_at = Hashtbl.create 16 in
  Array.iteri
    (fun l idx ->
      let prev = try Hashtbl.find label_at idx with Not_found -> [] in
      Hashtbl.replace label_at idx (l :: prev))
    k.labels;
  Array.iteri
    (fun i ins ->
      (match Hashtbl.find_opt label_at i with
      | Some ls ->
          List.iter (fun l -> Format.fprintf ppf "L%d:@ " l) (List.rev ls)
      | None -> ());
      Format.fprintf ppf "  %a@ " pp_instr ins)
    k.body;
  Format.fprintf ppf "@]"
