open Gpu_sim

type level = O0 | O3 [@@deriving show, eq]

let static_instructions (k : Kir.kernel) = Array.length k.body

(* --- block-local value numbering ----------------------------------------- *)

(* A resolved operand: an immediate, or a register at a specific local
   version.  Versions make value numbering sound in the presence of the
   builder's mutable loop registers. *)
type rop = RImm of int | RRegv of int * int

let f32 v = Int32.float_of_bits (Int32.of_int v)
let of_f32 f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let fold_bin (op : Kir.binop) a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Shl -> Some (a lsl b)
  | Shr -> Some (a asr b)
  | Min -> Some (min a b)
  | Max -> Some (max a b)
  | Fadd -> Some (of_f32 (f32 a +. f32 b))
  | Fsub -> Some (of_f32 (f32 a -. f32 b))
  | Fmul -> Some (of_f32 (f32 a *. f32 b))
  | Fdiv -> Some (of_f32 (f32 a /. f32 b))
  | Fmin -> Some (of_f32 (Float.min (f32 a) (f32 b)))
  | Fmax -> Some (of_f32 (Float.max (f32 a) (f32 b)))

let fold_un (op : Kir.unop) a =
  match op with
  | Not -> Some (if a = 0 then 1 else 0)
  | Neg -> Some (-a)
  | Fneg -> Some (of_f32 (-.f32 a))
  | I2f -> Some (of_f32 (float_of_int a))
  | F2i -> Some (int_of_float (f32 a))

let fold_cmp (c : Kir.cmp) a b =
  let r =
    match c with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Feq -> f32 a = f32 b
    | Fne -> f32 a <> f32 b
    | Flt -> f32 a < f32 b
    | Fle -> f32 a <= f32 b
    | Fgt -> f32 a > f32 b
    | Fge -> f32 a >= f32 b
  in
  if r then 1 else 0

type expr_key =
  | KBin of Kir.binop * rop * rop
  | KUn of Kir.unop * rop
  | KCmp of Kir.cmp * rop * rop
  | KSel of rop * rop * rop

let commutative : Kir.binop -> bool = function
  | Add | Mul | And | Or | Xor | Min | Max | Fadd | Fmul | Fmin | Fmax -> true
  | Sub | Div | Rem | Shl | Shr | Fsub | Fdiv -> false

(* algebraic identities: the simplified operand the instruction reduces
   to, if any (x+0, x*1, x*0, x-0, x<<0, x|0, ...) *)
let identity (op : Kir.binop) ra rb =
  let imm v = function RImm x -> x = v | RRegv _ -> false in
  match op with
  | Add | Or | Xor -> if imm 0 rb then Some ra else if imm 0 ra then Some rb else None
  | Sub | Shl | Shr -> if imm 0 rb then Some ra else None
  | Mul ->
      if imm 1 rb then Some ra
      else if imm 1 ra then Some rb
      else if imm 0 rb || imm 0 ra then Some (RImm 0)
      else None
  | Div -> if imm 1 rb then Some ra else None
  | And -> if imm 0 rb || imm 0 ra then Some (RImm 0) else None
  | Rem | Min | Max | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> None

(* merge provenance sets (kept sorted and deduplicated) *)
let prov_union a b =
  if a == b || b = [] then a else if a = [] then b else List.sort_uniq compare (a @ b)

let value_numbering (k : Kir.kernel) =
  let n = Array.length k.body in
  let body = Array.copy k.body in
  (* Provenance: indices are preserved (rewrites are in place), so the
     array carries through — but when folding replaces an instruction with
     a Mov reusing an earlier definition, the surviving computation now
     serves both operators: union the reuser's provenance into the
     definition's. *)
  let prov = Array.copy k.prov in
  let prov_at i = if i < Array.length prov then prov.(i) else [] in
  (* Value knowledge resets only at labels: jumps can only land on labels,
     so facts accumulated since the last label hold on every path that
     reaches the current instruction (the fallthrough of a conditional
     branch is dominated by it).  This lets common subexpressions survive
     into if-bodies — where the compact/emit phases do their work. *)
  let boundary = Array.make (n + 1) false in
  boundary.(0) <- true;
  Array.iter (fun t -> if t >= 0 && t <= n then boundary.(t) <- true) k.labels;
  let version = Array.make (max k.reg_count 1) 0 in
  (* reg -> the instruction defining its current version, -1 for none:
     a definition is only ever reused at its current version *)
  let def_at = Array.make (max k.reg_count 1) (-1) in
  (* copy bindings: reg -> rop, valid only while the reg's version and the
     source's version are unchanged *)
  let copies : (int, int * rop) Hashtbl.t = Hashtbl.create 64 in
  let exprs : (expr_key, rop) Hashtbl.t = Hashtbl.create 64 in
  let loads : (Kir.space * rop * rop, int * int) Hashtbl.t = Hashtbl.create 64 in
  let rop_valid = function
    | RImm _ -> true
    | RRegv (r, v) -> version.(r) = v
  in
  let reset_block () =
    Hashtbl.reset copies;
    Hashtbl.reset exprs;
    Hashtbl.reset loads
  in
  let kill_loads space =
    Hashtbl.filter_map_inplace
      (fun (sp, _, _) v -> if sp = space then None else Some v)
      loads
  in
  let resolve (o : Kir.operand) : rop =
    match o with
    | Kir.Imm v -> RImm v
    | Kir.Reg r -> (
        match Hashtbl.find_opt copies r with
        | Some (v, src) when version.(r) = v && rop_valid src -> src
        | _ -> RRegv (r, version.(r)))
  in
  let operand_of = function
    | RImm v -> Kir.Imm v
    | RRegv (r, _) -> Kir.Reg r
  in
  let cur = ref 0 in
  let define r =
    version.(r) <- version.(r) + 1;
    def_at.(r) <- !cur
  in
  (* the definition at [src] is reused by instruction [i]: fold i's
     operator set into the definition's *)
  let share i src =
    match src with
    | RImm _ -> ()
    | RRegv (r, _) ->
        let j = def_at.(r) in
        if j >= 0 && j < Array.length prov then
          prov.(j) <- prov_union prov.(j) (prov_at i)
  in
  (* [d := src], a copy of a value known at [i] *)
  let copy i d src =
    body.(i) <- Kir.Mov (d, operand_of src);
    define d;
    Hashtbl.replace copies d (version.(d), src)
  in
  (* [d := key] at [i]: a copy of a still-valid earlier value of [key], or
     [ins] defining a new one *)
  let number i d key ins =
    match Hashtbl.find_opt exprs key with
    | Some src when rop_valid src ->
        share i src;
        copy i d src
    | _ ->
        body.(i) <- ins;
        define d;
        Hashtbl.replace exprs key (RRegv (d, version.(d)))
  in
  for i = 0 to n - 1 do
    cur := i;
    if boundary.(i) then reset_block ();
    (match body.(i) with
    | Kir.Mov (d, a) -> copy i d (resolve a)
    | Kir.Bin (op, d, a, b) -> (
        let ra = resolve a and rb = resolve b in
        let ra, rb =
          (* canonicalize commutative operands so x+y and y+x unify *)
          if commutative op then
            match (ra, rb) with
            | RImm _, RRegv _ -> (rb, ra)
            | RRegv (r1, v1), RRegv (r2, v2) when (r2, v2) < (r1, v1) ->
                (rb, ra)
            | _ -> (ra, rb)
          else (ra, rb)
        in
        match (ra, rb) with
        | RImm x, RImm y when fold_bin op x y <> None ->
            copy i d (RImm (Option.get (fold_bin op x y)))
        | _ when identity op ra rb <> None ->
            copy i d (Option.get (identity op ra rb))
        | _ ->
            number i d (KBin (op, ra, rb))
              (Kir.Bin (op, d, operand_of ra, operand_of rb)))
    | Kir.Un (op, d, a) -> (
        let ra = resolve a in
        match ra with
        | RImm x when fold_un op x <> None ->
            copy i d (RImm (Option.get (fold_un op x)))
        | _ -> number i d (KUn (op, ra)) (Kir.Un (op, d, operand_of ra)))
    | Kir.Cmp (c, d, a, b) -> (
        let ra = resolve a and rb = resolve b in
        match (ra, rb) with
        | RImm x, RImm y -> copy i d (RImm (fold_cmp c x y))
        | _ ->
            number i d (KCmp (c, ra, rb))
              (Kir.Cmp (c, d, operand_of ra, operand_of rb)))
    | Kir.Sel (d, c, a, b) -> (
        let rc = resolve c and ra = resolve a and rb = resolve b in
        match rc with
        | RImm v -> copy i d (if v <> 0 then ra else rb)
        | _ ->
            number i d (KSel (rc, ra, rb))
              (Kir.Sel (d, operand_of rc, operand_of ra, operand_of rb)))
    | Kir.Ld { space; dst; base; idx; width } -> (
        let rb = resolve base and ri = resolve idx in
        match Hashtbl.find_opt loads (space, rb, ri) with
        | Some (r, v) when version.(r) = v ->
            share i (RRegv (r, v));
            body.(i) <- Kir.Mov (dst, Kir.Reg r);
            define dst;
            Hashtbl.replace copies dst (version.(dst), RRegv (r, version.(r)))
        | _ ->
            body.(i) <-
              Kir.Ld
                { space; dst; base = operand_of rb; idx = operand_of ri; width };
            define dst;
            Hashtbl.replace loads (space, rb, ri) (dst, version.(dst)))
    | Kir.St { space; base; idx; src; width } ->
        let rb = resolve base and ri = resolve idx and rs = resolve src in
        body.(i) <-
          Kir.St
            {
              space;
              base = operand_of rb;
              idx = operand_of ri;
              src = operand_of rs;
              width;
            };
        kill_loads space;
        (* the stored value is now loadable from that address *)
        (match rs with
        | RRegv (r, v) when version.(r) = v ->
            Hashtbl.replace loads (space, rb, ri) (r, v)
        | _ -> ())
    | Kir.Atom { op; space; dst; base; idx; src } ->
        let rb = resolve base and ri = resolve idx and rs = resolve src in
        body.(i) <-
          Kir.Atom
            {
              op;
              space;
              dst;
              base = operand_of rb;
              idx = operand_of ri;
              src = operand_of rs;
            };
        define dst;
        kill_loads space
    | Kir.Brz (c, l) ->
        let rc = resolve c in
        body.(i) <-
          (match rc with
          | RImm 0 -> Kir.Br l
          | _ -> Kir.Brz (operand_of rc, l))
    | Kir.Brnz (c, l) ->
        let rc = resolve c in
        body.(i) <-
          (match rc with
          | RImm v when v <> 0 -> Kir.Br l
          | _ -> Kir.Brnz (operand_of rc, l))
    | Kir.Bar ->
        (* other threads' shared/global writes become visible *)
        kill_loads Kir.Shared;
        kill_loads Kir.Global
    | Kir.Br _ | Kir.Ret | Kir.Trap _ -> ())
  done;
  { k with body; prov }

(* --- global dead code elimination ---------------------------------------- *)

let pure_and_removable (ins : Kir.instr) =
  match ins with
  | Kir.Mov _ | Kir.Un _ | Kir.Cmp _ | Kir.Sel _ | Kir.Ld _ -> true
  | Kir.Bin (op, _, _, b) -> (
      match op with
      | Kir.Div | Kir.Rem -> ( match b with Kir.Imm v -> v <> 0 | _ -> false)
      | _ -> true)
  | Kir.St _ | Kir.Atom _ | Kir.Br _ | Kir.Brz _ | Kir.Brnz _ | Kir.Bar
  | Kir.Ret | Kir.Trap _ ->
      false

let dce (k : Kir.kernel) =
  let n = Array.length k.body in
  let used = Array.make (max k.reg_count 1) false in
  Array.iter
    (fun ins ->
      List.iter
        (function Kir.Reg r -> used.(r) <- true | Kir.Imm _ -> ())
        (Kir.used_operands ins))
    k.body;
  let keep = Array.make n true in
  let removed = ref 0 in
  Array.iteri
    (fun i ins ->
      match Kir.defined_reg ins with
      | Some d when (not used.(d)) && pure_and_removable ins ->
          keep.(i) <- false;
          incr removed
      | _ -> ())
    k.body;
  (* unreachable-code elimination: folding a constant branch strands the
     untaken arm, including its terminating branch; drop everything the
     entry can no longer reach *)
  let reachable = Array.make (max n 1) false in
  let rec visit i =
    if i < n && not reachable.(i) then begin
      reachable.(i) <- true;
      match k.body.(i) with
      | Kir.Br l -> visit k.labels.(l)
      | Kir.Brz (_, l) | Kir.Brnz (_, l) ->
          visit k.labels.(l);
          visit (i + 1)
      | Kir.Ret | Kir.Trap _ -> ()
      | _ -> visit (i + 1)
    end
  in
  if n > 0 then visit 0;
  for i = 0 to n - 1 do
    if keep.(i) && not reachable.(i) then begin
      keep.(i) <- false;
      incr removed
    end
  done;
  if !removed = 0 then (k, false)
  else begin
    (* compact the body and remap label targets *)
    let new_index = Array.make (n + 1) 0 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      new_index.(i) <- !acc;
      if keep.(i) then incr acc
    done;
    new_index.(n) <- !acc;
    let body = Array.make !acc Kir.Ret in
    (* provenance compacts under the same keep mask: a dropped
       instruction's operator set drops with it *)
    let prov = Array.make !acc [] in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        body.(!j) <- k.body.(i);
        prov.(!j) <- (if i < Array.length k.prov then k.prov.(i) else []);
        incr j
      end
    done;
    let labels = Array.map (fun t -> new_index.(t)) k.labels in
    ({ k with body; labels; prov }, true)
  end

(* --- register allocation --------------------------------------------------- *)

let rename f (ins : Kir.instr) : Kir.instr =
  let o = function Kir.Reg r -> Kir.Reg (f r) | Kir.Imm _ as i -> i in
  match ins with
  | Mov (d, a) -> Mov (f d, o a)
  | Bin (op, d, a, b) -> Bin (op, f d, o a, o b)
  | Un (op, d, a) -> Un (op, f d, o a)
  | Cmp (c, d, a, b) -> Cmp (c, f d, o a, o b)
  | Sel (d, c, a, b) -> Sel (f d, o c, o a, o b)
  | Ld l -> Ld { l with dst = f l.dst; base = o l.base; idx = o l.idx }
  | St s -> St { s with base = o s.base; idx = o s.idx; src = o s.src }
  | Atom a ->
      Atom { a with dst = f a.dst; base = o a.base; idx = o a.idx; src = o a.src }
  | Brz (c, l) -> Brz (o c, l)
  | Brnz (c, l) -> Brnz (o c, l)
  | Trap (t, Some n) -> Trap (t, Some (o n))
  | Br _ | Bar | Ret | Trap (_, None) -> ins

(* Linear-scan allocation over live intervals. Instruction [pc] reads at
   position [2 pc] and writes at [2 pc + 1]; a register's interval runs
   from its first to its last position in body order, where a block it
   is live into counts from the block's first read and a block it is
   live out of to its last write. A register live just after a write of
   another is live on both sides of it, so their intervals overlap:
   registers whose intervals are disjoint never interfere, and one that
   dies where another is written can hand it its number. Walking the
   positions in order, a register takes the lowest number no open
   interval holds. Specials and parameters keep their numbers (the
   interpreter preloads them and folds the unwritten ones), and a
   register live at entry, read before any write on some path, keeps a
   number of its own, so it still reads what it read before allocation;
   so does a register read but never written. Only names change: the
   body, its labels and its provenance keep their shape. *)
let allocate (k : Kir.kernel) =
  let module A = Weaver_analysis in
  let module B = A.Dataflow.Bits in
  let nregs = k.reg_count and fixed = Kir.param_reg k.params in
  if nregs <= fixed || Array.length k.body = 0 then k
  else begin
    let cfg = A.Cfg.build k in
    let live = A.Live.compute cfg in
    let first = Array.make nregs max_int and last = Array.make nregs (-1) in
    let at p r =
      if r >= fixed then begin
        if p < first.(r) then first.(r) <- p;
        if p > last.(r) then last.(r) <- p
      end
    in
    let written = Array.make nregs false in
    for b = 0 to A.Cfg.nblocks cfg - 1 do
      let blk = A.Cfg.block cfg b in
      B.iter (at (2 * blk.A.Cfg.first)) (A.Live.live_in live b);
      B.iter (at ((2 * blk.A.Cfg.last) + 1)) (A.Live.live_out live b)
    done;
    Array.iteri
      (fun pc ins ->
        Kir.iter_used_regs (at (2 * pc)) ins;
        match Kir.defined_reg ins with
        | Some d ->
            written.(d) <- true;
            at ((2 * pc) + 1) d
        | None -> ())
      k.body;
    let colour = Array.init nregs (fun r -> if r < fixed then r else -1) in
    let next = ref fixed in
    let own r =
      if colour.(r) < 0 then begin
        colour.(r) <- !next;
        incr next
      end
    in
    B.iter (fun r -> if r >= fixed then own r) (A.Live.live_in live 0);
    for r = fixed to nregs - 1 do
      if last.(r) >= 0 && not written.(r) then own r
    done;
    (* intervals starting and ending at each position, as linked lists *)
    let npos = (2 * Array.length k.body) + 2 in
    let starts = Array.make npos (-1) and ends = Array.make npos (-1) in
    let next_start = Array.make nregs (-1) and next_end = Array.make nregs (-1) in
    for r = nregs - 1 downto fixed do
      if colour.(r) < 0 && last.(r) >= 0 then begin
        next_start.(r) <- starts.(first.(r));
        starts.(first.(r)) <- r;
        next_end.(r) <- ends.(last.(r));
        ends.(last.(r)) <- r
      end
    done;
    let base = !next in
    let taken = Array.make (nregs + 1) false in
    let top = ref base in
    for p = 0 to npos - 1 do
      let r = ref starts.(p) in
      while !r >= 0 do
        let c = ref base in
        while taken.(!c) do incr c done;
        taken.(!c) <- true;
        colour.(!r) <- !c;
        if !c >= !top then top := !c + 1;
        r := next_start.(!r)
      done;
      let r = ref ends.(p) in
      while !r >= 0 do
        taken.(colour.(!r)) <- false;
        r := next_end.(!r)
      done
    done;
    let f r = colour.(r) in
    { k with body = Array.map (rename f) k.body; reg_count = max !top fixed }
  end

let simplify k =
  let rec fixpoint k rounds =
    if rounds = 0 then k
    else
      let k = value_numbering k in
      let k, changed = dce k in
      if changed then fixpoint k (rounds - 1) else k
  in
  fixpoint k 8

let optimize level (k : Kir.kernel) =
  match level with
  | O0 -> k
  | O3 ->
      let k' = allocate (simplify k) in
      Kir_validate.check_exn k';
      k'
