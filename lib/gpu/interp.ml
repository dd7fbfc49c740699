exception Runtime_error = Fault.Error

(* raised with an empty [kernel] field; [run] fills it in (Fault.set_kernel)
   when the fault crosses the launch boundary *)
let div_zero () = Fault.raise_ (Fault.Div_by_zero { kernel = "" })

let f32_of_bits v = Int32.float_of_bits (Int32.of_int v)
let bits_of_f32 f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let binop_fn (op : Kir.binop) : int -> int -> int =
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun a b -> if b = 0 then div_zero () else a / b
  | Rem -> fun a b -> if b = 0 then div_zero () else a mod b
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> ( lsl )
  | Shr -> ( asr )
  | Min -> fun a b -> if a <= b then a else b
  | Max -> fun a b -> if a >= b then a else b
  | Fadd -> fun a b -> bits_of_f32 (f32_of_bits a +. f32_of_bits b)
  | Fsub -> fun a b -> bits_of_f32 (f32_of_bits a -. f32_of_bits b)
  | Fmul -> fun a b -> bits_of_f32 (f32_of_bits a *. f32_of_bits b)
  | Fdiv -> fun a b -> bits_of_f32 (f32_of_bits a /. f32_of_bits b)
  | Fmin -> fun a b -> bits_of_f32 (Float.min (f32_of_bits a) (f32_of_bits b))
  | Fmax -> fun a b -> bits_of_f32 (Float.max (f32_of_bits a) (f32_of_bits b))

let unop_fn (op : Kir.unop) : int -> int =
  match op with
  | Not -> fun a -> if a = 0 then 1 else 0
  | Neg -> fun a -> -a
  | Fneg -> fun a -> bits_of_f32 (-.f32_of_bits a)
  | I2f -> fun a -> bits_of_f32 (float_of_int a)
  | F2i -> fun a -> int_of_float (f32_of_bits a)

let cmp_fn (c : Kir.cmp) : int -> int -> bool =
  match c with
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b
  | Lt -> fun a b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b
  | Feq -> fun a b -> f32_of_bits a = f32_of_bits b
  | Fne -> fun a b -> f32_of_bits a <> f32_of_bits b
  | Flt -> fun a b -> f32_of_bits a < f32_of_bits b
  | Fle -> fun a b -> f32_of_bits a <= f32_of_bits b
  | Fgt -> fun a b -> f32_of_bits a > f32_of_bits b
  | Fge -> fun a b -> f32_of_bits a >= f32_of_bits b

let exec_atomop op old v =
  match (op : Kir.atomop) with
  | Atom_add -> old + v
  | Atom_min -> min old v
  | Atom_max -> max old v
  | Atom_exch -> v

(* A batched CTA's remaining budget slice does not cover its next block:
   the CTA re-runs per-thread (see [run]). *)
exception Unbatch

(* thread status *)
let st_running = 0
let st_at_bar = 1
let st_done = 2

(* ---- basic blocks ------------------------------------------------------- *)

(* A block starts at pc 0, at every label target and after every
   instruction that leaves straight-line flow. *)
let ends_block : Kir.instr -> bool = function
  | Br _ | Brz _ | Brnz _ | Bar | Ret | Trap _ -> true
  | Mov _ | Bin _ | Un _ | Cmp _ | Sel _ | Ld _ | St _ | Atom _ -> false

(* The events one execution of [ins] adds to the Stats counters. *)
let charge (s : Stats.t) (ins : Kir.instr) =
  s.instructions <- s.instructions + 1;
  match ins with
  | Mov _ | Bin _ | Un _ | Cmp _ | Sel _ -> s.alu_ops <- s.alu_ops + 1
  | Ld { space = Global; width; _ } ->
      s.global_loads <- s.global_loads + 1;
      s.global_load_bytes <- s.global_load_bytes + width
  | Ld { space = Shared; width; _ } ->
      s.shared_loads <- s.shared_loads + 1;
      s.shared_load_bytes <- s.shared_load_bytes + width
  | St { space = Global; width; _ } ->
      s.global_stores <- s.global_stores + 1;
      s.global_store_bytes <- s.global_store_bytes + width
  | St { space = Shared; width; _ } ->
      s.shared_stores <- s.shared_stores + 1;
      s.shared_store_bytes <- s.shared_store_bytes + width
  | Atom _ -> s.atomics <- s.atomics + 1
  | Br _ | Brz _ | Brnz _ -> s.branches <- s.branches + 1
  | Bar -> s.barrier_waits <- s.barrier_waits + 1
  | Ret | Trap _ -> ()

(* The launch-invariant part of block compilation: where blocks start, the
   block of every pc and each block's static per-entry Stats. *)
type layout = {
  starts : int array;  (** first pc of each block, ascending *)
  block_of : int array;  (** pc -> index of the block containing it *)
  block_stats : Stats.t array;  (** events of one entry into each block *)
}

let layout (k : Kir.kernel) =
  let n = Array.length k.body in
  let is_start = Array.make (n + 1) false in
  if n > 0 then is_start.(0) <- true;
  Array.iter (fun p -> if p >= 0 && p < n then is_start.(p) <- true) k.labels;
  Array.iteri (fun pc ins -> if ends_block ins then is_start.(pc + 1) <- true) k.body;
  let starts =
    Array.of_list (List.filter (fun pc -> is_start.(pc)) (List.init n Fun.id))
  in
  let block_of = Array.make n 0 in
  let block_stats =
    Array.mapi
      (fun b s ->
        let stop = if b + 1 < Array.length starts then starts.(b + 1) else n in
        let st = Stats.create () in
        for pc = s to stop - 1 do
          block_of.(pc) <- b;
          charge st k.body.(pc)
        done;
        st)
      starts
  in
  { starts; block_of; block_stats }

(* How control leaves a block. *)
type exit =
  | Goto of int  (** fall-through or unconditional branch to this pc *)
  | Next of (int -> int) * (int array -> int -> int)
      (** a trap, a branch to an out-of-range label or an exit naming a
          bad register: one thread's next pc (or a raise); and for a batch
          of threads, their next pcs written to the pc array, returning
          that pc. The threads of a batch agree on it or one of them
          raises: a trap and a bad register raise for every thread, and an
          out-of-range branch raises for each thread that takes it. *)
  | Branch of (int -> int) * int * int * (int array -> int -> int array -> int)
      (** a branch on a register with two targets [lo < hi]: one thread's
          next pc; and [part ts n up], which writes the next pcs of the
          batch [ts.(0 .. n-1)] to the pc array, moves the threads bound
          for [lo] to the front of [ts] and writes the others to the front
          of [up], both in batch order, and returns how many go to [lo] *)
  | Barrier of int  (** arrive at a barrier, resuming at this pc *)
  | Return

(* Instructions are closures over the worker's register file. A
   single-thread closure takes a thread id; a batch closure takes an
   array of thread ids and how many of them to run. *)
type block = {
  ops : (int -> unit) array;
      (** the straight-line instructions for one thread; an [add] feeding
          the index of the next access shares one closure with it *)
  bops : (int array -> int -> unit) array;  (** [ops] for a batch *)
  steps : (int -> unit) array Lazy.t;
      (** the same instructions one closure each, for an entry charged
          per instruction; built on first use *)
  len : int;  (** instructions per entry, terminator included *)
  exit : exit;
}

(* An operand after launch-time resolution: a register index known to be
   in range, or a constant (an immediate, or a register the body never
   writes whose value is the same for every thread of the launch). *)
type src = R of int | K of int

(* Address of a shared access, [base + idx], by operand shape. *)
type addr = A_k of int | A_r of int * int | A_rr of int * int

let addr base idx =
  match (base, idx) with
  | K b, K i -> A_k (b + i)
  | R x, K n | K n, R x -> A_r (x, n)
  | R x, R y -> A_rr (x, y)

(* Unchecked register, shared-memory and buffer accesses, for indices the
   compiler range-checked (registers) or the closure checks just before. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

(* Operand resolution for one launch: whether a register is inside the
   register file, and each operand as a register or a launch constant. *)
let resolver (k : Kir.kernel) ~params ~grid ~cta =
  let nregs = max k.reg_count 1 in
  let written = Array.make nregs false in
  Array.iter
    (fun ins ->
      match Kir.defined_reg ins with
      | Some d when d >= 0 && d < nregs -> written.(d) <- true
      | _ -> ())
    k.body;
  let const_of x =
    if written.(x) then None
    else if x = Kir.reg_ntid then Some cta
    else if x = Kir.reg_nctaid then Some grid
    else if x >= Kir.param_reg 0 && x < Kir.param_reg (Array.length params)
    then Some params.(x - Kir.param_reg 0)
    else None
  in
  let in_range x = x >= 0 && x < nregs in
  let src = function
    | Kir.Imm n -> K n
    | Kir.Reg x -> (
        match const_of x with Some v -> K v | None -> R x)
  in
  (in_range, src)

(* Registers the instruction names outside the register file: it raises
   when it executes, as an array access would. *)
let bad_regs in_range ins =
  not
    (List.for_all in_range
       (Option.to_list (Kir.defined_reg ins)
       @ List.filter_map
           (function Kir.Reg x -> Some x | Kir.Imm _ -> None)
           (Kir.used_operands ins)))

(* Whether threads of one CTA may run batched in this launch, on top of
   the gate's [stores_disjoint] certificate (which reasons about the
   kernel's code, not its parameters): no atomics, every global access
   through a launch-constant handle, distinct store bases naming distinct
   buffers, and no buffer both loaded and stored. Then no global word is
   written by two threads or read by one thread while another writes it,
   so the order in which a CTA's threads interleave between barriers is
   unobservable. *)
let batchable (k : Kir.kernel) (in_range, src) =
  let loads = ref [] and stores = ref [] in
  k.stores_disjoint
  && Array.for_all
       (fun (ins : Kir.instr) ->
         (not (bad_regs in_range ins))
         &&
         match ins with
         | Atom _ -> false
         | Ld { space = Global; base; _ } -> (
             match src base with
             | K h -> loads := h :: !loads; true
             | R _ -> false)
         | St { space = Global; base; _ } -> (
             match src base with
             | K h -> stores := (base, h) :: !stores; true
             | R _ -> false)
         | _ -> true)
       k.body
  &&
  let handles = List.map snd (List.sort_uniq compare !stores) in
  List.length (List.sort_uniq compare handles) = List.length handles
  && not (List.exists (fun h -> List.mem h !loads) handles)

(* ---- the undo log ------------------------------------------------------- *)

(* While a CTA runs batched, each global store first records [slot, index,
   old word], [slot] naming the stored buffer in [bufs], so that a CTA
   whose batched run is abandoned can be rolled back. One per worker,
   reused across CTAs. *)
type undo = {
  mutable log : int array;
  mutable n : int;  (** words of [log] in use, three per store *)
  mutable on : bool;  (** the worker's current CTA runs batched *)
  mutable bufs : int array array;  (** slot -> backing array *)
}

let undo_create () = { log = Array.make 96 0; n = 0; on = false; bufs = [||] }

(* room for [k] more stores *)
let reserve u k =
  let need = u.n + (3 * k) in
  if need > Array.length u.log then begin
    let a = Array.make (max need (2 * Array.length u.log)) 0 in
    Array.blit u.log 0 a 0 u.n;
    u.log <- a
  end

(* log a store of [arr.(i)]; the caller reserved room *)
let push u slot arr i =
  let l = u.log and n = u.n in
  set l n slot;
  set l (n + 1) i;
  set l (n + 2) (get arr i);
  u.n <- n + 3

(* A single-thread store logs itself only while its CTA runs batched (a
   lone thread of a batched CTA); a batch store always does. *)
let log_one u slot arr i =
  reserve u 1;
  push u slot arr i

let rollback u =
  let l = u.log in
  let n = ref (u.n - 3) in
  while !n >= 0 do
    u.bufs.(l.(!n)).(l.(!n + 1)) <- l.(!n + 2);
    n := !n - 3
  done;
  u.n <- 0

(* Compile [k]'s blocks for one worker: [regs] is that worker's register
   file (register-major: [regs.(r).(tid)]), [pcs] its threads' pcs,
   [shared] its shared memory and [undo] its store log. Operands are
   resolved here once: registers are range-checked against the register
   file and bound to their per-thread arrays, launch-constant registers
   folded, and a global access whose base folds to a live buffer handle
   binds that buffer's backing array.

   Every instruction gets a single-thread closure. The batch closure of a
   shape the single-thread compiler specialises is a hand-written loop
   over the batch; any other shape runs its single-thread closure per
   thread. *)
let compile (k : Kir.kernel) (lay : layout) (in_range, src) ~mem ~shared
    ~regs ~pcs ~undo =
  let kname = k.kname in
  let body = k.body in
  let n = Array.length body in
  let labels = k.labels in
  let rg x = regs.(x) in
  let value = function
    | R x ->
        let a = rg x in
        fun t -> get a t
    | K n -> fun _ -> n
  in
  let lift one = (one, fun ts n -> for j = 0 to n - 1 do one (get ts j) done) in
  let oob_shared i =
    Fault.raise_
      (Fault.Out_of_bounds
         {
           kernel = kname;
           space = Fault.Shared_space;
           buffer = None;
           index = i;
           length = Array.length shared;
         })
  in
  let oob_global h i len =
    Fault.raise_
      (Fault.Out_of_bounds
         {
           kernel = kname;
           space = Fault.Global_space;
           buffer = Some h;
           index = i;
           length = len;
         })
  in
  let slen = Array.length shared in
  (* the backing array of a constant buffer handle, when it is live *)
  let bound h =
    match Memory.data mem h with
    | arr -> Some arr
    | exception (Not_found | Invalid_argument _) -> None
  in
  (* the backing array of a handle computed at run time *)
  let buffer_data h =
    match bound h with
    | Some arr -> arr
    | None -> Fault.raise_ (Fault.Invalid_handle { kernel = kname; handle = h })
  in
  (* the undo-log slot of a stored buffer *)
  let slots = ref [] in
  let slot_of arr =
    let rec find i = function
      | [] ->
          slots := !slots @ [ arr ];
          i
      | a :: rest -> if a == arr then i else find (i + 1) rest
    in
    find 0 !slots
  in
  let bin op d a b =
    let rd = rg d in
    match ((op : Kir.binop), a, b) with
    | Add, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (get rx t + get ry t)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t + get ry t)
            done )
    | Add, R x, K c | Add, K c, R x ->
        let rx = rg x in
        ( (fun t -> set rd t (get rx t + c)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t + c)
            done )
    | Sub, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (get rx t - get ry t)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t - get ry t)
            done )
    | Sub, R x, K c ->
        let rx = rg x in
        ( (fun t -> set rd t (get rx t - c)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t - c)
            done )
    | Mul, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (get rx t * get ry t)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t * get ry t)
            done )
    | Mul, R x, K c | Mul, K c, R x ->
        let rx = rg x in
        ( (fun t -> set rd t (get rx t * c)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t * c)
            done )
    | And, R x, K c | And, K c, R x ->
        let rx = rg x in
        ( (fun t -> set rd t (get rx t land c)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (get rx t land c)
            done )
    | _ -> (
        (* the other operators call [f] per thread from one loop *)
        let f = binop_fn op in
        match (a, b) with
        | R x, R y ->
            let rx = rg x and ry = rg y in
            ( (fun t -> set rd t (f (get rx t) (get ry t))),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (f (get rx t) (get ry t))
                done )
        | R x, K c ->
            let rx = rg x in
            ( (fun t -> set rd t (f (get rx t) c)),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (f (get rx t) c)
                done )
        | K c, R y ->
            let ry = rg y in
            lift (fun t -> set rd t (f c (get ry t)))
        | K c, K m -> lift (fun t -> set rd t (f c m)))
  in
  let cmp c d a b =
    let rd = rg d in
    let bit v = if v then 1 else 0 in
    match ((c : Kir.cmp), a, b) with
    | Lt, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (bit (get rx t < get ry t))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t < get ry t))
            done )
    | Lt, R x, K c ->
        let rx = rg x in
        ( (fun t -> set rd t (bit (get rx t < c))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t < c))
            done )
    | Ge, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (bit (get rx t >= get ry t))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t >= get ry t))
            done )
    | Ge, R x, K c ->
        let rx = rg x in
        ( (fun t -> set rd t (bit (get rx t >= c))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t >= c))
            done )
    | Eq, R x, R y ->
        let rx = rg x and ry = rg y in
        ( (fun t -> set rd t (bit (get rx t = get ry t))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t = get ry t))
            done )
    | Eq, R x, K c ->
        let rx = rg x in
        ( (fun t -> set rd t (bit (get rx t = c))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t = c))
            done )
    | Ne, R x, K c ->
        let rx = rg x in
        ( (fun t -> set rd t (bit (get rx t <> c))),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set rd t (bit (get rx t <> c))
            done )
    | _ -> (
        let f = cmp_fn c in
        match (a, b) with
        | R x, R y ->
            let rx = rg x and ry = rg y in
            ( (fun t -> set rd t (bit (f (get rx t) (get ry t)))),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (bit (f (get rx t) (get ry t)))
                done )
        | R x, K c ->
            let rx = rg x in
            ( (fun t -> set rd t (bit (f (get rx t) c))),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (bit (f (get rx t) c))
                done )
        | K c, R y ->
            let ry = rg y in
            lift (fun t -> set rd t (bit (f c (get ry t))))
        | K c, K m -> lift (fun t -> set rd t (bit (f c m))))
  in
  (* Global accesses whose base is not a live constant look the handle up
     per access. A batched launch has only constant bases, so a store
     here under a batched CTA has a dead handle and faults before it
     writes: it needs no undo record. *)
  let ld_lookup d base idx =
    let rd = rg d and base = value base and idx = value idx in
    fun t ->
      let h = base t in
      let arr = buffer_data h in
      let i = idx t in
      if i < 0 || i >= Array.length arr then oob_global h i (Array.length arr);
      set rd t (get arr i)
  in
  let st_lookup base idx v =
    let base = value base and idx = value idx and v = value v in
    fun t ->
      let h = base t in
      let arr = buffer_data h in
      let i = idx t in
      if i < 0 || i >= Array.length arr then oob_global h i (Array.length arr);
      set arr i (v t)
  in
  let ld_global d base idx =
    match (base, idx) with
    | K h, R y -> (
        match bound h with
        | Some arr ->
            let len = Array.length arr in
            let rd = rg d and ry = rg y in
            ( (fun t ->
                let i = get ry t in
                if i < 0 || i >= len then oob_global h i len;
                set rd t (get arr i)),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  let i = get ry t in
                  if i < 0 || i >= len then oob_global h i len;
                  set rd t (get arr i)
                done )
        | None -> lift (ld_lookup d base idx))
    | _ -> lift (ld_lookup d base idx)
  in
  let st_global base idx v =
    match (base, idx, v) with
    | K h, R y, R z -> (
        match bound h with
        | Some arr ->
            let len = Array.length arr and slot = slot_of arr in
            let ry = rg y and rz = rg z in
            ( (fun t ->
                let i = get ry t in
                if i < 0 || i >= len then oob_global h i len;
                if undo.on then log_one undo slot arr i;
                set arr i (get rz t)),
              fun ts n ->
                reserve undo n;
                for j = 0 to n - 1 do
                  let t = get ts j in
                  let i = get ry t in
                  if i < 0 || i >= len then oob_global h i len;
                  push undo slot arr i;
                  set arr i (get rz t)
                done )
        | None -> lift (st_lookup base idx v))
    | K h, idx, v -> (
        match bound h with
        | Some arr ->
            let len = Array.length arr and slot = slot_of arr in
            let idx = value idx and v = value v in
            lift (fun t ->
                let i = idx t in
                if i < 0 || i >= len then oob_global h i len;
                if undo.on then log_one undo slot arr i;
                set arr i (v t))
        | None -> lift (st_lookup base idx v))
    | _ -> lift (st_lookup base idx v)
  in
  let ld_shared d a =
    let rd = rg d in
    match a with
    | A_k i ->
        ( (fun t ->
            if i < 0 || i >= slen then oob_shared i;
            set rd t (get shared i)),
          fun ts n ->
            if i < 0 || i >= slen then oob_shared i;
            let v = get shared i in
            for j = 0 to n - 1 do
              set rd (get ts j) v
            done )
    | A_r (x, c) ->
        let rx = rg x in
        ( (fun t ->
            let i = get rx t + c in
            if i < 0 || i >= slen then oob_shared i;
            set rd t (get shared i)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              let i = get rx t + c in
              if i < 0 || i >= slen then oob_shared i;
              set rd t (get shared i)
            done )
    | A_rr (x, y) ->
        let rx = rg x and ry = rg y in
        ( (fun t ->
            let i = get rx t + get ry t in
            if i < 0 || i >= slen then oob_shared i;
            set rd t (get shared i)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              let i = get rx t + get ry t in
              if i < 0 || i >= slen then oob_shared i;
              set rd t (get shared i)
            done )
  in
  let st_shared a v =
    match (a, v) with
    | A_r (x, c), R z ->
        let rx = rg x and rz = rg z in
        ( (fun t ->
            let i = get rx t + c in
            if i < 0 || i >= slen then oob_shared i;
            set shared i (get rz t)),
          fun ts n ->
            for j = 0 to n - 1 do
              let t = get ts j in
              let i = get rx t + c in
              if i < 0 || i >= slen then oob_shared i;
              set shared i (get rz t)
            done )
    | A_r (x, c), K w ->
        let rx = rg x in
        ( (fun t ->
            let i = get rx t + c in
            if i < 0 || i >= slen then oob_shared i;
            set shared i w),
          fun ts n ->
            for j = 0 to n - 1 do
              let i = get rx (get ts j) + c in
              if i < 0 || i >= slen then oob_shared i;
              set shared i w
            done )
    | _ ->
        let index =
          match a with
          | A_k i -> fun _ -> i
          | A_r (x, c) ->
              let rx = rg x in
              fun t -> get rx t + c
          | A_rr (x, y) ->
              let rx = rg x and ry = rg y in
              fun t -> get rx t + get ry t
        in
        let v = value v in
        lift (fun t ->
            let i = index t in
            if i < 0 || i >= slen then oob_shared i;
            set shared i (v t))
  in
  let atom op space d base idx v =
    let f = exec_atomop op in
    let rd = rg d and base = value base and idx = value idx and v = value v in
    lift
      (match (space : Kir.space) with
      | Shared ->
          fun t ->
            let i = base t + idx t in
            if i < 0 || i >= slen then oob_shared i;
            let old = get shared i in
            set shared i (f old (v t));
            set rd t old
      | Global ->
          fun t ->
            let h = base t in
            let arr = buffer_data h in
            let i = idx t in
            if i < 0 || i >= Array.length arr then
              oob_global h i (Array.length arr);
            let old = get arr i in
            set arr i (f old (v t));
            set rd t old)
  in
  (* [add t, x, K] followed by an access indexed by [t], as one closure
     that writes [t] before the access is bounds-checked, as the two
     closures would. Only the fast shapes fuse: a global access whose
     base binds a live buffer, a shared access whose other address
     operand is constant. *)
  let fuse_access r x c : Kir.instr -> _ option =
    let rt = rg r and rx = rg x in
    function
    | Ld { space = Global; dst; base; idx; _ } -> (
        match (src base, src idx) with
        | K h, R y when y = r ->
            Option.map
              (fun arr ->
                let len = Array.length arr and rd = rg dst in
                ( (fun t ->
                    let i = get rx t + c in
                    set rt t i;
                    if i < 0 || i >= len then oob_global h i len;
                    set rd t (get arr i)),
                  fun ts n ->
                    for j = 0 to n - 1 do
                      let t = get ts j in
                      let i = get rx t + c in
                      set rt t i;
                      if i < 0 || i >= len then oob_global h i len;
                      set rd t (get arr i)
                    done ))
              (bound h)
        | _ -> None)
    | St { space = Global; base; idx; src = v; _ } -> (
        match (src base, src idx, src v) with
        | K h, R y, R z when y = r ->
            Option.map
              (fun arr ->
                let len = Array.length arr and slot = slot_of arr in
                let rz = rg z in
                ( (fun t ->
                    let i = get rx t + c in
                    set rt t i;
                    if i < 0 || i >= len then oob_global h i len;
                    if undo.on then log_one undo slot arr i;
                    set arr i (get rz t)),
                  fun ts n ->
                    reserve undo n;
                    for j = 0 to n - 1 do
                      let t = get ts j in
                      let i = get rx t + c in
                      set rt t i;
                      if i < 0 || i >= len then oob_global h i len;
                      push undo slot arr i;
                      set arr i (get rz t)
                    done ))
              (bound h)
        | K h, R y, K w when y = r ->
            Option.map
              (fun arr ->
                let len = Array.length arr and slot = slot_of arr in
                ( (fun t ->
                    let i = get rx t + c in
                    set rt t i;
                    if i < 0 || i >= len then oob_global h i len;
                    if undo.on then log_one undo slot arr i;
                    set arr i w),
                  fun ts n ->
                    reserve undo n;
                    for j = 0 to n - 1 do
                      let t = get ts j in
                      let i = get rx t + c in
                      set rt t i;
                      if i < 0 || i >= len then oob_global h i len;
                      push undo slot arr i;
                      set arr i w
                    done ))
              (bound h)
        | _ -> None)
    | Ld { space = Shared; dst; base; idx; _ } -> (
        match addr (src base) (src idx) with
        | A_r (y, o) when y = r ->
            let rd = rg dst in
            Some
              ( (fun t ->
                  let v = get rx t + c in
                  set rt t v;
                  let i = v + o in
                  if i < 0 || i >= slen then oob_shared i;
                  set rd t (get shared i)),
                fun ts n ->
                  for j = 0 to n - 1 do
                    let t = get ts j in
                    let v = get rx t + c in
                    set rt t v;
                    let i = v + o in
                    if i < 0 || i >= slen then oob_shared i;
                    set rd t (get shared i)
                  done )
        | _ -> None)
    | St { space = Shared; base; idx; src = v; _ } -> (
        match (addr (src base) (src idx), src v) with
        | A_r (y, o), R z when y = r ->
            let rz = rg z in
            Some
              ( (fun t ->
                  let v = get rx t + c in
                  set rt t v;
                  let i = v + o in
                  if i < 0 || i >= slen then oob_shared i;
                  set shared i (get rz t)),
                fun ts n ->
                  for j = 0 to n - 1 do
                    let t = get ts j in
                    let v = get rx t + c in
                    set rt t v;
                    let i = v + o in
                    if i < 0 || i >= slen then oob_shared i;
                    set shared i (get rz t)
                  done )
        | A_r (y, o), K w when y = r ->
            Some
              ( (fun t ->
                  let v = get rx t + c in
                  set rt t v;
                  let i = v + o in
                  if i < 0 || i >= slen then oob_shared i;
                  set shared i w),
                fun ts n ->
                  for j = 0 to n - 1 do
                    let t = get ts j in
                    let v = get rx t + c in
                    set rt t v;
                    let i = v + o in
                    if i < 0 || i >= slen then oob_shared i;
                    set shared i w
                  done )
        | _ -> None)
    | _ -> None
  in
  let op (ins : Kir.instr) =
    match ins with
    | Mov (d, a) -> (
        let rd = rg d in
        match src a with
        | R x ->
            let rx = rg x in
            ( (fun t -> set rd t (get rx t)),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (get rx t)
                done )
        | K v ->
            ( (fun t -> set rd t v),
              fun ts n ->
                for j = 0 to n - 1 do
                  set rd (get ts j) v
                done ))
    | Bin (o, d, a, b) -> bin o d (src a) (src b)
    | Un (o, d, a) -> (
        let f = unop_fn o and rd = rg d in
        match src a with
        | R x ->
            let rx = rg x in
            lift (fun t -> set rd t (f (get rx t)))
        | K v -> lift (fun t -> set rd t (f v)))
    | Cmp (c, d, a, b) -> cmp c d (src a) (src b)
    | Sel (d, c, a, b) -> (
        let rd = rg d in
        match (src c, src a, src b) with
        | R c, R x, R y ->
            let rc = rg c and rx = rg x and ry = rg y in
            ( (fun t -> set rd t (if get rc t <> 0 then get rx t else get ry t)),
              fun ts n ->
                for j = 0 to n - 1 do
                  let t = get ts j in
                  set rd t (if get rc t <> 0 then get rx t else get ry t)
                done )
        | c, a, b ->
            let c = value c and a = value a and b = value b in
            lift (fun t -> set rd t (if c t <> 0 then a t else b t)))
    | Ld { space = Global; dst; base; idx; _ } ->
        ld_global dst (src base) (src idx)
    | Ld { space = Shared; dst; base; idx; _ } ->
        ld_shared dst (addr (src base) (src idx))
    | St { space = Global; base; idx; src = v; _ } ->
        st_global (src base) (src idx) (src v)
    | St { space = Shared; base; idx; src = v; _ } ->
        st_shared (addr (src base) (src idx)) (src v)
    | Atom { op; space; dst; base; idx; src = v } ->
        atom op space dst (src base) (src idx) (src v)
    | Br _ | Brz _ | Brnz _ | Bar | Ret | Trap _ -> assert false
  in
  let next_all one ts n =
    for j = 0 to n - 1 do
      let t = get ts j in
      set pcs t (one t)
    done;
    get pcs (get ts 0)
  in
  let next one = Next (one, next_all one) in
  let branch c l ~taken_if_zero ~fall =
    let taken v = if taken_if_zero then v = 0 else v <> 0 in
    if l >= 0 && l < Array.length labels then
      let tgt = labels.(l) in
      match src c with
      | R x ->
          let rx = rg x and z = if taken_if_zero then tgt else fall in
          let nz = if taken_if_zero then fall else tgt in
          if z = nz then Goto z
          else
            let lo = min z nz and hi = max z nz and zero_lo = z < nz in
            Branch
              ( (fun t -> if get rx t = 0 then z else nz),
                lo,
                hi,
                fun ts n up ->
                  let nlo = ref 0 and nhi = ref 0 in
                  for j = 0 to n - 1 do
                    let t = get ts j in
                    if (get rx t = 0) = zero_lo then begin
                      set pcs t lo;
                      set ts !nlo t;
                      incr nlo
                    end
                    else begin
                      set pcs t hi;
                      set up !nhi t;
                      incr nhi
                    end
                  done;
                  !nlo )
      | K v -> Goto (if taken v then tgt else fall)
    else
      let c = value (src c) in
      next (fun t -> if taken (c t) then labels.(l) else fall)
  in
  let exit_of pc : Kir.instr -> exit = function
    | Br l ->
        if l >= 0 && l < Array.length labels then Goto labels.(l)
        else next (fun _ -> labels.(l))
    | Brz (c, l) -> branch c l ~taken_if_zero:true ~fall:(pc + 1)
    | Brnz (c, l) -> branch c l ~taken_if_zero:false ~fall:(pc + 1)
    | Bar -> Barrier (pc + 1)
    | Ret -> Return
    | Trap (f, needed) -> (
        match needed with
        | None -> next (fun _ -> Fault.raise_ (Fault.set_kernel kname f))
        | Some n ->
            let n = value (src n) in
            next (fun t ->
                Fault.raise_ (Fault.set_kernel kname (Fault.set_needed (n t) f))))
    | _ -> assert false
  in
  let bad_regs = bad_regs in_range in
  let bad_reg _ = invalid_arg "index out of bounds" in
  let op ins = if bad_regs ins then lift bad_reg else op ins in
  let fuse (a : Kir.instr) b =
    match a with
    | Bin (Add, r, x, y) when not (bad_regs a || bad_regs b) -> (
        match (src x, src y) with
        | R x, K c | K c, R x -> fuse_access r x c b
        | _ -> None)
    | _ -> None
  in
  let exit_of pc ins = if bad_regs ins then next bad_reg else exit_of pc ins in
  let nb = Array.length lay.starts in
  let blocks =
    Array.init nb (fun b ->
        let s = lay.starts.(b) in
        let stop = if b + 1 < nb then lay.starts.(b + 1) else n in
        let last = body.(stop - 1) in
        let straight = if ends_block last then stop - 1 else stop in
        let rec ops pc acc =
          if pc >= straight then List.rev acc
          else
            match
              if pc + 1 < straight then fuse body.(pc) body.(pc + 1) else None
            with
            | Some f -> ops (pc + 2) (f :: acc)
            | None -> ops (pc + 1) (op body.(pc) :: acc)
        in
        let ops = ops s [] in
        let one = Array.of_list (List.map fst ops) in
        let steps =
          if Array.length one = straight - s then Lazy.from_val one
          else lazy (Array.init (straight - s) (fun i -> fst (op body.(s + i))))
        in
        {
          ops = one;
          bops = Array.of_list (List.map snd ops);
          steps;
          len = stop - s;
          exit = (if straight < stop then exit_of (stop - 1) last else Goto stop);
        })
  in
  undo.bufs <- Array.of_list !slots;
  blocks

let observer = Atomic.make None
let batch_observer = Atomic.make None

let with_batch_observer f thunk =
  let prev = Atomic.exchange batch_observer (Some f) in
  Fun.protect ~finally:(fun () -> Atomic.set batch_observer prev) thunk

let with_launch_observer f thunk =
  let prev = Atomic.exchange observer (Some f) in
  Fun.protect ~finally:(fun () -> Atomic.set observer prev) thunk

let run ?(max_instructions = 2_000_000_000) ?profile ?(jobs = 1)
    ?(cancel = Cancel.none) ?(trace = Weaver_obs.Trace.none) mem
    (k : Kir.kernel) ~params ~grid ~cta =
  let invalid_launch reason =
    Fault.raise_ (Fault.Invalid_launch { kernel = k.kname; reason })
  in
  if Array.length params <> k.params then
    invalid_launch
      (Printf.sprintf "expects %d params, got %d" k.params (Array.length params));
  if grid <= 0 || cta <= 0 then invalid_launch "empty launch";
  (match Atomic.get observer with
  | Some f ->
      (* launches made by the observer itself are not observed *)
      Atomic.set observer None;
      Fun.protect
        ~finally:(fun () -> Atomic.set observer (Some f))
        (fun () -> f mem k ~params ~grid ~cta)
  | None -> ());
  let on_batch = Atomic.get batch_observer in
  let n_instr = Array.length k.body in
  let lay = layout k in
  let n_blocks = Array.length lay.starts in
  let operands = resolver k ~params ~grid ~cta in
  let batched = cta > 1 && batchable k operands in
  (* Each CTA gets an even slice of the instruction budget so infinite-loop
     detection fires regardless of how CTAs are scheduled over workers. *)
  let budget_slice = max 1 ((max_instructions + grid - 1) / grid) in
  let exhausted () = Fault.raise_ (Fault.Budget_exhausted { kernel = k.kname }) in
  let out_of_range p = invalid_launch (Printf.sprintf "pc %d out of range" p) in
  (* Per-worker state: one CTA's register file, shared memory and thread
     bookkeeping, reused (and re-zeroed) across the CTAs a worker executes
     so the interpreter does not churn the GC with per-CTA allocation; the
     blocks compiled against that state; and the worker's block entry
     counts. *)
  let make_worker () =
    let shared = Array.make (max k.shared_words 1) 0 in
    let nregs = max k.reg_count 1 in
    let regs = Array.init nregs (fun _ -> Array.make cta 0) in
    let pcs = Array.make cta 0 in
    let status = Array.make cta st_running in
    let undo = undo_create () in
    let blocks = compile k lay operands ~mem ~shared ~regs ~pcs ~undo in
    let counts = Array.make (max n_blocks 1) 0 in
    let budget = ref budget_slice in
    let live = ref cta in
    (* A kernel carrying the gate's store fact passed the gate, whose
       hygiene pass rejects any read of a register that may precede its
       first write: no register value crosses from one CTA to the next,
       so its register file needs no re-zeroing. *)
    let reset ctaid =
      budget := budget_slice;
      live := cta;
      Array.fill shared 0 (Array.length shared) 0;
      Array.fill pcs 0 cta 0;
      Array.fill status 0 cta st_running;
      if not k.stores_disjoint then
        Array.iter (fun r -> Array.fill r 0 cta 0) regs;
      let tids = regs.(Kir.reg_tid) in
      for t = 0 to cta - 1 do
        tids.(t) <- t
      done;
      Array.fill regs.(Kir.reg_ctaid) 0 cta ctaid;
      Array.fill regs.(Kir.reg_ntid) 0 cta cta;
      Array.fill regs.(Kir.reg_nctaid) 0 cta grid;
      Array.iteri (fun i v -> Array.fill regs.(Kir.param_reg i) 0 cta v) params
    in
    (* Per-thread schedule: run one thread until it hits a barrier or
       returns. A block whose length is below the remaining budget is
       charged on entry; otherwise it is charged per instruction, so
       exhaustion fires before the same instruction, after the same side
       effects, as per-instruction charging would. *)
    let run_thread tid =
      let pc = ref pcs.(tid) in
      let running = ref true in
      while !running do
        let p = !pc in
        if p < 0 || p >= n_instr then out_of_range p;
        let bi = get lay.block_of p in
        let b = Array.unsafe_get blocks bi in
        set counts bi (get counts bi + 1);
        let ops = b.ops in
        if !budget > b.len then begin
          budget := !budget - b.len;
          for i = 0 to Array.length ops - 1 do
            (Array.unsafe_get ops i) tid
          done
        end
        else begin
          let steps = Lazy.force b.steps in
          for i = 0 to Array.length steps - 1 do
            decr budget;
            if !budget <= 0 then exhausted ();
            (Array.unsafe_get steps i) tid
          done;
          if b.len > Array.length steps then begin
            decr budget;
            if !budget <= 0 then exhausted ()
          end
        end;
        match b.exit with
        | Goto next -> pc := next
        | Next (f, _) | Branch (f, _, _, _) -> pc := f tid
        | Barrier next ->
            pcs.(tid) <- next;
            status.(tid) <- st_at_bar;
            running := false
        | Return ->
            status.(tid) <- st_done;
            decr live;
            running := false
      done
    in
    let release () =
      for tid = 0 to cta - 1 do
        if status.(tid) = st_at_bar then status.(tid) <- st_running
      done
    in
    let per_thread () =
      while !live > 0 do
        for tid = 0 to cta - 1 do
          if status.(tid) = st_running then run_thread tid
        done;
        (* all live threads are now at a barrier: release them together *)
        release ()
      done
    in
    (* Batched schedule: the running threads at the lowest pc run each
       block as one batch, [!batch.(0 .. nb-1)]; every other running thread
       waits in a pending group of threads at one pc,
       [garr.(i).(0 .. gn.(i)-1)] at pc [gpc.(i)] for [i < !ng], one group
       per pc, lowest pc last ([q] is that pc). Each barrier round starts
       with one pass over the CTA that releases the threads waiting at a
       barrier and parks every running thread in the group of its pc; the
       group at the lowest pc becomes the batch. A batch keeps going while
       it stays together below [q]. A two-way branch that splits it
       partitions it in the loop that writes the threads' pcs; the side
       bound for the higher target joins the group at that pc, or starts
       one, and the other side goes on if it is still the lowest. A batch
       that reaches [q] or beyond joins or starts the group at its pc; one
       that stops at a barrier or returns leaves the running set. Either
       way the group at the lowest pc becomes the batch, until no group is
       left and the round ends. So every batch holds the running threads
       at the lowest pc, though not always in ascending thread order, which
       nothing observes, as with any reordering of threads between
       barriers. For the same reason a batch that holds every live thread
       of the CTA (or a lone thread that is its last live one) goes through
       a barrier as if released at once. The budget is charged per block
       for the whole batch; a block the remaining slice does not cover
       raises [Unbatch]. *)
    let batch = ref (Array.make cta 0) and up = ref (Array.make cta 0) in
    (* the pending groups; [garr.(!ng)] is a spare array, allocated on
       first use *)
    let gpc = Array.make (cta + 1) 0 and gn = Array.make (cta + 1) 0 in
    let garr = Array.make (cta + 1) [||] and ng = ref 0 in
    let block_runs = ref 0 and block_threads = ref 0 and rounds = ref 0 in
    (* barriers a batch holding every live thread of its CTA went through
       without a release: the next round would have started with exactly
       that batch at the next pc *)
    let barrier_passes = ref 0 in
    (* Adds the threads [a.(0 .. n-1)], all at pc [p], to the pending
       groups; returns an array the caller can use in place of [a]. *)
    let park p a n =
      let i = ref (!ng - 1) in
      while !i >= 0 && get gpc !i < p do
        decr i
      done;
      let i = !i in
      if i >= 0 && get gpc i = p then begin
        let g = garr.(i) and m = get gn i in
        for j = 0 to n - 1 do
          set g (m + j) (get a j)
        done;
        set gn i (m + n);
        a
      end
      else begin
        let spare = garr.(!ng) in
        for j = !ng downto i + 2 do
          set gpc j (get gpc (j - 1));
          set gn j (get gn (j - 1));
          garr.(j) <- garr.(j - 1)
        done;
        set gpc (i + 1) p;
        set gn (i + 1) n;
        garr.(i + 1) <- a;
        incr ng;
        if Array.length spare = 0 then Array.make cta 0 else spare
      end
    in
    (* returned by [run_alone] and [run_batch] when the batch stopped: no
       block starts at a negative pc *)
    let stop = min_int in
    (* a batch of one from pc [p]: its single-thread closures; returns the
       pc it reached at or above [q], or [stop] *)
    let run_alone tid p q =
      let pc = ref p in
      while !pc < q do
        let p = !pc in
        if p < 0 || p >= n_instr then out_of_range p;
        let bi = get lay.block_of p in
        let b = Array.unsafe_get blocks bi in
        set counts bi (get counts bi + 1);
        incr block_runs;
        incr block_threads;
        (match on_batch with Some f -> f ~pc:p [| tid |] 1 | None -> ());
        if !budget <= b.len then raise Unbatch;
        budget := !budget - b.len;
        let ops = b.ops in
        for i = 0 to Array.length ops - 1 do
          (Array.unsafe_get ops i) tid
        done;
        match b.exit with
        | Goto next -> pc := next
        | Next (f, _) | Branch (f, _, _, _) -> pc := f tid
        | Barrier next when !live = 1 ->
            incr barrier_passes;
            pc := next
        | Barrier next ->
            status.(tid) <- st_at_bar;
            pc := max_int;
            pcs.(tid) <- next
        | Return ->
            status.(tid) <- st_done;
            decr live;
            pc := max_int
      done;
      if status.(tid) <> st_running then stop
      else begin
        pcs.(tid) <- !pc;
        !pc
      end
    (* the batch of [!nb] threads from pc [p]; returns the pc the whole
       batch reached at or above [!q], the pc of its lower side after a
       split ([!nb] threads), or [stop] *)
    and run_batch nb p q =
      let pc = ref p and going = ref true in
      while !going do
        let p = !pc in
        if p < 0 || p >= n_instr then out_of_range p;
        let bi = get lay.block_of p in
        let b = Array.unsafe_get blocks bi in
        let n = !nb and ts = !batch in
        set counts bi (get counts bi + n);
        incr block_runs;
        block_threads := !block_threads + n;
        (match on_batch with Some f -> f ~pc:p ts n | None -> ());
        let cost = n * b.len in
        if !budget <= cost then raise Unbatch;
        budget := !budget - cost;
        let bops = b.bops in
        for i = 0 to Array.length bops - 1 do
          (Array.unsafe_get bops i) ts n
        done;
        match b.exit with
        | Goto next ->
            pc := next;
            if next >= !q then begin
              for j = 0 to n - 1 do
                set pcs (get ts j) next
              done;
              going := false
            end
        | Next (_, all) ->
            let next = all ts n in
            pc := next;
            if next >= !q then going := false
        | Branch (_, lo, hi, part) ->
            let nlo = part ts n !up in
            if nlo = n || nlo = 0 then begin
              let next = if nlo = 0 then hi else lo in
              pc := next;
              if next >= !q then going := false
            end
            else begin
              up := park hi !up (n - nlo);
              q := min hi !q;
              nb := nlo;
              pc := lo;
              if nlo = 1 || lo >= !q then going := false
            end
        | Barrier next when n = !live ->
            incr barrier_passes;
            pc := next
        | Barrier next ->
            for j = 0 to n - 1 do
              let t = get ts j in
              set pcs t next;
              set status t st_at_bar
            done;
            pc := stop;
            going := false
        | Return ->
            for j = 0 to n - 1 do
              set status (get ts j) st_done
            done;
            live := !live - n;
            pc := stop;
            going := false
      done;
      !pc
    in
    (* One barrier round after another. A round's pass over the CTA
       releases the threads at a barrier and parks every running thread;
       then the group at the lowest pc runs as the batch, the others at
       [q] or above, until no group is left. A CTA that raised may have
       left groups behind. *)
    let run_batched () =
      ng := 0;
      while !live > 0 do
        incr rounds;
        for t = 0 to cta - 1 do
          if get status t <> st_done then begin
            set status t st_running;
            set !up 0 t;
            up := park (get pcs t) !up 1
          end
        done;
        while !ng > 0 do
          decr ng;
          let i = !ng in
          let a = garr.(i) in
          garr.(i) <- !batch;
          batch := a;
          let nb = ref (get gn i) and pc = ref (get gpc i) in
          let q = ref (if i > 0 then get gpc (i - 1) else max_int) in
          while !pc <> stop && !pc < !q do
            pc :=
              if !nb = 1 then run_alone (get !batch 0) !pc !q
              else run_batch nb !pc q
          done;
          if !pc <> stop then batch := park !pc !batch !nb
        done
      done
    in
    (* A batched CTA that faults, or reaches a block its remaining slice
       does not cover, has its global stores rolled back and re-runs from
       the start on the per-thread schedule with a fresh slice. Each
       thread computes there what it computed batched, so the re-run
       raises too: the per-thread schedule's fault, or its exhaustion, at
       its exact point and over exactly its partial stores. Earlier CTAs
       are already exact; the block counts of a launch that raises are
       never read. *)
    let batched_ctas = ref 0 in
    let exec_cta ctaid =
      reset ctaid;
      if batched then begin
        undo.on <- true;
        match run_batched () with
        | () ->
            undo.on <- false;
            undo.n <- 0;
            incr batched_ctas
        | exception _ ->
            undo.on <- false;
            rollback undo;
            reset ctaid;
            per_thread ()
      end
      else per_thread ()
    in
    (* the worker's wall-lane span arguments *)
    let args () =
      let open Weaver_obs.Trace in
      [
        ("batched", Int !batched_ctas);
        ("regs", Int (nregs * cta));
        ("barrier_passes", Int !barrier_passes);
        ("rescans", Int !rounds);
        ( "mean_batch",
          Float
            (if !block_runs = 0 then 0.
             else float_of_int !block_threads /. float_of_int !block_runs) );
      ]
    in
    (exec_cta, counts, args)
  in
  (* Stats and the per-pc profile are both block entry counts times the
     blocks' static contents. *)
  let finish counts =
    let stats = Stats.create () in
    Array.iteri
      (fun b c -> if c > 0 then Stats.add_scaled stats c lay.block_stats.(b))
      counts;
    (match profile with
    | Some p ->
        for pc = 0 to n_instr - 1 do
          p.(pc) <- p.(pc) + counts.(lay.block_of.(pc))
        done
    | None -> ());
    stats
  in
  (* faults raised below the launch boundary (e.g. Div_by_zero from a
     division) carry an empty kernel field; name them here *)
  let named f = Fault.Error (Fault.set_kernel k.kname f) in
  (* A global atomic's old value can depend on the order in which CTAs
     reach it, so a launch whose kernel has one runs on one worker, in
     CTA index order. *)
  let jobs =
    if
      Array.exists
        (function Kir.Atom { space = Global; _ } -> true | _ -> false)
        k.body
    then 1
    else max 1 (min jobs grid)
  in
  (* Workers allocate their state on their own domain, publishing the
     counts here only on completion: counters created by the main domain
     would sit on adjacent cache lines and every block entry would
     false-share them. *)
  let worker_counts = Array.make jobs [||] in
  (* chunked self-scheduling over the CTA index space *)
  let next = Atomic.make 0 in
  let chunk = max 1 (grid / (jobs * 8)) in
  (* A CTA that faults stops the launch; record the fault of the lowest
     ctaid so the surfaced error (and any capacity-retry decision made on
     its message) is the same at every worker count. *)
  let first_error = Atomic.make None in
  let record_error ctaid e =
    let rec cas () =
      let cur = Atomic.get first_error in
      let keep = match cur with None -> true | Some (c, _) -> ctaid < c in
      if keep && not (Atomic.compare_and_set first_error cur (Some (ctaid, e)))
      then cas ()
    in
    cas ()
  in
  Domain_pool.run ~cancel ~trace ~jobs (fun w ->
      let exec_cta, counts, args = make_worker () in
      let rec loop () =
        if Atomic.get first_error = None then begin
          let start = Atomic.fetch_and_add next chunk in
          if start < grid then begin
            let stop = min grid (start + chunk) in
            (try
               for ctaid = start to stop - 1 do
                 (* cancellation checkpoint: workers stop within one CTA
                    of the token firing, mid-chunk included *)
                 Cancel.check cancel;
                 exec_cta ctaid
               done
             with e -> record_error start e);
            loop ()
          end
        end
      in
      loop ();
      worker_counts.(w) <- counts;
      args ());
  match Atomic.get first_error with
  | Some (_, Fault.Error f) -> raise (named f)
  | Some (_, e) -> raise e
  | None ->
      (* every count is a sum of per-CTA contributions, so the merge is
         independent of which worker executed which CTA *)
      let counts = Array.make (max n_blocks 1) 0 in
      Array.iter
        (Array.iteri (fun b c -> counts.(b) <- counts.(b) + c))
        worker_counts;
      finish counts
