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

(* Lock stripes serializing concurrent global atomics. CTAs only contend on
   the same word, and only through Atom, so a small striped set keeps the
   read-modify-write sequences of different words mostly independent. *)
let n_stripes = 64
let atom_stripes = Array.init n_stripes (fun _ -> Mutex.create ())
let stripe_of ~buf ~idx = ((buf * 131) + idx) land (n_stripes - 1)

(* thread status *)
let st_running = 0
let st_at_bar = 1
let st_done = 2

(* Two-entry MRU cache of buffer handle -> backing array, one per worker so
   parallel workers never share it and ping-ponging between two handles
   (e.g. a load loop alternating input and staging buffers) stays hits.
   Only accesses whose base is not a launch constant go through it. *)
let make_buffer_cache mem (k : Kir.kernel) =
  let id0 = ref (-1) and arr0 = ref [||] in
  let id1 = ref (-1) and arr1 = ref [||] in
  fun id ->
    if id = !id0 then !arr0
    else if id = !id1 then begin
      let a = !arr1 in
      id1 := !id0;
      arr1 := !arr0;
      id0 := id;
      arr0 := a;
      a
    end
    else begin
      let arr =
        try Memory.data mem id
        with Not_found | Invalid_argument _ ->
          Fault.raise_ (Fault.Invalid_handle { kernel = k.kname; handle = id })
      in
      id1 := !id0;
      arr1 := !arr0;
      id0 := id;
      arr0 := arr;
      arr
    end

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
  | Next of (int array -> int)
      (** conditional branch (returns the next pc) or trap (raises) *)
  | Barrier of int  (** arrive at a barrier, resuming at this pc *)
  | Return

type block = {
  ops : (int array -> unit) array;
      (** the straight-line instructions, as closures over the executing
          thread's register file; an [add] feeding the index of the next
          access shares one closure with it *)
  steps : (int array -> unit) array Lazy.t;
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

(* Compile [k]'s blocks for one worker: [shared] is that worker's shared
   memory, [buffer_data] its handle cache, and [locked] selects the
   mutex-striped path for global atomics. Operands are resolved here once:
   registers are range-checked against the register file, launch-constant
   registers folded, and a global access whose base folds to a live
   buffer handle binds that buffer's backing array. *)
let compile (k : Kir.kernel) (lay : layout) ~mem ~params ~grid ~cta ~shared
    ~buffer_data ~locked =
  let kname = k.kname in
  let body = k.body in
  let n = Array.length body in
  let labels = k.labels in
  let nregs = max k.reg_count 1 in
  let written = Array.make nregs false in
  Array.iter
    (fun ins ->
      match Kir.defined_reg ins with
      | Some d when d >= 0 && d < nregs -> written.(d) <- true
      | _ -> ())
    body;
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
  let value = function R x -> fun r -> get r x | K n -> fun _ -> n in
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
  let bin op d a b : int array -> unit =
    match ((op : Kir.binop), a, b) with
    | Add, R x, R y -> fun r -> set r d (get r x + get r y)
    | Add, R x, K n | Add, K n, R x -> fun r -> set r d (get r x + n)
    | Sub, R x, R y -> fun r -> set r d (get r x - get r y)
    | Sub, R x, K n -> fun r -> set r d (get r x - n)
    | Mul, R x, R y -> fun r -> set r d (get r x * get r y)
    | Mul, R x, K n | Mul, K n, R x -> fun r -> set r d (get r x * n)
    | And, R x, K n | And, K n, R x -> fun r -> set r d (get r x land n)
    | _ -> (
        let f = binop_fn op in
        match (a, b) with
        | R x, R y -> fun r -> set r d (f (get r x) (get r y))
        | R x, K n -> fun r -> set r d (f (get r x) n)
        | K n, R y -> fun r -> set r d (f n (get r y))
        | K n, K m -> fun r -> set r d (f n m))
  in
  let cmp c d a b : int array -> unit =
    let bit v = if v then 1 else 0 in
    match ((c : Kir.cmp), a, b) with
    | Lt, R x, R y -> fun r -> set r d (bit (get r x < get r y))
    | Lt, R x, K n -> fun r -> set r d (bit (get r x < n))
    | Ge, R x, R y -> fun r -> set r d (bit (get r x >= get r y))
    | Ge, R x, K n -> fun r -> set r d (bit (get r x >= n))
    | Eq, R x, R y -> fun r -> set r d (bit (get r x = get r y))
    | Eq, R x, K n -> fun r -> set r d (bit (get r x = n))
    | Ne, R x, K n -> fun r -> set r d (bit (get r x <> n))
    | _ -> (
        let f = cmp_fn c in
        match (a, b) with
        | R x, R y -> fun r -> set r d (bit (f (get r x) (get r y)))
        | R x, K n -> fun r -> set r d (bit (f (get r x) n))
        | K n, R y -> fun r -> set r d (bit (f n (get r y)))
        | K n, K m -> fun r -> set r d (bit (f n m)))
  in
  (* Global accesses whose base is not a live constant look the handle up
     per access. *)
  let ld_lookup d base idx =
    let base = value base and idx = value idx in
    fun r ->
      let h = base r in
      let arr = buffer_data h in
      let i = idx r in
      if i < 0 || i >= Array.length arr then oob_global h i (Array.length arr);
      set r d (get arr i)
  in
  let st_lookup base idx v =
    let base = value base and idx = value idx and v = value v in
    fun r ->
      let h = base r in
      let arr = buffer_data h in
      let i = idx r in
      if i < 0 || i >= Array.length arr then oob_global h i (Array.length arr);
      set arr i (v r)
  in
  let ld_global d base idx : int array -> unit =
    match (base, idx) with
    | K h, R y -> (
        match bound h with
        | Some arr ->
            let len = Array.length arr in
            fun r ->
              let i = get r y in
              if i < 0 || i >= len then oob_global h i len;
              set r d (get arr i)
        | None -> ld_lookup d base idx)
    | _ -> ld_lookup d base idx
  in
  let st_global base idx v : int array -> unit =
    match (base, idx, v) with
    | K h, R y, R z -> (
        match bound h with
        | Some arr ->
            let len = Array.length arr in
            fun r ->
              let i = get r y in
              if i < 0 || i >= len then oob_global h i len;
              set arr i (get r z)
        | None -> st_lookup base idx v)
    | _ -> st_lookup base idx v
  in
  let ld_shared d a : int array -> unit =
    match a with
    | A_k i ->
        fun r ->
          if i < 0 || i >= slen then oob_shared i;
          set r d (get shared i)
    | A_r (x, n) ->
        fun r ->
          let i = get r x + n in
          if i < 0 || i >= slen then oob_shared i;
          set r d (get shared i)
    | A_rr (x, y) ->
        fun r ->
          let i = get r x + get r y in
          if i < 0 || i >= slen then oob_shared i;
          set r d (get shared i)
  in
  let st_shared a v : int array -> unit =
    let index =
      match a with
      | A_k i -> fun _ -> i
      | A_r (x, n) -> fun r -> get r x + n
      | A_rr (x, y) -> fun r -> get r x + get r y
    in
    match v with
    | R z ->
        fun r ->
          let i = index r in
          if i < 0 || i >= slen then oob_shared i;
          set shared i (get r z)
    | K c ->
        fun r ->
          let i = index r in
          if i < 0 || i >= slen then oob_shared i;
          set shared i c
  in
  let atom op space d base idx v : int array -> unit =
    let f = exec_atomop op in
    let base = value base and idx = value idx and v = value v in
    match (space : Kir.space) with
    | Shared ->
        fun r ->
          let i = base r + idx r in
          if i < 0 || i >= slen then oob_shared i;
          let old = get shared i in
          set shared i (f old (v r));
          set r d old
    | Global ->
        fun r ->
          let h = base r in
          let arr = buffer_data h in
          let i = idx r in
          if i < 0 || i >= Array.length arr then oob_global h i (Array.length arr);
          let old =
            if locked then begin
              let m = atom_stripes.(stripe_of ~buf:h ~idx:i) in
              Mutex.lock m;
              let old = get arr i in
              set arr i (f old (v r));
              Mutex.unlock m;
              old
            end
            else begin
              let old = get arr i in
              set arr i (f old (v r));
              old
            end
          in
          set r d old
  in
  (* [add t, x, K] followed by an access indexed by [t], as one closure
     that writes [t] before the access is bounds-checked, as the two
     closures would. Only the fast shapes fuse: a global access whose
     base binds a live buffer, a shared access whose other address
     operand is constant. *)
  let fuse_access t x n : Kir.instr -> (int array -> unit) option = function
    | Ld { space = Global; dst; base; idx; _ } -> (
        match (src base, src idx) with
        | K h, R y when y = t ->
            Option.map
              (fun arr ->
                let len = Array.length arr in
                fun r ->
                  let i = get r x + n in
                  set r t i;
                  if i < 0 || i >= len then oob_global h i len;
                  set r dst (get arr i))
              (bound h)
        | _ -> None)
    | St { space = Global; base; idx; src = v; _ } -> (
        match (src base, src idx, src v) with
        | K h, R y, R z when y = t ->
            Option.map
              (fun arr ->
                let len = Array.length arr in
                fun r ->
                  let i = get r x + n in
                  set r t i;
                  if i < 0 || i >= len then oob_global h i len;
                  set arr i (get r z))
              (bound h)
        | K h, R y, K c when y = t ->
            Option.map
              (fun arr ->
                let len = Array.length arr in
                fun r ->
                  let i = get r x + n in
                  set r t i;
                  if i < 0 || i >= len then oob_global h i len;
                  set arr i c)
              (bound h)
        | _ -> None)
    | Ld { space = Shared; dst; base; idx; _ } -> (
        match addr (src base) (src idx) with
        | A_r (y, c) when y = t ->
            Some
              (fun r ->
                let v = get r x + n in
                set r t v;
                let i = v + c in
                if i < 0 || i >= slen then oob_shared i;
                set r dst (get shared i))
        | _ -> None)
    | St { space = Shared; base; idx; src = v; _ } -> (
        match (addr (src base) (src idx), src v) with
        | A_r (y, c), R z when y = t ->
            Some
              (fun r ->
                let v = get r x + n in
                set r t v;
                let i = v + c in
                if i < 0 || i >= slen then oob_shared i;
                set shared i (get r z))
        | A_r (y, c), K w when y = t ->
            Some
              (fun r ->
                let v = get r x + n in
                set r t v;
                let i = v + c in
                if i < 0 || i >= slen then oob_shared i;
                set shared i w)
        | _ -> None)
    | _ -> None
  in
  let op (ins : Kir.instr) : int array -> unit =
    match ins with
    | Mov (d, a) -> (
        match src a with
        | R x -> fun r -> set r d (get r x)
        | K v -> fun r -> set r d v)
    | Bin (o, d, a, b) -> bin o d (src a) (src b)
    | Un (o, d, a) -> (
        let f = unop_fn o in
        match src a with
        | R x -> fun r -> set r d (f (get r x))
        | K v -> fun r -> set r d (f v))
    | Cmp (c, d, a, b) -> cmp c d (src a) (src b)
    | Sel (d, c, a, b) -> (
        match (src c, src a, src b) with
        | R c, R x, R y ->
            fun r -> set r d (if get r c <> 0 then get r x else get r y)
        | c, a, b ->
            let c = value c and a = value a and b = value b in
            fun r -> set r d (if c r <> 0 then a r else b r))
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
  let branch c l ~taken_if_zero ~fall =
    let taken v = if taken_if_zero then v = 0 else v <> 0 in
    if l >= 0 && l < Array.length labels then
      let t = labels.(l) in
      match src c with
      | R x when taken_if_zero -> Next (fun r -> if get r x = 0 then t else fall)
      | R x -> Next (fun r -> if get r x <> 0 then t else fall)
      | K v -> Goto (if taken v then t else fall)
    else
      let c = value (src c) in
      Next (fun r -> if taken (c r) then labels.(l) else fall)
  in
  let exit_of pc : Kir.instr -> exit = function
    | Br l ->
        if l >= 0 && l < Array.length labels then Goto labels.(l)
        else Next (fun _ -> labels.(l))
    | Brz (c, l) -> branch c l ~taken_if_zero:true ~fall:(pc + 1)
    | Brnz (c, l) -> branch c l ~taken_if_zero:false ~fall:(pc + 1)
    | Bar -> Barrier (pc + 1)
    | Ret -> Return
    | Trap (f, needed) -> (
        match needed with
        | None -> Next (fun _ -> Fault.raise_ (Fault.set_kernel kname f))
        | Some n ->
            let n = value (src n) in
            Next
              (fun r ->
                Fault.raise_ (Fault.set_kernel kname (Fault.set_needed (n r) f))))
    | _ -> assert false
  in
  (* a register outside the register file raises when its instruction
     executes, as an array access would *)
  let bad_regs ins =
    not
      (List.for_all in_range
         (Option.to_list (Kir.defined_reg ins)
         @ List.filter_map
             (function Kir.Reg x -> Some x | Kir.Imm _ -> None)
             (Kir.used_operands ins)))
  in
  let bad_reg _ = invalid_arg "index out of bounds" in
  let op ins = if bad_regs ins then bad_reg else op ins in
  let fuse (a : Kir.instr) b =
    match a with
    | Bin (Add, t, x, y) when not (bad_regs a || bad_regs b) -> (
        match (src x, src y) with
        | R x, K n | K n, R x -> fuse_access t x n b
        | _ -> None)
    | _ -> None
  in
  let exit_of pc ins = if bad_regs ins then Next bad_reg else exit_of pc ins in
  let nb = Array.length lay.starts in
  Array.init nb (fun b ->
      let s = lay.starts.(b) in
      let stop = if b + 1 < nb then lay.starts.(b + 1) else n in
      let last = body.(stop - 1) in
      let straight = if ends_block last then stop - 1 else stop in
      let rec ops pc acc =
        if pc >= straight then Array.of_list (List.rev acc)
        else
          match if pc + 1 < straight then fuse body.(pc) body.(pc + 1) else None with
          | Some f -> ops (pc + 2) (f :: acc)
          | None -> ops (pc + 1) (op body.(pc) :: acc)
      in
      let ops = ops s [] in
      let steps =
        if Array.length ops = straight - s then Lazy.from_val ops
        else lazy (Array.init (straight - s) (fun i -> op body.(s + i)))
      in
      {
        ops;
        steps;
        len = stop - s;
        exit = (if straight < stop then exit_of (stop - 1) last else Goto stop);
      })

let observer = Atomic.make None

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
  let n_instr = Array.length k.body in
  let lay = layout k in
  let n_blocks = Array.length lay.starts in
  (* Each CTA gets an even slice of the instruction budget so infinite-loop
     detection fires regardless of how CTAs are scheduled over workers. *)
  let budget_slice = max 1 ((max_instructions + grid - 1) / grid) in
  let exhausted () = Fault.raise_ (Fault.Budget_exhausted { kernel = k.kname }) in
  (* Per-worker state: one CTA's register file, shared memory and thread
     bookkeeping, reused (and re-zeroed) across the CTAs a worker executes
     so the interpreter does not churn the GC with per-CTA allocation; the
     blocks compiled against that shared memory; and the worker's block
     entry counts. *)
  let make_worker ~locked =
    let shared = Array.make (max k.shared_words 1) 0 in
    let blocks =
      compile k lay ~mem ~params ~grid ~cta ~shared
        ~buffer_data:(make_buffer_cache mem k) ~locked
    in
    let regs = Array.init cta (fun _ -> Array.make (max k.reg_count 1) 0) in
    let pcs = Array.make cta 0 in
    let status = Array.make cta st_running in
    let counts = Array.make (max n_blocks 1) 0 in
    (* Execute one CTA to completion, counting block entries. *)
    let exec_cta ctaid =
      let budget = ref budget_slice in
      Array.fill shared 0 (Array.length shared) 0;
      Array.fill pcs 0 cta 0;
      Array.fill status 0 cta st_running;
      for tid = 0 to cta - 1 do
        let r = regs.(tid) in
        Array.fill r 0 (Array.length r) 0;
        r.(Kir.reg_tid) <- tid;
        r.(Kir.reg_ctaid) <- ctaid;
        r.(Kir.reg_ntid) <- cta;
        r.(Kir.reg_nctaid) <- grid;
        Array.iteri (fun i v -> r.(Kir.param_reg i) <- v) params
      done;
      let live = ref cta in
      (* Run one thread until it hits a barrier or returns. A block whose
         length is below the remaining budget is charged on entry; otherwise
         it is charged per instruction, so exhaustion fires before the same
         instruction, after the same side effects, as per-instruction
         charging would. *)
      let run_thread tid =
        let r = regs.(tid) in
        let pc = ref pcs.(tid) in
        let running = ref true in
        while !running do
          let p = !pc in
          if p < 0 || p >= n_instr then
            invalid_launch (Printf.sprintf "pc %d out of range" p);
          let bi = get lay.block_of p in
          let b = Array.unsafe_get blocks bi in
          set counts bi (get counts bi + 1);
          let ops = b.ops in
          if !budget > b.len then begin
            budget := !budget - b.len;
            for i = 0 to Array.length ops - 1 do
              (Array.unsafe_get ops i) r
            done
          end
          else begin
            let steps = Lazy.force b.steps in
            for i = 0 to Array.length steps - 1 do
              decr budget;
              if !budget <= 0 then exhausted ();
              (Array.unsafe_get steps i) r
            done;
            if b.len > Array.length steps then begin
              decr budget;
              if !budget <= 0 then exhausted ()
            end
          end;
          match b.exit with
          | Goto next -> pc := next
          | Next f -> pc := f r
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
      while !live > 0 do
        for tid = 0 to cta - 1 do
          if status.(tid) = st_running then run_thread tid
        done;
        (* all live threads are now at a barrier: release them together *)
        for tid = 0 to cta - 1 do
          if status.(tid) = st_at_bar then status.(tid) <- st_running
        done
      done
    in
    (exec_cta, counts)
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
  let jobs = max 1 (min jobs grid) in
  if jobs = 1 then begin
    let counts = ref [||] in
    (* routed through the pool's sequential shortcut (it runs the body on
       this domain) so the worker-0 wall lane exists at any jobs count *)
    Domain_pool.run ~cancel ~trace ~jobs:1 (fun _ ->
        let exec_cta, c = make_worker ~locked:false in
        try
          for ctaid = 0 to grid - 1 do
            (* same checkpoint cadence as the per-CTA budget slice: a fired
               token stops the launch before the next CTA starts *)
            Cancel.check cancel;
            exec_cta ctaid
          done;
          counts := c
        with Fault.Error f -> raise (named f));
    finish !counts
  end
  else begin
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
       its message) is identical to the sequential schedule's. *)
    let first_error = Atomic.make None in
    let record_error ctaid e =
      let rec cas () =
        let cur = Atomic.get first_error in
        let keep =
          match cur with None -> true | Some (c, _) -> ctaid < c
        in
        if keep && not (Atomic.compare_and_set first_error cur (Some (ctaid, e)))
        then cas ()
      in
      cas ()
    in
    Domain_pool.run ~cancel ~trace ~jobs (fun w ->
        let exec_cta, counts = make_worker ~locked:true in
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
        worker_counts.(w) <- counts);
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
  end
