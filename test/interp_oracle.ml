(* The reference KIR interpreter: a tree-walker that matches every
   instruction, resolves every operand and bumps the Stats counters (and the
   optional per-pc profile) once per executed instruction. It is the
   differential oracle for the block-compiled [Gpu_sim.Interp.run] and
   exists only here; it runs CTAs sequentially in index order, which the
   parallel schedule of [Interp.run] must reproduce bit for bit. *)

open Gpu_sim

let div_zero () = Fault.raise_ (Fault.Div_by_zero { kernel = "" })
let f32_of_bits v = Int32.float_of_bits (Int32.of_int v)
let bits_of_f32 f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let exec_binop op a b =
  match (op : Kir.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then div_zero () else a / b
  | Rem -> if b = 0 then div_zero () else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Min -> min a b
  | Max -> max a b
  | Fadd -> bits_of_f32 (f32_of_bits a +. f32_of_bits b)
  | Fsub -> bits_of_f32 (f32_of_bits a -. f32_of_bits b)
  | Fmul -> bits_of_f32 (f32_of_bits a *. f32_of_bits b)
  | Fdiv -> bits_of_f32 (f32_of_bits a /. f32_of_bits b)
  | Fmin -> bits_of_f32 (Float.min (f32_of_bits a) (f32_of_bits b))
  | Fmax -> bits_of_f32 (Float.max (f32_of_bits a) (f32_of_bits b))

let exec_unop op a =
  match (op : Kir.unop) with
  | Not -> if a = 0 then 1 else 0
  | Neg -> -a
  | Fneg -> bits_of_f32 (-.f32_of_bits a)
  | I2f -> bits_of_f32 (float_of_int a)
  | F2i -> int_of_float (f32_of_bits a)

let exec_cmp c a b =
  let r =
    match (c : Kir.cmp) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Feq -> f32_of_bits a = f32_of_bits b
    | Fne -> f32_of_bits a <> f32_of_bits b
    | Flt -> f32_of_bits a < f32_of_bits b
    | Fle -> f32_of_bits a <= f32_of_bits b
    | Fgt -> f32_of_bits a > f32_of_bits b
    | Fge -> f32_of_bits a >= f32_of_bits b
  in
  if r then 1 else 0

let exec_atomop op old v =
  match (op : Kir.atomop) with
  | Atom_add -> old + v
  | Atom_min -> min old v
  | Atom_max -> max old v
  | Atom_exch -> v

let st_running = 0
let st_at_bar = 1
let st_done = 2

(* Same contract as [Interp.run] at [jobs = 1], without cancellation or
   tracing. The profile, when given, is bumped as instructions execute, so
   after a fault it holds the counts up to and including the faulting
   instruction. *)
let run ?(max_instructions = 2_000_000_000) ?profile mem (k : Kir.kernel)
    ~params ~grid ~cta =
  let invalid_launch reason =
    Fault.raise_ (Fault.Invalid_launch { kernel = k.kname; reason })
  in
  if Array.length params <> k.params then
    invalid_launch
      (Printf.sprintf "expects %d params, got %d" k.params (Array.length params));
  if grid <= 0 || cta <= 0 then invalid_launch "empty launch";
  let oob ~space ~buffer ~index ~length =
    Fault.raise_
      (Fault.Out_of_bounds { kernel = k.kname; space; buffer; index; length })
  in
  let buffer_data id =
    try Memory.data mem id
    with Not_found | Invalid_argument _ ->
      Fault.raise_ (Fault.Invalid_handle { kernel = k.kname; handle = id })
  in
  let body = k.body in
  let n_instr = Array.length body in
  let labels = k.labels in
  let budget_slice = max 1 ((max_instructions + grid - 1) / grid) in
  let stats = Stats.create () in
  let exec_cta ctaid =
    let budget = ref budget_slice in
    let shared = Array.make (max k.shared_words 1) 0 in
    let regs = Array.init cta (fun _ -> Array.make (max k.reg_count 1) 0) in
    let pcs = Array.make cta 0 in
    let status = Array.make cta st_running in
    for tid = 0 to cta - 1 do
      let r = regs.(tid) in
      r.(Kir.reg_tid) <- tid;
      r.(Kir.reg_ctaid) <- ctaid;
      r.(Kir.reg_ntid) <- cta;
      r.(Kir.reg_nctaid) <- grid;
      Array.iteri (fun i v -> r.(Kir.param_reg i) <- v) params
    done;
    let live = ref cta in
    let run_thread tid =
      let r = regs.(tid) in
      let value = function Kir.Reg x -> r.(x) | Kir.Imm n -> n in
      let pc = ref pcs.(tid) in
      let continue = ref true in
      while !continue do
        if !pc < 0 || !pc >= n_instr then
          invalid_launch (Printf.sprintf "pc %d out of range" !pc);
        decr budget;
        if !budget <= 0 then
          Fault.raise_ (Fault.Budget_exhausted { kernel = k.kname });
        stats.instructions <- stats.instructions + 1;
        (match profile with Some c -> c.(!pc) <- c.(!pc) + 1 | None -> ());
        let ins = body.(!pc) in
        incr pc;
        match ins with
        | Mov (d, a) ->
            stats.alu_ops <- stats.alu_ops + 1;
            r.(d) <- value a
        | Bin (op, d, a, b) ->
            stats.alu_ops <- stats.alu_ops + 1;
            r.(d) <- exec_binop op (value a) (value b)
        | Un (op, d, a) ->
            stats.alu_ops <- stats.alu_ops + 1;
            r.(d) <- exec_unop op (value a)
        | Cmp (c, d, a, b) ->
            stats.alu_ops <- stats.alu_ops + 1;
            r.(d) <- exec_cmp c (value a) (value b)
        | Sel (d, c, a, b) ->
            stats.alu_ops <- stats.alu_ops + 1;
            r.(d) <- (if value c <> 0 then value a else value b)
        | Ld { space = Global; dst; base; idx; width } ->
            let arr = buffer_data (value base) in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some (value base)) ~index:i
                ~length:(Array.length arr);
            r.(dst) <- arr.(i);
            stats.global_loads <- stats.global_loads + 1;
            stats.global_load_bytes <- stats.global_load_bytes + width
        | Ld { space = Shared; dst; base; idx; width } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            r.(dst) <- shared.(i);
            stats.shared_loads <- stats.shared_loads + 1;
            stats.shared_load_bytes <- stats.shared_load_bytes + width
        | St { space = Global; base; idx; src; width } ->
            let arr = buffer_data (value base) in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some (value base)) ~index:i
                ~length:(Array.length arr);
            arr.(i) <- value src;
            stats.global_stores <- stats.global_stores + 1;
            stats.global_store_bytes <- stats.global_store_bytes + width
        | St { space = Shared; base; idx; src; width } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            shared.(i) <- value src;
            stats.shared_stores <- stats.shared_stores + 1;
            stats.shared_store_bytes <- stats.shared_store_bytes + width
        | Atom { op; space = Shared; dst; base; idx; src } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            let old = shared.(i) in
            shared.(i) <- exec_atomop op old (value src);
            r.(dst) <- old;
            stats.atomics <- stats.atomics + 1
        | Atom { op; space = Global; dst; base; idx; src } ->
            let b = value base in
            let arr = buffer_data b in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some b) ~index:i
                ~length:(Array.length arr);
            let old = arr.(i) in
            arr.(i) <- exec_atomop op old (value src);
            r.(dst) <- old;
            stats.atomics <- stats.atomics + 1
        | Br l ->
            stats.branches <- stats.branches + 1;
            pc := labels.(l)
        | Brz (c, l) ->
            stats.branches <- stats.branches + 1;
            if value c = 0 then pc := labels.(l)
        | Brnz (c, l) ->
            stats.branches <- stats.branches + 1;
            if value c <> 0 then pc := labels.(l)
        | Bar ->
            status.(tid) <- st_at_bar;
            stats.barrier_waits <- stats.barrier_waits + 1;
            continue := false
        | Ret ->
            status.(tid) <- st_done;
            decr live;
            continue := false
        | Trap (f, needed) ->
            let f =
              match needed with
              | Some n -> Fault.set_needed (value n) f
              | None -> f
            in
            Fault.raise_ (Fault.set_kernel k.kname f)
      done;
      pcs.(tid) <- !pc
    in
    while !live > 0 do
      for tid = 0 to cta - 1 do
        if status.(tid) = st_running then run_thread tid
      done;
      for tid = 0 to cta - 1 do
        if status.(tid) = st_at_bar then status.(tid) <- st_running
      done
    done
  in
  (try
     for ctaid = 0 to grid - 1 do
       exec_cta ctaid
     done
   with Fault.Error f -> raise (Fault.Error (Fault.set_kernel k.kname f)));
  stats
