type t = {
  name : string;
  params : int;
  mutable next_reg : int;
  mutable next_label : int;
  mutable label_pos : (int * int) list;  (** label id, instruction index *)
  mutable shared_words : int;
  mutable shared_bytes : int;
  mutable body_rev : Kir.instr list;
  mutable body_len : int;
  mutable cur_ops : int list;  (** provenance stamped on emitted instrs *)
  mutable prov_rev : int list list;
}

let create ?(name = "kernel") ~params () =
  {
    name;
    params;
    next_reg = Kir.special_regs + params;
    next_label = 0;
    label_pos = [];
    shared_words = 0;
    shared_bytes = 0;
    body_rev = [];
    body_len = 0;
    cur_ops = [];
    prov_rev = [];
  }

let set_ops b ops = b.cur_ops <- List.sort_uniq compare ops
let current_ops b = b.cur_ops

let with_ops b ops f =
  let saved = b.cur_ops in
  set_ops b ops;
  match f () with
  | r ->
      b.cur_ops <- saved;
      r
  | exception e ->
      b.cur_ops <- saved;
      raise e

let fresh b =
  let r = b.next_reg in
  b.next_reg <- r + 1;
  r

let param b i =
  if i < 0 || i >= b.params then
    invalid_arg (Printf.sprintf "Kir_builder.param: %d out of range" i)
  else Kir.Reg (Kir.param_reg i)

let tid = Kir.Reg Kir.reg_tid
let ctaid = Kir.Reg Kir.reg_ctaid
let ntid = Kir.Reg Kir.reg_ntid
let nctaid = Kir.Reg Kir.reg_nctaid

let alloc_shared b ~words ~bytes =
  let base = b.shared_words in
  b.shared_words <- b.shared_words + words;
  b.shared_bytes <- b.shared_bytes + bytes;
  Kir.Imm base

let emit b ins =
  b.body_rev <- ins :: b.body_rev;
  b.prov_rev <- b.cur_ops :: b.prov_rev;
  b.body_len <- b.body_len + 1

let mov_to b r a = emit b (Kir.Mov (r, a))

let mov b a =
  let r = fresh b in
  mov_to b r a;
  r

let bin_to b r op a c = emit b (Kir.Bin (op, r, a, c))

let bin b op a c =
  let r = fresh b in
  bin_to b r op a c;
  r

let un b op a =
  let r = fresh b in
  emit b (Kir.Un (op, r, a));
  r

let cmp b c a a' =
  let r = fresh b in
  emit b (Kir.Cmp (c, r, a, a'));
  r

let sel b c a a' =
  let r = fresh b in
  emit b (Kir.Sel (r, c, a, a'));
  r

let ld b space ~base ~idx ~width =
  let dst = fresh b in
  emit b (Kir.Ld { space; dst; base; idx; width });
  dst

let st b space ~base ~idx ~src ~width =
  emit b (Kir.St { space; base; idx; src; width })

let atom b op space ~base ~idx ~src =
  let dst = fresh b in
  emit b (Kir.Atom { op; space; dst; base; idx; src });
  dst

let bar b = emit b Kir.Bar
let ret b = emit b Kir.Ret

let new_label b =
  let l = b.next_label in
  b.next_label <- l + 1;
  l

let place b l =
  if List.mem_assoc l b.label_pos then
    invalid_arg
      (Printf.sprintf "Kir_builder.place: label L%d already placed in %s" l
         b.name);
  b.label_pos <- (l, b.body_len) :: b.label_pos
let br b l = emit b (Kir.Br l)
let brz b c l = emit b (Kir.Brz (c, l))
let brnz b c l = emit b (Kir.Brnz (c, l))

let if_ b cond body =
  let skip = new_label b in
  brz b cond skip;
  body ();
  place b skip

let if_else b cond then_ else_ =
  let lelse = new_label b and lend = new_label b in
  brz b cond lelse;
  then_ ();
  br b lend;
  place b lelse;
  else_ ();
  place b lend

let while_ b ~cond ~body =
  let head = new_label b and exit = new_label b in
  place b head;
  let c = cond () in
  brz b c exit;
  body ();
  br b head;
  place b exit

let for_range b ~start ~stop ~step f =
  let i = mov b start in
  let head = new_label b and exit = new_label b in
  place b head;
  let c = cmp b Kir.Lt (Reg i) stop in
  brz b (Reg c) exit;
  f i;
  bin_to b i Kir.Add (Reg i) step;
  br b head;
  place b exit

let finish ?regs_per_thread b =
  (* kernels always terminate; add a final Ret so fallthrough is safe —
     it belongs to no operator *)
  b.cur_ops <- [];
  ret b;
  let body = Array.of_list (List.rev b.body_rev) in
  let prov = Array.of_list (List.rev b.prov_rev) in
  let labels = Array.make b.next_label (-1) in
  List.iter (fun (l, pos) -> labels.(l) <- pos) b.label_pos;
  Array.iteri
    (fun l pos ->
      if pos < 0 then
        invalid_arg
          (Printf.sprintf "Kir_builder.finish: label L%d never placed in %s" l
             b.name))
    labels;
  let regs_per_thread =
    match regs_per_thread with
    | Some r -> r
    | None -> min 63 (12 + b.params)
  in
  {
    Kir.kname = b.name;
    params = b.params;
    reg_count = b.next_reg;
    regs_per_thread;
    shared_words = b.shared_words;
    shared_bytes = b.shared_bytes;
    body;
    labels;
    prov;
    stores_disjoint = false;
  }
