(* The -O3 register allocator. Every launch of the golden workloads and
   of random plans is replayed twice, with the kernel -O3 makes before
   allocation and with the allocated one, at jobs 1 and 4 and under
   several budgets: final memory, Stats, per-pc profile and fault must be
   identical. The launches are observed on an -O0 run, where the runtime
   launches each raw kernel with the gate's store fact, so both -O3
   forms are built from the very kernel the launch ran. Hand-built
   kernels pin the two liveness cases the allocator must get right, a
   value live across a loop back edge and a register read before it is
   written, and a parameter that dies before the values defined after
   it, which must not take its register. *)

open Gpu_sim
module D = Test_interp_diff

let fixed (k : Kir.kernel) = Kir.param_reg k.params

(* registers the allocated kernel names beyond specials and parameters *)
let allocated (k : Kir.kernel) = k.reg_count - fixed k

(* No value moves into a special or parameter register: the interpreter
   folds an unwritten parameter to its launch value, and a batched launch
   needs its buffer handles folded. *)
let check_fixed ~what (raw : Kir.kernel) (k1 : Kir.kernel) =
  Array.iteri
    (fun pc ins ->
      match Kir.defined_reg ins with
      | Some d when d < fixed k1 && Kir.defined_reg raw.body.(pc) <> Some d ->
          Alcotest.failf "%s/%s: pc %d writes r%d" what k1.kname pc d
      | _ -> ())
    k1.Kir.body

(* Run [k0] and [k1] on copies of [mem]; both must agree on outcome and,
   when the launch completed (or at jobs 1), on final memory. *)
let same_launch ~label ?max_instructions mem k0 k1 ~params ~grid ~cta =
  List.iter
    (fun jobs ->
      let run k =
        let m = D.clone mem in
        let got =
          D.execute
            (fun ~profile m ->
              Interp.run ?max_instructions ~profile ~jobs m k ~params ~grid ~cta)
            m k
        in
        (got, D.contents m)
      in
      let o0, m0 = run k0 and o1, m1 = run k1 in
      let label =
        Printf.sprintf "%s: %s jobs=%d budget=%s" label k0.Kir.kname jobs
          (match max_instructions with Some b -> string_of_int b | None -> "default")
      in
      if not (D.same_outcome o0 o1) then
        Alcotest.failf "%s: unallocated %s, allocated %s" label (D.outcome_str o0)
          (D.outcome_str o1);
      let compare_mem = match o0 with D.Done _ -> true | _ -> jobs = 1 in
      if compare_mem && m0 <> m1 then Alcotest.failf "%s: final memory differs" label)
    [ 1; 4 ]

(* Observe every launch [run] makes; replay each under both -O3 forms of
   its kernel, and under budget probes when it is small enough. Returns
   the distinct (raw, allocated) kernel pairs seen. *)
let replay_all ~what ?(budget_limit = 200_000) run =
  let seen = Hashtbl.create 16 in
  Interp.with_launch_observer
    (fun mem k ~params ~grid ~cta ->
      let k0 = Weaver.Optimizer.simplify k in
      let k1 = Weaver.Optimizer.optimize Weaver.Optimizer.O3 k in
      Alcotest.(check bool)
        (what ^ ": optimize O3 = allocate . simplify")
        true
        (k1 = Weaver.Optimizer.allocate k0);
      check_fixed ~what k0 k1;
      Hashtbl.replace seen k.Kir.kname (k, k1);
      let total =
        match Interp.run (D.clone mem) k0 ~params ~grid ~cta with
        | s -> s.Stats.instructions
        | exception Fault.Error _ -> budget_limit + 1
      in
      same_launch ~label:what mem k0 k1 ~params ~grid ~cta;
      if total <= budget_limit then
        List.iter
          (fun max_instructions ->
            same_launch ~label:what ~max_instructions mem k0 k1 ~params ~grid ~cta)
          (D.budget_probes ~grid ~total))
    run;
  Alcotest.(check bool) (what ^ " launched kernels") true (Hashtbl.length seen > 0);
  Hashtbl.fold (fun name ks acc -> (name, ks) :: acc) seen []

let test_goldens () =
  List.iter
    (fun (name, plan, bases) ->
      let kernels =
        replay_all ~what:name (fun () ->
            let program = Weaver.Driver.compile ~opt:Weaver.Optimizer.O0 plan in
            ignore (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident))
      in
      List.iter
        (fun (kname, ((raw : Kir.kernel), (k1 : Kir.kernel))) ->
          if allocated k1 > raw.regs_per_thread then
            Alcotest.failf "%s/%s: %d allocated registers > regs_per_thread %d" name
              kname (allocated k1) raw.regs_per_thread;
          if name = "Q21" && kname = "group0_compute" && k1.reg_count > 64 then
            Alcotest.failf "Q21/group0_compute runs on %d registers" k1.reg_count)
        kernels)
    (D.goldens ())

let test_random_plans () =
  List.iter
    (fun seed ->
      let { Test_property.plan; bases; desc } = Test_property.build_random seed in
      ignore
        (replay_all ~what:desc (fun () ->
             let program = Weaver.Driver.compile ~opt:Weaver.Optimizer.O0 plan in
             ignore (Weaver.Runtime.run_result program bases ~mode:Weaver.Runtime.Resident))))
    [ 3; 17; 101; 2024; 31337; 65535 ]

(* Run a hand-built kernel and its allocation at jobs 1 and 4 under
   every budget from 1 to completion. *)
let check_hand ~what ?(grid = 2) ~cta k ~params ~words =
  let k1 = Weaver.Optimizer.allocate k in
  let mem = Memory.create D.device in
  let outs = Array.map (fun w -> D.alloc mem w) words in
  let params = Array.append outs params in
  let total = (Interp.run (D.clone mem) k ~params ~grid ~cta).Stats.instructions in
  for b = 1 to total + 1 do
    same_launch ~label:what ~max_instructions:b mem k k1 ~params ~grid ~cta
  done;
  same_launch ~label:what mem k k1 ~params ~grid ~cta;
  ignore (Interp.run mem k1 ~params ~grid ~cta);
  (k1, Array.map (fun h -> Array.copy (Memory.data mem h)) outs)

(* [v] is defined before the loop and read at the top of its body; [w] is
   defined after that read, so [v] outlives [w]'s definition only around
   the back edge. A liveness that ignored back edges would let [w] take
   [v]'s register, and the second iteration would store [w]'s value. *)
let test_loop_back_edge () =
  let b = Kir_builder.create ~name:"loop_carried" ~params:3 () in
  let open Kir_builder in
  let row = bin b Kir.Mul (Kir.Reg (bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid ntid)) tid)) (Kir.Imm 4) in
  let v = bin b Kir.Add (Kir.Reg (bin b Kir.Mul tid (Kir.Imm 7))) (Kir.Imm 3) in
  for_range b ~start:(Kir.Imm 0) ~stop:(Kir.Imm 4) ~step:(Kir.Imm 1) (fun i ->
      let at = bin b Kir.Add (Kir.Reg row) (Kir.Reg i) in
      st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg at) ~src:(Kir.Reg v) ~width:4;
      let w = bin b Kir.Mul (Kir.Reg i) (param b 2) in
      st b Kir.Global ~base:(param b 1) ~idx:(Kir.Reg at) ~src:(Kir.Reg w) ~width:4);
  let k = finish b in
  let k1, outs = check_hand ~what:"loop" ~cta:4 k ~params:[| 5 |] ~words:[| 32; 32 |] in
  Alcotest.(check bool) "registers reused" true (k1.Kir.reg_count < k.Kir.reg_count);
  Alcotest.(check (array int)) "v stored every iteration"
    (Array.init 32 (fun j -> ((j / 4 mod 4) * 7) + 3))
    outs.(0);
  Alcotest.(check (array int)) "w stored" (Array.init 32 (fun j -> j mod 4 * 5)) outs.(1)

(* [acc] is read at the top of a loop before anything writes it: the
   first iteration reads the zeroed register file. It is live at entry,
   so it keeps a register of its own, which no other value may share
   before the loop writes it. *)
let test_read_before_write () =
  let b = Kir_builder.create ~name:"read_first" ~params:1 () in
  let open Kir_builder in
  let acc = fresh b in
  let row = bin b Kir.Mul (Kir.Reg (bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid ntid)) tid)) (Kir.Imm 3) in
  for_range b ~start:(Kir.Imm 0) ~stop:(Kir.Imm 3) ~step:(Kir.Imm 1) (fun i ->
      let t = bin b Kir.Add (Kir.Reg i) (Kir.Imm 10) in
      let at = bin b Kir.Add (Kir.Reg row) (Kir.Reg i) in
      st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg at) ~src:(Kir.Reg acc) ~width:4;
      bin_to b acc Kir.Add (Kir.Reg t) tid);
  let k = finish b in
  let k1, outs = check_hand ~what:"read first" ~cta:3 k ~params:[||] ~words:[| 18 |] in
  Alcotest.(check bool) "registers reused" true (k1.Kir.reg_count < k.Kir.reg_count);
  Alcotest.(check (array int)) "zero, then the previous iteration's value"
    (Array.init 18 (fun j ->
         let i = j mod 3 and tid = j / 3 mod 3 in
         if i = 0 then 0 else i - 1 + 10 + tid))
    outs.(0)

(* Specials and parameters keep their numbers even after their last
   use: [param 1] dies at the first store, and the values defined after
   it must not take its register. Allocation is a function of the
   kernel. *)
let test_fixed_registers () =
  let b = Kir_builder.create ~name:"params_early" ~params:2 () in
  let open Kir_builder in
  let x = ld b Kir.Global ~base:(param b 1) ~idx:tid ~width:4 in
  let y = bin b Kir.Mul (Kir.Reg x) (Kir.Imm 2) in
  let z = bin b Kir.Add (Kir.Reg y) tid in
  let u = bin b Kir.Mul (Kir.Reg z) (Kir.Reg x) in
  st b Kir.Global ~base:(param b 0) ~idx:tid ~src:(Kir.Reg u) ~width:4;
  let k = finish b in
  let k1 = Weaver.Optimizer.allocate k in
  Alcotest.(check bool) "deterministic" true (k1 = Weaver.Optimizer.allocate k);
  check_fixed ~what:"hand-built" k k1;
  ignore (check_hand ~what:"params" ~cta:4 k ~params:[||] ~words:[| 8; 8 |])

let suite =
  [
    Alcotest.test_case "goldens: allocated = unallocated" `Slow test_goldens;
    Alcotest.test_case "random plans: allocated = unallocated" `Slow test_random_plans;
    Alcotest.test_case "value live across a back edge" `Quick test_loop_back_edge;
    Alcotest.test_case "register read before written" `Quick test_read_before_write;
    Alcotest.test_case "specials and parameters fixed" `Quick test_fixed_registers;
  ]
