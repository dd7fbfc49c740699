(* Differential tests of the block-compiled interpreter against the
   tree-walking oracle (Interp_oracle): every launch of the golden
   workloads and of random plans is replayed on copies of device memory
   under both, at jobs 1 and 4, and must agree on final memory, Stats,
   per-pc profile, fault payload and the instruction at which the budget
   runs out. Certified launches run on the thread-batched schedule, and
   the goldens must show that they did. Hand-built kernels pin the edge
   cases of block compilation and of batching. *)

open Gpu_sim

let device = Device.fermi_c2050

(* A copy of [mem] with the same handles: live buffers with their words,
   dead handles dead. *)
let clone mem =
  let live = Memory.live_buffers mem in
  let top = List.fold_left (fun acc (h, _) -> max acc h) 0 live in
  let m = Memory.create device in
  for h = 1 to top do
    let is_live = Memory.is_live mem h in
    let words = if is_live then Memory.words mem h else 0 in
    let bytes = if is_live then Memory.bytes mem h else 0 in
    let h' = Memory.alloc m ~words ~bytes in
    assert (h' = h);
    if is_live then Array.blit (Memory.data mem h) 0 (Memory.data m h) 0 words
    else Memory.free m h
  done;
  m

let contents mem =
  List.map (fun (h, _) -> (h, Array.copy (Memory.data mem h))) (Memory.live_buffers mem)

type outcome =
  | Done of Stats.t * int array
  | Faulted of Fault.t
  | Raised of string

let outcome_str = function
  | Done (s, _) -> Format.asprintf "ok (%a)" Stats.pp s
  | Faulted f -> "fault: " ^ Fault.render f
  | Raised e -> "exception: " ^ e

let execute run mem (k : Kir.kernel) =
  let profile = Array.make (max 1 (Kir.instr_count k)) 0 in
  match run ~profile mem with
  | stats -> Done (stats, profile)
  | exception Fault.Error f -> Faulted f
  | exception e -> Raised (Printexc.to_string e)

let same_outcome a b =
  match (a, b) with
  | Done (s1, p1), Done (s2, p2) -> Stats.equal s1 s2 && p1 = p2
  | Faulted f1, Faulted f2 -> Fault.equal f1 f2
  | Raised e1, Raised e2 -> e1 = e2
  | _ -> false

(* The sum of one integer argument of the interpreter's worker-lane
   spans: [batched] counts CTAs run on the batched schedule,
   [barrier_passes] barriers a whole-CTA batch went through unreleased,
   [rescans] the batched schedule's barrier rounds, each one pass over a
   CTA. *)
let span_sum name trace =
  List.fold_left
    (fun acc (e : Weaver_obs.Trace.event) ->
      match List.assoc_opt name e.Weaver_obs.Trace.args with
      | Some (Weaver_obs.Trace.Int n) -> acc + n
      | _ -> acc)
    0
    (Weaver_obs.Trace.events trace)

(* (count, what, kernel) -> the span arguments above and [ctas], the
   launches' grids, of the default-budget jobs = 1 runs of a launch:
   [batched] of the last such run, so a check sees whether its own run
   batched, the others summed over the runs. They are deterministic: a
   worker's spans count only the CTAs it ran. *)
let span_counts = [ "batched"; "barrier_passes"; "rescans"; "ctas" ]
let spans : (string * string * string, int) Hashtbl.t = Hashtbl.create 16

let span_count count what kname =
  Option.value ~default:0 (Hashtbl.find_opt spans (count, what, kname))

let forget what kname =
  List.iter (fun c -> Hashtbl.remove spans (c, what, kname)) span_counts

(* Replay one launch under the oracle and under [Interp.run] at jobs 1
   and 4. Memory is compared after every run that completed, and after a
   fault at jobs 1 (the parallel schedule may have run other CTAs past
   the faulting one). Returns the oracle's outcome. *)
let check_launch ~what ?max_instructions mem k ~params ~grid ~cta =
  let m0 = clone mem in
  let expected =
    execute
      (fun ~profile m ->
        Interp_oracle.run ?max_instructions ~profile m k ~params ~grid ~cta)
      m0 k
  in
  let expected_mem = contents m0 in
  List.iter
    (fun jobs ->
      let m = clone mem in
      let trace = Weaver_obs.Trace.create ~clock:Unix.gettimeofday () in
      let got =
        execute
          (fun ~profile m ->
            Interp.run ?max_instructions ~profile ~jobs ~trace m k ~params
              ~grid ~cta)
          m k
      in
      if jobs = 1 && max_instructions = None then
        List.iter
          (fun c ->
            let n = if c = "ctas" then grid else span_sum c trace in
            let seen = if c = "batched" then 0 else span_count c what k.Kir.kname in
            Hashtbl.replace spans (c, what, k.Kir.kname) (seen + n))
          span_counts;
      let label =
        Printf.sprintf "%s: %s jobs=%d budget=%s" what k.Kir.kname jobs
          (match max_instructions with
          | Some b -> string_of_int b
          | None -> "default")
      in
      if not (same_outcome expected got) then
        Alcotest.failf "%s: oracle %s, compiled %s" label (outcome_str expected)
          (outcome_str got);
      let compare_mem =
        match got with Done _ -> true | _ -> jobs = 1
      in
      if compare_mem && contents m <> expected_mem then
        Alcotest.failf "%s: final memory differs" label)
    [ 1; 4 ];
  expected

(* Budgets that exhaust a launch at a few points: the first instructions
   of the first CTA, and around the midpoint of an even per-CTA slice. *)
let budget_probes ~grid ~total =
  let per_cta = max 1 (total / grid) in
  List.sort_uniq compare
    (List.map (fun s -> s * grid) [ 1; 2; 3; 5; 8; (per_cta / 2) + 1; per_cta ])

(* Observe every launch a run makes and check it; launches up to
   [budget_limit] instructions also get the budget probes. *)
let check_all_launches ~what ?(budget_limit = 200_000) run =
  let launches = ref 0 in
  Interp.with_launch_observer
    (fun mem k ~params ~grid ~cta ->
      incr launches;
      match check_launch ~what mem k ~params ~grid ~cta with
      | Done (stats, _) when stats.Stats.instructions <= budget_limit ->
          List.iter
            (fun max_instructions ->
              ignore
                (check_launch ~what ~max_instructions mem k ~params ~grid ~cta))
            (budget_probes ~grid ~total:stats.Stats.instructions)
      | _ -> ())
    run;
  Alcotest.(check bool) (what ^ " launched kernels") true (!launches > 0)

let goldens () =
  List.map
    (fun (w : Tpch.Patterns.workload) ->
      (w.Tpch.Patterns.name, w.Tpch.Patterns.plan, w.Tpch.Patterns.gen ~seed:5 ~rows:300))
    (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
  @ List.map
      (fun (q : Tpch.Queries.query) ->
        let db = Tpch.Datagen.generate ~seed:5 ~lineitems:300 in
        (q.Tpch.Queries.qname, q.Tpch.Queries.plan, q.Tpch.Queries.bind db))
      [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let test_goldens () =
  let gs = goldens () in
  Alcotest.(check int) "8 goldens" 8 (List.length gs);
  Hashtbl.reset spans;
  List.iter
    (fun (name, plan, bases) ->
      check_all_launches ~what:name (fun () ->
          let program = Weaver.Driver.compile plan in
          ignore (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident)))
    gs;
  (* the comparisons above covered the batched schedule, not only the
     per-thread one *)
  List.iter
    (fun (what, kname) ->
      if span_count "batched" what kname = 0 then
        Alcotest.failf "%s/%s ran no CTA batched" what kname)
    [
      ("Q1", "group0_compute"); ("Q1", "group0_gather0"); ("Q21", "group0_compute");
    ];
  (* ... and the whole-CTA barrier pass, not only the release round *)
  if span_count "barrier_passes" "Q21" "group0_compute" = 0 then
    Alcotest.fail "Q21/group0_compute passed no barrier in one batch";
  (* Q1's compute kernel splits and rejoins within one barrier round per
     CTA *)
  let rescans = span_count "rescans" "Q1" "group0_compute" in
  let ctas = span_count "ctas" "Q1" "group0_compute" in
  if rescans > ctas then
    Alcotest.failf "Q1/group0_compute: %d rescans over %d CTAs" rescans ctas

(* Which threads the batched schedule runs together: an order-free
   digest of every launch [run] makes, each replayed at jobs = 1 on a copy
   of memory, over its block entries in order, each entry's pc and its
   threads as a set. The oracle cannot see this; the digests below are
   those of the schedule that rescanned the CTA after every split, before
   the pending groups. Code generation that changes a golden's kernels
   changes its digest; a change to the schedule alone must not. *)
let schedule_digest run =
  let h = ref 0 in
  let mix x = h := ((!h * 1000003) + x + 1) land 0x3FFFFFFFFFFF in
  Interp.with_launch_observer
    (fun mem k ~params ~grid ~cta ->
      Interp.with_batch_observer
        (fun ~pc ts n ->
          let a = Array.sub ts 0 n in
          Array.sort compare a;
          mix (-1);
          mix pc;
          Array.iter mix a)
        (fun () ->
          match Interp.run ~jobs:1 (clone mem) k ~params ~grid ~cta with
          | _ -> ()
          | exception Fault.Error _ -> mix (-2)))
    run;
  !h

let test_batch_sets () =
  let digests =
    List.map
      (fun (name, plan, bases) ->
        ( name,
          schedule_digest (fun () ->
              let program = Weaver.Driver.compile plan in
              ignore (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident)) ))
      (goldens ())
  in
  Alcotest.(check (list (pair string int)))
    "batched thread sets"
    [
      ("a:3-selects+project", 4351588442803);
      ("b:2-joins", 6581663862874);
      ("c:selects+join", 18073052472663);
      ("d:shared-input-selects", 30175838661916);
      ("e:arithmetic", 2800788824335);
      ("a+b:selects+2-joins", 26561485952193);
      ("Q1", 70178479101729);
      ("Q21", 40090769901806);
    ]
    digests

let test_random_plans () =
  List.iter
    (fun seed ->
      let { Test_property.plan; bases; desc } = Test_property.build_random seed in
      check_all_launches ~what:desc (fun () ->
          let program = Weaver.Driver.compile plan in
          ignore (Weaver.Runtime.run_result program bases ~mode:Weaver.Runtime.Resident)))
    [ 3; 17; 101; 2024; 31337; 65535 ]

(* --- edge cases ------------------------------------------------------------ *)

let alloc mem words = Memory.alloc mem ~words ~bytes:(4 * words)

let raw_kernel ?(params = 1) ?(shared_words = 0) name body =
  {
    Kir.kname = name;
    params;
    reg_count = Kir.param_reg params + 4;
    regs_per_thread = 8;
    shared_words;
    shared_bytes = 4 * shared_words;
    body;
    labels = [||];
    prov = Kir.no_prov;
    stores_disjoint = false;
  }

let fault_of f =
  match f () with
  | _ -> Alcotest.fail "expected a fault"
  | exception Fault.Error e -> e

(* One block of four stores and a Ret: budgets 1..6 exhaust before each
   store in turn (or not at all), and the stores before the exhausting
   instruction — and none after it — must have landed. *)
let test_budget_mid_block () =
  let out = Kir.param_reg 0 in
  let st i = Kir.St { space = Global; base = Reg out; idx = Imm i; src = Imm (i + 1); width = 4 } in
  let k = raw_kernel "stores" [| st 0; st 1; st 2; st 3; Ret |] in
  for budget = 1 to 6 do
    let mem = Memory.create device in
    let buf = alloc mem 4 in
    ignore (check_launch ~what:"mid-block" ~max_instructions:budget mem k ~params:[| buf |] ~grid:1 ~cta:1);
    (match Interp.run ~max_instructions:budget mem k ~params:[| buf |] ~grid:1 ~cta:1 with
    | _ -> Alcotest.(check bool) "completes only with budget > 5" true (budget > 5)
    | exception Fault.Error (Fault.Budget_exhausted { kernel }) ->
        Alcotest.(check string) "kernel named" "stores" kernel);
    let landed = min 4 (budget - 1) in
    Alcotest.(check (array int))
      (Printf.sprintf "stores landed at budget %d" budget)
      (Array.init 4 (fun i -> if i < landed then i + 1 else 0))
      (Memory.data mem buf)
  done

(* [if tid < 0 then out[0] := param0[tid]]: the load's base folds to a
   dead handle, but the load sits on a branch no thread takes, unless
   [taken] flips the guard. *)
let bad_handle_kernel ~taken =
  let b = Kir_builder.create ~name:"bad_handle" ~params:2 () in
  let open Kir_builder in
  let cond = cmp b (if taken then Kir.Ge else Kir.Lt) tid (Kir.Imm 0) in
  if_ b (Kir.Reg cond) (fun () ->
      let v = ld b Kir.Global ~base:(param b 0) ~idx:tid ~width:4 in
      st b Kir.Global ~base:(param b 1) ~idx:(Kir.Imm 0) ~src:(Kir.Reg v) ~width:4);
  finish b

let test_bad_handle_not_taken () =
  let mem = Memory.create device in
  let dead = alloc mem 1 and out = alloc mem 1 in
  Memory.free mem dead;
  let params = [| dead; out |] in
  let k = bad_handle_kernel ~taken:false in
  ignore (check_launch ~what:"untaken" mem k ~params ~grid:2 ~cta:4);
  let stats = Interp.run mem k ~params ~grid:2 ~cta:4 in
  Alcotest.(check int) "no global loads" 0 stats.Stats.global_loads;
  let missing = 4242 in
  ignore (Interp.run mem k ~params:[| missing; out |] ~grid:1 ~cta:1)

let test_bad_handle_taken () =
  let mem = Memory.create device in
  let dead = alloc mem 1 and out = alloc mem 1 in
  Memory.free mem dead;
  let k = bad_handle_kernel ~taken:true in
  List.iter
    (fun h ->
      let params = [| h; out |] in
      ignore (check_launch ~what:"taken" mem k ~params ~grid:2 ~cta:4);
      match fault_of (fun () -> Interp.run mem k ~params ~grid:2 ~cta:4) with
      | Fault.Invalid_handle { kernel; handle } ->
          Alcotest.(check string) "kernel" "bad_handle" kernel;
          Alcotest.(check int) "handle" h handle
      | f -> Alcotest.failf "unexpected fault %s" (Fault.render f))
    [ dead; 4242 ]

let test_fall_through_end () =
  let k = raw_kernel ~params:0 "no_ret" [| Kir.Mov (Kir.param_reg 0, Imm 7) |] in
  let mem = Memory.create device in
  ignore (check_launch ~what:"fall-through" mem k ~params:[||] ~grid:1 ~cta:2);
  match fault_of (fun () -> Interp.run mem k ~params:[||] ~grid:1 ~cta:2) with
  | Fault.Invalid_launch { kernel; reason } ->
      Alcotest.(check string) "kernel" "no_ret" kernel;
      Alcotest.(check string) "message" "pc 1 out of range" reason
  | f -> Alcotest.failf "unexpected fault %s" (Fault.render f)

(* A trap whose [needed] operand is a parameter register (folded at
   compile time) and one whose operand is computed per thread. *)
let test_trap_needed () =
  let trap = Fault.capacity_trap ~op:3 ~segment:1 ~which:Fault.Cap_staging ~have:16 () in
  let p = Kir.param_reg 0 and t = Kir.param_reg 1 in
  let folded = raw_kernel "trap_param" [| Kir.Trap (trap, Some (Reg p)) |] in
  let computed =
    raw_kernel "trap_tid"
      [| Kir.Bin (Add, t, Reg Kir.reg_tid, Imm 100); Kir.Trap (trap, Some (Reg t)) |]
  in
  List.iter
    (fun (k, needed) ->
      let mem = Memory.create device in
      ignore (check_launch ~what:"trap" mem k ~params:[| 37 |] ~grid:1 ~cta:3);
      match fault_of (fun () -> Interp.run mem k ~params:[| 37 |] ~grid:1 ~cta:3) with
      | Fault.Capacity_trap c ->
          Alcotest.(check string) "kernel" k.Kir.kname c.kernel;
          Alcotest.(check (option int)) "needed" (Some needed) c.needed;
          Alcotest.(check int) "have" 16 c.have
      | f -> Alcotest.failf "unexpected fault %s" (Fault.render f))
    [ (folded, 37); (computed, 100) ]

(* --- fused address + access pairs ------------------------------------------ *)

(* [add t, x, K] feeding the next access's index compiles to one closure.
   Each kernel below is checked against the oracle at jobs 1 and 4 under
   every budget from 1 instruction to completion, so exhaustion also
   falls between the [add] and its access; and again as if it carried
   the gate's store fact, so the batch closures are checked too where
   the launch qualifies. *)
let check_fused ~what ?(grid = 1) ~cta mem k ~params =
  List.iter
    (fun k ->
      let total =
        match check_launch ~what mem k ~params ~grid ~cta with
        | Done (s, _) -> s.Stats.instructions
        | Faulted _ | Raised _ -> Array.length k.Kir.body * cta * grid
      in
      for max_instructions = 1 to total + 1 do
        ignore (check_launch ~what ~max_instructions mem k ~params ~grid ~cta)
      done)
    (List.sort_uniq compare [ k; { k with Kir.stores_disjoint = true } ])

let ld space dst base idx = Kir.Ld { space; dst; base; idx; width = 4 }
let st space base idx src = Kir.St { space; base; idx; src; width = 4 }
let add d a n = Kir.Bin (Add, d, a, Kir.Imm n)

(* [t := tid + 1; out[t] := t] with [out] one word short: the last thread's
   fused store faults with the unfused payload, after the others landed
   (its index is the value the fused [add] wrote to [t]). The load
   [t := tid + 2; v := in[t]] faults the same way, and stores [v + t]. *)
let test_fused_global () =
  let p0 = Kir.param_reg 0 and p1 = Kir.param_reg 1 in
  let t = Kir.param_reg 2 and v = Kir.param_reg 3 in
  let store =
    raw_kernel "fused_st" [| add t (Reg Kir.reg_tid) 1; st Global (Reg p0) (Reg t) (Reg t); Ret |]
  in
  let load =
    raw_kernel ~params:2 "fused_ld"
      [|
        add t (Reg Kir.reg_tid) 2;
        ld Global v (Reg p0) (Reg t);
        Kir.Bin (Add, v, Reg v, Reg t);
        st Global (Reg p1) (Reg Kir.reg_tid) (Reg v);
        Ret;
      |]
  in
  let mem = Memory.create device in
  let input = alloc mem 4 and out = alloc mem 4 in
  Array.iteri (fun i _ -> (Memory.data mem input).(i) <- 10 * (i + 1)) (Memory.data mem input);
  List.iter
    (fun cta ->
      check_fused ~what:"fused store" ~cta mem store ~params:[| out |];
      check_fused ~what:"fused load" ~cta mem load ~params:[| input; out |])
    [ 2; 3; 4 ];
  (match fault_of (fun () -> Interp.run mem store ~params:[| out |] ~grid:1 ~cta:4) with
  | Fault.Out_of_bounds { kernel; space; buffer; index; length } ->
      Alcotest.(check string) "kernel" "fused_st" kernel;
      Alcotest.(check bool) "global" true (space = Fault.Global_space);
      Alcotest.(check (option int)) "buffer" (Some out) buffer;
      Alcotest.(check (pair int int)) "index, length" (4, 4) (index, length)
  | f -> Alcotest.failf "unexpected fault %s" (Fault.render f));
  Alcotest.(check (array int)) "stores before the fault landed" [| 0; 1; 2; 3 |]
    (Memory.data mem out)

(* Aliasing: [t := t + 1; t := in[t]] reads [t] before the fused pair
   rewrites it twice, and [sh[v + 8] := v] stores the value its [add] just
   wrote. A shared access fuses when either address operand is constant.
   Every register a fused [add] writes reaches [out]; thread 3's
   [sh[v + 8]] is past the shared array and faults. *)
let test_fused_aliasing () =
  let p0 = Kir.param_reg 0 and p1 = Kir.param_reg 1 in
  let t = Kir.param_reg 2 and v = Kir.param_reg 3 in
  let u = Kir.param_reg 4 and w = Kir.param_reg 5 in
  let tid = Kir.Reg Kir.reg_tid in
  let k =
    raw_kernel ~params:2 ~shared_words:12 "fused_alias"
      [|
        Kir.Mov (t, tid);
        add t (Reg t) 1;
        ld Global t (Reg p0) (Reg t);
        add v tid 0;
        st Shared (Imm 3) (Reg v) (Reg t);
        add v (Reg v) 1;
        st Shared (Reg v) (Imm 8) (Reg v);
        add u tid 9;
        ld Shared w (Imm 0) (Reg u);
        add u tid 3;
        ld Shared t (Reg u) (Imm 0);
        Kir.Bin (Add, w, Reg w, Reg u);
        Kir.Bin (Add, w, Reg w, Reg v);
        add u tid 4;
        st Global (Reg p1) (Reg u) (Reg t);
        st Global (Reg p1) tid (Reg w);
        Ret;
      |]
  in
  let mem = Memory.create device in
  let input = alloc mem 8 and out = alloc mem 8 in
  Array.iteri (fun i _ -> (Memory.data mem input).(i) <- 100 + i) (Memory.data mem input);
  List.iter
    (fun cta -> check_fused ~what:"fused aliasing" ~cta mem k ~params:[| input; out |])
    [ 1; 3; 4 ];
  ignore (Interp.run mem k ~params:[| input; out |] ~grid:1 ~cta:3);
  Alcotest.(check (array int)) "every fused write observed"
    [| 5; 8; 11; 0; 101; 102; 103; 0 |]
    (Memory.data mem out)

(* A base that is not a launch constant stays unfused: a global base
   register the body writes (a dead handle there must fault as
   Invalid_handle after the [add]), and a shared access indexed by two
   registers. *)
let test_unfused_base () =
  let p0 = Kir.param_reg 0 and p1 = Kir.param_reg 1 in
  let b = Kir.param_reg 2 and t = Kir.param_reg 3 in
  let v = Kir.param_reg 4 and u = Kir.param_reg 5 in
  let k =
    raw_kernel ~params:2 ~shared_words:4 "unfused_base"
      [|
        add b (Reg p0) 0;
        add t (Reg Kir.reg_tid) 1;
        ld Global v (Reg b) (Reg t);
        Kir.Mov (u, Imm 1);
        add t (Reg Kir.reg_tid) 0;
        st Shared (Reg u) (Reg t) (Reg v);
        add t (Reg Kir.reg_tid) 1;
        ld Shared v (Reg u) (Reg t);
        st Global (Reg p1) (Reg Kir.reg_tid) (Reg v);
        Ret;
      |]
  in
  let mem = Memory.create device in
  let input = alloc mem 4 and out = alloc mem 4 and dead = alloc mem 4 in
  Memory.free mem dead;
  Array.iteri (fun i _ -> (Memory.data mem input).(i) <- 7 * i) (Memory.data mem input);
  List.iter
    (fun cta ->
      check_fused ~what:"unfused base" ~cta mem k ~params:[| input; out |])
    [ 1; 2; 3; 4 ];
  check_fused ~what:"unfused dead base" ~cta:2 mem k ~params:[| dead; out |];
  match fault_of (fun () -> Interp.run mem k ~params:[| dead; out |] ~grid:1 ~cta:2) with
  | Fault.Invalid_handle { handle; _ } -> Alcotest.(check int) "handle" dead handle
  | f -> Alcotest.failf "unexpected fault %s" (Fault.render f)

(* --- the batched schedule ------------------------------------------------ *)

(* Hand-built kernels carrying the gate's store fact, as the runtime sets
   it, so the interpreter batches them. Like every gated kernel they read
   no register before writing it. Each is checked against the oracle
   under every budget, so exhaustion also falls inside batches, and must
   have run some CTA batched. *)
let check_batched ~what ?(grid = 2) ~cta mem k ~params =
  let k = { k with Kir.stores_disjoint = true } in
  forget what k.Kir.kname;
  check_fused ~what ~grid ~cta mem k ~params;
  if span_count "batched" what k.Kir.kname = 0 then
    Alcotest.failf "%s: no CTA ran batched" what

(* Odd and even threads take different arms and meet again; then each
   thread loops [tid] times, so the batch shrinks by one thread per
   iteration and the leavers wait at the loop exit for the rest. *)
let test_batch_split_merge () =
  let b = Kir_builder.create ~name:"split_merge" ~params:1 () in
  let open Kir_builder in
  let out = param b 0 in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 64))) tid in
  let v = fresh b in
  let odd = bin b Kir.And tid (Kir.Imm 1) in
  if_else b (Kir.Reg odd)
    (fun () -> bin_to b v Kir.Mul tid (Kir.Imm 10))
    (fun () -> bin_to b v Kir.Add tid (Kir.Imm 100));
  st b Kir.Global ~base:out ~idx:(Kir.Reg row) ~src:(Kir.Reg v) ~width:4;
  let acc = mov b (Kir.Imm 0) in
  for_range b ~start:(Kir.Imm 0) ~stop:tid ~step:(Kir.Imm 1) (fun i ->
      bin_to b acc Kir.Add (Kir.Reg acc) (Kir.Reg i));
  let row2 = bin b Kir.Add (Kir.Reg row) (Kir.Imm 32) in
  st b Kir.Global ~base:out ~idx:(Kir.Reg row2) ~src:(Kir.Reg acc) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 128 in
  List.iter
    (fun cta ->
      check_batched ~what:"split and merge" ~cta mem k ~params:[| out |])
    [ 2; 5; 8 ]

(* Every thread stores, then divides by [tid - p]: thread [p] faults in
   the middle of a batch, after the batch's stores and its lower threads'
   divisions. The per-thread schedule has run threads [0 .. p-1] to the
   end and thread [p] up to its division: exactly those stores land. *)
let test_batch_fault_mid_batch () =
  let b = Kir_builder.create ~name:"div_mid_batch" ~params:3 () in
  let open Kir_builder in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 16))) tid in
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:tid ~width:4;
  let d = bin b Kir.Sub tid (param b 2) in
  let q = bin b Kir.Div (Kir.Imm 1000) (Kir.Reg d) in
  st b Kir.Global ~base:(param b 1) ~idx:(Kir.Reg row) ~src:(Kir.Reg q) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 32 and out2 = alloc mem 32 in
  (* no thread divides by zero: the kernel runs batched *)
  check_batched ~what:"no fault" ~cta:8 mem k ~params:[| out; out2; 100 |];
  let k = { k with Kir.stores_disjoint = true } in
  let params = [| out; out2; 5 |] in
  ignore (check_launch ~what:"fault in thread 5" mem k ~params ~grid:2 ~cta:8);
  (match fault_of (fun () -> Interp.run mem k ~params ~grid:2 ~cta:8) with
  | Fault.Div_by_zero { kernel } ->
      Alcotest.(check string) "kernel" "div_mid_batch" kernel
  | f -> Alcotest.failf "unexpected fault %s" (Fault.render f));
  Alcotest.(check (array int)) "threads 0-5 stored"
    (Array.init 32 (fun i -> if i < 6 then i else 0))
    (Memory.data mem out);
  Alcotest.(check (array int)) "threads 0-4 divided"
    (Array.init 32 (fun i -> if i < 5 then 1000 / (i - 5) else 0))
    (Memory.data mem out2)

(* The gate finds two threads storing to the same global word: the kernel
   is not certified, and runs on the per-thread schedule. *)
let test_same_word_per_thread () =
  let b = Kir_builder.create ~name:"same_word" ~params:1 () in
  Kir_builder.st b Kir.Global ~base:(Kir_builder.param b 0) ~idx:(Kir.Imm 0)
    ~src:Kir_builder.tid ~width:4;
  let k = Kir_builder.finish b in
  let report = Weaver.Runtime.analyze_kernel k in
  Alcotest.(check bool) "not certified" false
    report.Weaver_analysis.Analysis.stores_disjoint;
  let k =
    { k with Kir.stores_disjoint = report.Weaver_analysis.Analysis.stores_disjoint }
  in
  let mem = Memory.create device in
  let out = alloc mem 1 in
  ignore (check_launch ~what:"same word" mem k ~params:[| out |] ~grid:2 ~cta:8);
  Alcotest.(check int) "per-thread" 0
    (Hashtbl.find spans ("batched", "same word", "same_word"))

(* --- barriers on the batched schedule ------------------------------------- *)

(* Kernels with barriers, checked like [check_batched] at every budget
   from 1 to completion, so exhaustion also lands on a barrier block;
   [passes] is how many barriers the default-budget jobs = 1 run let a
   whole-CTA batch through unreleased. *)
let check_barriers ~what ?(grid = 2) ~cta mem k ~params =
  check_batched ~what ~grid ~cta mem k ~params;
  span_count "barrier_passes" what k.Kir.kname

(* [smem[tid] := tid * 3 + ctaid; bar; out[row] := smem[(tid + 1) mod n];
   bar; out2[row] := smem[tid] + 1]: every thread reaches both barriers
   together, so the batch goes through them without a release. *)
let barrier_kernel () =
  let b = Kir_builder.create ~name:"bar_all" ~params:2 () in
  let open Kir_builder in
  let sm = alloc_shared b ~words:16 ~bytes:64 in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 16))) tid in
  let v = bin b Kir.Add (Kir.Reg (bin b Kir.Mul tid (Kir.Imm 3))) ctaid in
  st b Kir.Shared ~base:sm ~idx:tid ~src:(Kir.Reg v) ~width:4;
  bar b;
  let nb = bin b Kir.Rem (Kir.Reg (bin b Kir.Add tid (Kir.Imm 1))) ntid in
  let w = ld b Kir.Shared ~base:sm ~idx:(Kir.Reg nb) ~width:4 in
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg w) ~width:4;
  bar b;
  let u = ld b Kir.Shared ~base:sm ~idx:tid ~width:4 in
  let u1 = bin b Kir.Add (Kir.Reg u) (Kir.Imm 1) in
  st b Kir.Global ~base:(param b 1) ~idx:(Kir.Reg row) ~src:(Kir.Reg u1) ~width:4;
  finish b

let test_barrier_all_arrive () =
  let k = barrier_kernel () in
  let mem = Memory.create device in
  let out = alloc mem 32 and out2 = alloc mem 32 in
  List.iter
    (fun cta ->
      let n = check_barriers ~what:"all arrive" ~cta mem k ~params:[| out; out2 |] in
      (* two barriers per CTA, two CTAs *)
      Alcotest.(check int) (Printf.sprintf "passes at cta %d" cta) 4 n)
    [ 2; 5; 16 ]

(* Odd threads branch to a [Ret] placed after the barrier code: the even
   threads reach the first barrier as a batch smaller than the live
   count and take the release round; once the odd threads have
   returned, the evens are every live thread and pass the second. *)
let test_barrier_early_return () =
  let b = Kir_builder.create ~name:"bar_early_ret" ~params:1 () in
  let open Kir_builder in
  let sm = alloc_shared b ~words:16 ~bytes:64 in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 16))) tid in
  let odd = bin b Kir.And tid (Kir.Imm 1) in
  let quit = new_label b in
  brnz b (Kir.Reg odd) quit;
  st b Kir.Shared ~base:sm ~idx:tid ~src:(Kir.Reg row) ~width:4;
  bar b;
  let nb = bin b Kir.Rem (Kir.Reg (bin b Kir.Add tid (Kir.Imm 2))) ntid in
  let w = ld b Kir.Shared ~base:sm ~idx:(Kir.Reg nb) ~width:4 in
  bar b;
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg w) ~width:4;
  ret b;
  place b quit;
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Imm (-1)) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 32 in
  let n = check_barriers ~what:"early return" ~cta:8 mem k ~params:[| out |] in
  Alcotest.(check int) "only the second barrier passes" 2 n

(* After a passed barrier every thread divides by [tid - p]: thread [p]
   faults inside the whole-CTA batch, which rolls back and re-runs
   per-thread, raising the per-thread fault after exactly its stores. *)
let test_barrier_fault_after_pass () =
  let b = Kir_builder.create ~name:"bar_then_div" ~params:3 () in
  let open Kir_builder in
  let sm = alloc_shared b ~words:8 ~bytes:32 in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  st b Kir.Shared ~base:sm ~idx:tid ~src:tid ~width:4;
  bar b;
  let nb = bin b Kir.Sub (Kir.Reg (bin b Kir.Sub ntid (Kir.Imm 1))) tid in
  let w = ld b Kir.Shared ~base:sm ~idx:(Kir.Reg nb) ~width:4 in
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg w) ~width:4;
  let d = bin b Kir.Sub tid (param b 2) in
  let q = bin b Kir.Div (Kir.Imm 1000) (Kir.Reg d) in
  st b Kir.Global ~base:(param b 1) ~idx:(Kir.Reg row) ~src:(Kir.Reg q) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 16 and out2 = alloc mem 16 in
  Alcotest.(check int) "no fault: one pass per CTA" 2
    (check_barriers ~what:"no fault" ~cta:8 mem k ~params:[| out; out2; 100 |]);
  let mem = Memory.create device in
  let out = alloc mem 16 and out2 = alloc mem 16 in
  let k = { k with Kir.stores_disjoint = true } in
  check_fused ~what:"fault after pass" ~grid:2 ~cta:8 mem k ~params:[| out; out2; 5 |];
  match fault_of (fun () -> Interp.run mem k ~params:[| out; out2; 5 |] ~grid:2 ~cta:8) with
  | Fault.Div_by_zero { kernel } -> Alcotest.(check string) "kernel" "bar_then_div" kernel
  | f -> Alcotest.failf "unexpected fault %s" (Fault.render f)

(* --- splits and pending groups ----------------------------------------- *)

(* Each barrier round parks every running thread in the group of its pc,
   and from then on the schedule tracks where each running thread waits:
   a branch that splits the batch goes on with its lower side and parks
   the other side in a group at its pc, a batch that reaches a group's pc
   joins it, and the group at the lowest pc runs next. The kernels below
   are checked like [check_barriers], over two CTAs of eight threads at
   jobs 1 and 4 and under every budget, so exhaustion also lands on the
   block right after each split. They pin the schedule's barrier rounds
   (the [rescans] argument) and how often it passed a barrier whole: the
   oracle cannot see which threads ran together, these counts can. *)
let check_schedule ~what mem k ~params ~rescans ~passes =
  let got_passes = check_barriers ~what ~cta:8 mem k ~params in
  Alcotest.(check (pair int int))
    (what ^ ": rescans, barrier passes")
    (rescans, passes)
    (span_count "rescans" what k.Kir.kname, got_passes)

(* [acc] over a do-while loop of [trips] iterations, whose backward branch
   is the lower target, with [acc += 7] in odd threads when [inner]; then
   a barrier and [out[row] := acc]. *)
let loop_kernel ~name ?(inner = false) trips =
  let b = Kir_builder.create ~name ~params:1 () in
  let open Kir_builder in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  let n = trips b in
  let odd = bin b Kir.And tid (Kir.Imm 1) in
  let acc = mov b (Kir.Imm 1) and i = mov b (Kir.Imm 0) in
  let head = new_label b in
  place b head;
  bin_to b acc Kir.Mul (Kir.Reg acc) (Kir.Imm 3);
  if inner then if_ b (Kir.Reg odd) (fun () -> bin_to b acc Kir.Add (Kir.Reg acc) (Kir.Imm 7));
  bin_to b acc Kir.Add (Kir.Reg acc) (Kir.Reg i);
  bin_to b i Kir.Add (Kir.Reg i) (Kir.Imm 1);
  brnz b (Kir.Reg (cmp b Kir.Lt (Kir.Reg i) (Kir.Reg n))) head;
  bar b;
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg acc) ~width:4;
  finish b

let trips_mod m b =
  Kir_builder.(bin b Kir.Add (Kir.Reg (bin b Kir.Rem tid (Kir.Imm m))) (Kir.Imm 1))

(* Threads loop once or twice: the leavers wait at the loop exit and the
   others join them there, so each CTA takes one round and reaches its
   barrier whole. *)
let test_split_backward_loop () =
  let k = loop_kernel ~name:"loop_two_trips" (trips_mod 2) in
  let mem = Memory.create device in
  let out = alloc mem 16 in
  check_schedule ~what:"backward loop" mem k ~params:[| out |] ~rescans:2 ~passes:2

(* One to three trips with an [if] inside: the even threads' skip of the
   [if] waits in a group below the loop exit's, while the odd ones run
   its body; later leavers join the exit's group. Still one round per
   CTA. *)
let test_split_nested () =
  let k = loop_kernel ~name:"loop_nested_if" ~inner:true (trips_mod 3) in
  let mem = Memory.create device in
  let out = alloc mem 16 in
  check_schedule ~what:"nested split" mem k ~params:[| out |] ~rescans:2 ~passes:2

(* [smem[tid] := tid * 5 + ctaid; bar]; thread 0 alone sums the CTA's
   words into [sums[ctaid]] (the guard's fall-through is its lower side);
   [bar; out[row] := smem[tid] + tid]. *)
let test_split_thread0_guard () =
  let b = Kir_builder.create ~name:"thread0_guard" ~params:2 () in
  let open Kir_builder in
  let sm = alloc_shared b ~words:8 ~bytes:32 in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  let v = bin b Kir.Add (Kir.Reg (bin b Kir.Mul tid (Kir.Imm 5))) ctaid in
  st b Kir.Shared ~base:sm ~idx:tid ~src:(Kir.Reg v) ~width:4;
  bar b;
  if_ b (Kir.Reg (cmp b Kir.Eq tid (Kir.Imm 0))) (fun () ->
      let sum = mov b (Kir.Imm 0) in
      for_range b ~start:(Kir.Imm 0) ~stop:ntid ~step:(Kir.Imm 1) (fun i ->
          let w = ld b Kir.Shared ~base:sm ~idx:(Kir.Reg i) ~width:4 in
          bin_to b sum Kir.Add (Kir.Reg sum) (Kir.Reg w));
      st b Kir.Global ~base:(param b 1) ~idx:ctaid ~src:(Kir.Reg sum) ~width:4);
  bar b;
  let w = ld b Kir.Shared ~base:sm ~idx:tid ~width:4 in
  let w = bin b Kir.Add (Kir.Reg w) tid in
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg w) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 16 and sums = alloc mem 2 in
  check_schedule ~what:"thread-0 guard" mem k ~params:[| out; sums |] ~rescans:2
    ~passes:4

(* [if odd then v := 1000 / (tid - p) else v := (tid - p) * 7 / (tid - p)];
   [bar; out[row] := v]. The odd side is the lower one; it jumps past the
   evens' pc, so the evens run next and the odds join them at the join.
   Thread [p] divides by zero: an odd [p] faults in the lower side while
   the evens wait, an even one in the group that ran next. *)
let split_div_kernel () =
  let b = Kir_builder.create ~name:"split_div" ~params:2 () in
  let open Kir_builder in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  let d = bin b Kir.Sub tid (param b 1) in
  let v = fresh b in
  if_else b (Kir.Reg (bin b Kir.And tid (Kir.Imm 1)))
    (fun () -> bin_to b v Kir.Div (Kir.Imm 1000) (Kir.Reg d))
    (fun () ->
      bin_to b v Kir.Mul (Kir.Reg d) (Kir.Imm 7);
      bin_to b v Kir.Div (Kir.Reg v) (Kir.Reg d));
  bar b;
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg v) ~width:4;
  finish b

let test_split_swap_and_rejoin () =
  let k = split_div_kernel () in
  let mem = Memory.create device in
  let out = alloc mem 16 in
  check_schedule ~what:"swap and rejoin" mem k ~params:[| out; 100 |] ~rescans:2
    ~passes:2

let test_split_fault_pending () =
  let k = { (split_div_kernel ()) with Kir.stores_disjoint = true } in
  List.iter
    (fun p ->
      let mem = Memory.create device in
      let out = alloc mem 16 in
      let params = [| out; p |] in
      check_fused ~what:(Printf.sprintf "fault in thread %d" p) ~grid:2 ~cta:8 mem k
        ~params;
      match fault_of (fun () -> Interp.run mem k ~params ~grid:2 ~cta:8) with
      | Fault.Div_by_zero { kernel } -> Alcotest.(check string) "kernel" "split_div" kernel
      | f -> Alcotest.failf "unexpected fault %s" (Fault.render f))
    [ 3; 4 ]

(* Odd and even threads wait at different barriers, so after the release
   they resume at two pcs: the round's pass parks the evens above the
   odds, the odds' [if tid < 4] split goes on with its lower side, and the
   sides meet in groups. One pass per round, two rounds per CTA. *)
let test_split_after_divergent_barriers () =
  let b = Kir_builder.create ~name:"two_barriers" ~params:1 () in
  let open Kir_builder in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  let v = fresh b in
  if_else b (Kir.Reg (bin b Kir.And tid (Kir.Imm 1)))
    (fun () ->
      bar b;
      bin_to b v Kir.Mul tid (Kir.Imm 2);
      if_ b (Kir.Reg (cmp b Kir.Lt tid (Kir.Imm 4))) (fun () ->
          bin_to b v Kir.Add (Kir.Reg v) (Kir.Imm 1)))
    (fun () ->
      bar b;
      bin_to b v Kir.Add tid (Kir.Imm 100));
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg v) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 16 in
  check_schedule ~what:"divergent barriers" mem k ~params:[| out |] ~rescans:4
    ~passes:0

(* Threads wait at three barriers by [tid mod 3], so the release leaves
   them at three pcs: the round's pass parks three groups, which run
   lowest pc first and meet at the store. Two rounds per CTA. *)
let test_release_three_pcs () =
  let b = Kir_builder.create ~name:"three_barriers" ~params:1 () in
  let open Kir_builder in
  let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
  let m = bin b Kir.Rem tid (Kir.Imm 3) in
  let v = fresh b in
  let arm c f = if_else b (Kir.Reg (cmp b Kir.Eq (Kir.Reg m) (Kir.Imm c))) (fun () -> bar b; f ()) in
  arm 0
    (fun () -> bin_to b v Kir.Mul tid (Kir.Imm 2))
    (fun () ->
      arm 1
        (fun () -> bin_to b v Kir.Add tid (Kir.Imm 100))
        (fun () ->
          bar b;
          bin_to b v Kir.Sub (Kir.Imm 1000) tid));
  st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg v) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = alloc mem 16 in
  check_schedule ~what:"three barriers" mem k ~params:[| out |] ~rescans:4 ~passes:0

(* [out[row] := tid + 1]; then thread [p] leaves the whole-CTA batch,
   under [if tid = p] for a trap, or by a branch to a label that does not
   exist, whose exit the batch evaluates for every thread; [out2[row] :=
   tid]. A batch's threads agree on where such an exit goes or one of
   them raises: here the batched run raises, rolls back and re-runs
   per-thread, raising the per-thread fault after threads [0 .. p-1] ran
   to the end and thread [p] stored once. *)
let test_trap_in_batch () =
  let trap = Fault.capacity_trap ~op:2 ~segment:0 ~which:Fault.Cap_staging ~have:8 () in
  let kernel name leave =
    let b = Kir_builder.create ~name ~params:3 () in
    let open Kir_builder in
    let row = bin b Kir.Add (Kir.Reg (bin b Kir.Mul ctaid (Kir.Imm 8))) tid in
    let t1 = bin b Kir.Add tid (Kir.Imm 1) in
    st b Kir.Global ~base:(param b 0) ~idx:(Kir.Reg row) ~src:(Kir.Reg t1) ~width:4;
    leave b (Kir.Reg (cmp b Kir.Eq tid (param b 2)));
    st b Kir.Global ~base:(param b 1) ~idx:(Kir.Reg row) ~src:tid ~width:4;
    finish b
  in
  let guarded =
    kernel "trap_guard" (fun b hit ->
        Kir_builder.(if_ b hit (fun () -> emit b (Kir.Trap (trap, None)))))
  and wild = kernel "wild_branch" (fun b hit -> Kir_builder.brnz b hit 99) in
  List.iter
    (fun (k, expect) ->
      let mem = Memory.create device in
      let out = alloc mem 16 and out2 = alloc mem 16 in
      check_batched ~what:"no thread leaves" mem k ~cta:8 ~params:[| out; out2; 100 |];
      let k = { k with Kir.stores_disjoint = true } in
      let params = [| out; out2; 5 |] in
      check_fused ~what:"thread 5 leaves" ~grid:2 ~cta:8 mem k ~params;
      let mem = Memory.create device in
      let out = alloc mem 16 and out2 = alloc mem 16 in
      (match Interp.run mem k ~params:[| out; out2; 5 |] ~grid:2 ~cta:8 with
      | _ -> Alcotest.failf "%s: no fault" k.Kir.kname
      | exception e -> expect e);
      Alcotest.(check (array int)) "threads 0-5 stored once"
        (Array.init 16 (fun i -> if i < 6 then i + 1 else 0))
        (Memory.data mem out);
      Alcotest.(check (array int)) "threads 0-4 stored twice"
        (Array.init 16 (fun i -> if i < 5 then i else 0))
        (Memory.data mem out2))
    [
      ( guarded,
        function
        | Fault.Error (Fault.Capacity_trap c) ->
            Alcotest.(check string) "kernel" "trap_guard" c.kernel
        | e -> Alcotest.failf "unexpected %s" (Printexc.to_string e) );
      ( wild,
        function
        | Invalid_argument _ -> ()
        | e -> Alcotest.failf "unexpected %s" (Printexc.to_string e) );
    ]

let suite =
  [
    Alcotest.test_case "goldens match the oracle" `Slow test_goldens;
    Alcotest.test_case "random plans match the oracle" `Slow test_random_plans;
    Alcotest.test_case "goldens batch the same thread sets" `Quick test_batch_sets;
    Alcotest.test_case "budget exhausted mid-block" `Quick test_budget_mid_block;
    Alcotest.test_case "bad handle on untaken branch" `Quick
      test_bad_handle_not_taken;
    Alcotest.test_case "bad handle executed" `Quick test_bad_handle_taken;
    Alcotest.test_case "fall-through past the end" `Quick test_fall_through_end;
    Alcotest.test_case "trap needed operand" `Quick test_trap_needed;
    Alcotest.test_case "fused global access" `Quick test_fused_global;
    Alcotest.test_case "fused aliasing and shared" `Quick test_fused_aliasing;
    Alcotest.test_case "non-constant base unfused" `Quick test_unfused_base;
    Alcotest.test_case "batch splits and merges" `Quick test_batch_split_merge;
    Alcotest.test_case "fault in the middle of a batch" `Quick
      test_batch_fault_mid_batch;
    Alcotest.test_case "same-word stores run per-thread" `Quick
      test_same_word_per_thread;
    Alcotest.test_case "whole-CTA batch passes barriers" `Quick
      test_barrier_all_arrive;
    Alcotest.test_case "early return takes the release round" `Quick
      test_barrier_early_return;
    Alcotest.test_case "fault after a passed barrier" `Quick
      test_barrier_fault_after_pass;
    Alcotest.test_case "split at a backward loop branch" `Quick
      test_split_backward_loop;
    Alcotest.test_case "split inside a split" `Quick test_split_nested;
    Alcotest.test_case "thread-0 guard runs alone" `Quick test_split_thread0_guard;
    Alcotest.test_case "split hands over, then rejoins" `Quick
      test_split_swap_and_rejoin;
    Alcotest.test_case "fault while a group is pending" `Quick
      test_split_fault_pending;
    Alcotest.test_case "split after divergent barriers" `Quick
      test_split_after_divergent_barriers;
    Alcotest.test_case "release to three pcs" `Quick test_release_three_pcs;
    Alcotest.test_case "one thread leaves a whole-CTA batch" `Quick
      test_trap_in_batch;
  ]
