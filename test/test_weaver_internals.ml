(* White-box tests for the weaver: segment construction, partition specs,
   infeasibility detection, layout invariants and the profiler. *)

open Relation_lib
open Qplan

let i32 = Dtype.I32
let s4 = Schema.make [ ("k", i32); ("a", i32); ("b", i32); ("c", i32) ]
let s2 = Schema.make [ ("k", i32); ("x", i32) ]
let config = Weaver.Config.default

let test_fusion_pattern_a () =
  let w = Tpch.Patterns.pattern_a () in
  let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1; 2; 3 ] in
  (* one pipeline of four thread operators, no tiles, no loads *)
  Alcotest.(check int) "one segment" 1 (List.length ir.Weaver.Fusion.segments);
  Alcotest.(check int) "no tiles" 0 (Array.length ir.Weaver.Fusion.tiles);
  Alcotest.(check int) "one input" 1 (Array.length ir.Weaver.Fusion.inputs);
  (match ir.Weaver.Fusion.segments with
  | [ Weaver.Fusion.Pipe { op_ids; steps; input = Weaver.Fusion.From_input 0; _ } ] ->
      Alcotest.(check (list int)) "chain order" [ 0; 1; 2; 3 ] op_ids;
      Alcotest.(check int) "four steps" 4 (List.length steps)
  | _ -> Alcotest.fail "expected a single global-input pipeline");
  Alcotest.(check bool) "even partition" true
    (ir.Weaver.Fusion.inputs.(0).Weaver.Fusion.spec = Ra_lib.Partition_emit.Even)

let test_fusion_pattern_b () =
  let w = Tpch.Patterns.pattern_b () in
  let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1 ] in
  (* three loads (all binary inputs cached) + two joins *)
  let loads, bins =
    List.partition
      (function Weaver.Fusion.Load _ -> true | _ -> false)
      ir.Weaver.Fusion.segments
  in
  Alcotest.(check int) "three cached inputs" 3 (List.length loads);
  Alcotest.(check int) "two binary segments" 2 (List.length bins);
  Array.iter
    (fun (i : Weaver.Fusion.input_info) ->
      Alcotest.(check bool) "keyed" true
        (i.Weaver.Fusion.spec = Ra_lib.Partition_emit.Keyed))
    ir.Weaver.Fusion.inputs;
  Alcotest.(check bool) "has pivot" true (ir.Weaver.Fusion.pivot <> None)

let test_fusion_pattern_d () =
  let w = Tpch.Patterns.pattern_d () in
  let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1 ] in
  (* the shared input is loaded once into a tile, two pipelines read it *)
  let loads =
    List.filter
      (function Weaver.Fusion.Load _ -> true | _ -> false)
      ir.Weaver.Fusion.segments
  in
  Alcotest.(check int) "input cached once" 1 (List.length loads);
  Alcotest.(check int) "two outputs" 2 (Array.length ir.Weaver.Fusion.outputs)

let test_key_prefix_check () =
  Alcotest.(check bool) "filter ok" true
    (Weaver.Fusion.preserves_key_prefix ~key_arity:1
       (Ra_lib.Pipeline_emit.Filter Pred.True));
  Alcotest.(check bool) "prefix-keeping remap ok" true
    (Weaver.Fusion.preserves_key_prefix ~key_arity:2
       (Ra_lib.Pipeline_emit.Remap [ 0; 1; 3 ]));
  Alcotest.(check bool) "reordering remap not ok" false
    (Weaver.Fusion.preserves_key_prefix ~key_arity:1
       (Ra_lib.Pipeline_emit.Remap [ 2; 0 ]));
  Alcotest.(check bool) "key-preserving arith ok" true
    (Weaver.Fusion.preserves_key_prefix ~key_arity:1
       (Ra_lib.Pipeline_emit.Compute [ ("k", Pred.Attr 0); ("s", Pred.Int 1) ]));
  Alcotest.(check bool) "key-rewriting arith not ok" false
    (Weaver.Fusion.preserves_key_prefix ~key_arity:1
       (Ra_lib.Pipeline_emit.Compute
          [ ("k", Pred.Bin (Pred.Add, Pred.Attr 0, Pred.Int 1)) ]))

let test_infeasible_key_breaking_pipeline () =
  (* a project that reorders the key feeding a fused join is infeasible *)
  let pb = Plan.builder () in
  let a = Plan.base pb s4 in
  let b = Plan.base pb s2 in
  let p = Plan.add pb (Op.Project [ 1; 0 ]) [ a ] in
  let _j = Plan.add pb (Op.Join { key_arity = 1 }) [ p; b ] in
  let plan = Plan.build pb in
  match Weaver.Fusion.build plan [ 0; 1 ] with
  | exception Weaver.Fusion.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_infeasible_broadcast_escape () =
  (* a pipeline over a PRODUCT's broadcast side cannot leave the group *)
  let pb = Plan.builder () in
  let a = Plan.base pb s2 in
  let b = Plan.base pb s2 in
  let sel = Plan.add pb (Op.Select Pred.True) [ b ] in
  let _prod = Plan.add pb Op.Product [ a; sel ] in
  let _leak = Plan.add pb (Op.Project [ 0 ]) [ sel ] in
  let plan = Plan.build pb in
  (* group = select + product: select's result feeds the broadcast side
     AND leaves the group through the project *)
  match Weaver.Fusion.build plan [ 0; 1 ] with
  | exception Weaver.Fusion.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_layout_consistency () =
  (* the selection estimate must equal what the layout actually uses *)
  let w = Tpch.Patterns.pattern_c () in
  let plan = w.Tpch.Patterns.plan in
  let group = [ 0; 1; 2 ] in
  let est = Weaver.Layout.estimate config plan group in
  let ir = Weaver.Fusion.build plan group in
  let lay = Weaver.Layout.compute config plan ir in
  Alcotest.(check int) "regs agree" est.Selection.regs_per_thread
    lay.Weaver.Layout.regs_per_thread;
  Alcotest.(check int) "shared agrees" est.Selection.shared_bytes
    lay.Weaver.Layout.shared_bytes;
  (* the layout respects the device budget *)
  Alcotest.(check bool) "fits device" true
    (lay.Weaver.Layout.shared_bytes
    <= config.Weaver.Config.device.Gpu_sim.Device.max_shared_mem_per_cta)

let test_layout_arena_overlay () =
  (* per-segment scratch overlays: total shared < sum of all scratch *)
  let w = Tpch.Patterns.pattern_a () in
  let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1; 2; 3 ] in
  let lay = Weaver.Layout.compute config w.Tpch.Patterns.plan ir in
  Alcotest.(check bool) "has scratch" true
    (Array.exists
       (function Weaver.Layout.S_pipe _ -> true | _ -> false)
       lay.Weaver.Layout.seg_scratch);
  Alcotest.(check bool) "words positive" true (lay.Weaver.Layout.shared_words > 0)

let test_estimate_monotone () =
  (* adding an operator to a group never shrinks the estimate *)
  let w = Tpch.Patterns.pattern_b () in
  let plan = w.Tpch.Patterns.plan in
  let e1 = Weaver.Layout.estimate config plan [ 0 ] in
  let e2 = Weaver.Layout.estimate config plan [ 0; 1 ] in
  Alcotest.(check bool) "shared grows" true
    (e2.Selection.shared_bytes >= e1.Selection.shared_bytes);
  Alcotest.(check bool) "regs grow" true
    (e2.Selection.regs_per_thread >= e1.Selection.regs_per_thread)

let test_generated_kernels_validate () =
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      let all_ops =
        List.map (fun (n : Plan.node) -> n.Plan.id) (Plan.nodes w.Tpch.Patterns.plan)
      in
      let groups =
        Selection.select ~plan:w.Tpch.Patterns.plan
          ~estimate:(Weaver.Layout.estimate config w.Tpch.Patterns.plan)
          ~budget:(Weaver.Config.budget config)
          all_ops
      in
      List.iter
        (fun g ->
          let ir = Weaver.Fusion.build w.Tpch.Patterns.plan g in
          let lay = Weaver.Layout.compute config w.Tpch.Patterns.plan ir in
          let ks = Weaver.Codegen.generate config ~name:"t" ir lay in
          (* Codegen.generate validates internally; also check the
             optimizer's output revalidates *)
          ignore (Weaver.Optimizer.optimize Weaver.Optimizer.O3 ks.Weaver.Codegen.compute))
        groups)
    (Tpch.Patterns.all ())

let test_cuda_source_markers () =
  let w = Tpch.Patterns.pattern_c () in
  let program = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let src = Weaver.Runtime.kernels_source program in
  List.iter
    (fun marker ->
      Alcotest.(check bool) (marker ^ " present") true
        (Astring_contains.contains src marker))
    [ "__global__"; "__syncthreads()"; "__shared__"; "_partition"; "_compute";
      "_gather" ]

let test_profiler () =
  let b = Gpu_sim.Kir_builder.create ~name:"p" ~params:1 () in
  let open Gpu_sim.Kir_builder in
  let buf = param b 0 in
  for_range b ~start:(Imm 0) ~stop:(Imm 10) ~step:(Imm 1) (fun i ->
      st b Gpu_sim.Kir.Global ~base:buf ~idx:(Reg i) ~src:(Reg i) ~width:4);
  let k = finish b in
  let mem = Gpu_sim.Memory.create Gpu_sim.Device.fermi_c2050 in
  let out = Gpu_sim.Memory.alloc mem ~words:10 ~bytes:40 in
  let counts = Array.make (Gpu_sim.Kir.instr_count k) 0 in
  let stats =
    Gpu_sim.Interp.run ~profile:counts mem k ~params:[| out |] ~grid:1 ~cta:1
  in
  Alcotest.(check int) "counts sum to instructions"
    stats.Gpu_sim.Stats.instructions
    (Array.fold_left ( + ) 0 counts);
  (* the three busiest instructions, as a launch span's hot0..hot2 *)
  let hot =
    List.filteri (fun i c -> i < 3 && c > 0)
      (List.sort (fun a b -> Int.compare b a) (Array.to_list counts))
  in
  Alcotest.(check int) "three hot spots" 3 (List.length hot);
  let c0 = List.hd hot in
  (* the loop body store executes 10 times *)
  Alcotest.(check bool) "hottest is loop body" true (c0 >= 10)

let test_sort_arity_propagation () =
  (* a 2-key SEMIJOIN fused into a 1-key-partitioned group: the fusion
     planner must demand its inputs sorted two attributes deep *)
  let pb = Plan.builder () in
  let a = Plan.base pb s4 in
  let b = Plan.base pb s4 in
  let sel = Plan.add pb (Op.Select Pred.True) [ a ] in
  let semi = Plan.add pb (Op.Semijoin { key_arity = 2 }) [ sel; b ] in
  let _j = Plan.add pb (Op.Join { key_arity = 1 }) [ semi; b ] in
  let plan = Plan.build pb in
  let ir = Weaver.Fusion.build plan [ 0; 1; 2 ] in
  Alcotest.(check int) "group partition key" 1 ir.Weaver.Fusion.key_arity;
  Array.iter
    (fun (i : Weaver.Fusion.input_info) ->
      match i.Weaver.Fusion.source with
      | Plan.Base 0 ->
          Alcotest.(check int) "input a needs 2-sorted" 2
            i.Weaver.Fusion.sort_arity
      | Plan.Base 1 ->
          Alcotest.(check int) "input b needs 2-sorted" 2
            i.Weaver.Fusion.sort_arity
      | _ -> ())
    ir.Weaver.Fusion.inputs;
  (* end to end: unsorted-within-key data must still produce exact results *)
  let st = Generator.make_state 77 in
  let mk n =
    Generator.random_relation ~key_range:40 ~sorted_key_arity:1 st s4 ~count:n
  in
  let bases = [| mk 300; mk 200 |] in
  let reference = Reference.eval_sinks plan bases in
  let cmp =
    Weaver.Driver.compare_fusion plan bases ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check bool) "deep-keyed fusion exact" true
        (Relation.equal_multiset r g))
    reference cmp.Weaver.Driver.fused.Weaver.Runtime.sinks

let test_q21_semi_correct () =
  let db = Tpch.Datagen.generate ~seed:9 ~lineitems:4_000 in
  let q = Tpch.Queries.q21_semi in
  let bases = q.Tpch.Queries.bind db in
  let reference = Reference.eval_sinks q.Tpch.Queries.plan bases in
  let cmp =
    Weaver.Driver.compare_fusion q.Tpch.Queries.plan bases
      ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "q21-semi matches (%d waiting suppliers)"
           (Relation.count r))
        true
        (Relation.approx_equal r g))
    reference cmp.Weaver.Driver.fused.Weaver.Runtime.sinks

let test_group_summary () =
  let w = Tpch.Patterns.pattern_c () in
  let program = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let s = Weaver.Driver.group_summary program in
  Alcotest.(check bool) "mentions fused ops" true
    (Astring_contains.contains s "SELECT, SELECT, JOIN")

let suite =
  [
    ("fusion: pattern a structure", `Quick, test_fusion_pattern_a);
    ("fusion: pattern b structure", `Quick, test_fusion_pattern_b);
    ("fusion: pattern d structure", `Quick, test_fusion_pattern_d);
    ("key prefix preservation", `Quick, test_key_prefix_check);
    ("infeasible: key-breaking pipeline", `Quick, test_infeasible_key_breaking_pipeline);
    ("infeasible: broadcast escape", `Quick, test_infeasible_broadcast_escape);
    ("layout = estimate", `Quick, test_layout_consistency);
    ("layout arena", `Quick, test_layout_arena_overlay);
    ("estimate monotone", `Quick, test_estimate_monotone);
    ("generated kernels validate", `Quick, test_generated_kernels_validate);
    ("cuda source markers", `Quick, test_cuda_source_markers);
    ("profiler", `Quick, test_profiler);
    ("sort-arity propagation", `Quick, test_sort_arity_propagation);
    ("q21-semi exact", `Slow, test_q21_semi_correct);
    ("group summary", `Quick, test_group_summary);
  ]
