(* Runtime resilience paths: capacity retries, the degenerate-skew host
   fallback, aggregation-table growth, implicit sorts at group boundaries
   and buffer lifetime accounting. *)

open Relation_lib
open Qplan

let i32 = Dtype.I32
let s2 = Schema.make [ ("k", i32); ("v", i32) ]

(* every recovery/fallback path must return device memory to the manager:
   a nonempty [leaks] field is a runtime lifetime bug *)
let check_no_leaks ~what (r : Weaver.Runtime.result) =
  Alcotest.(check (list (pair string int)))
    (what ^ ": no leaked device buffers")
    [] r.Weaver.Runtime.metrics.Weaver.Metrics.leaks

let test_skew_fallback () =
  (* every row shares one key: the join's key run can never fit a shared
     tile on the tiny device, so the runtime must fall back to the
     host-modelled execution — and still be exact *)
  let pb = Plan.builder () in
  let a = Plan.base pb s2 in
  let b = Plan.base pb s2 in
  let _j = Plan.add pb (Op.Join { key_arity = 1 }) [ a; b ] in
  let plan = Plan.build pb in
  let rows = 400 in
  let mk seed =
    Relation.create s2 (List.init rows (fun i -> [| 7; (seed * 1000) + i |]))
  in
  let bases = [| mk 1; mk 2 |] in
  let config =
    {
      Weaver.Config.default with
      Weaver.Config.device = Gpu_sim.Device.tiny;
      cta_threads = 16;
      cap = 32;
      min_cap = 8;
      max_retries = 3;
    }
  in
  let reference = Reference.eval_sinks plan bases in
  let program = Weaver.Driver.compile ~config plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check int) "cross product size" (rows * rows) (Relation.count r);
      Alcotest.(check bool) "fallback exact" true (Relation.equal_multiset r g))
    reference result.Weaver.Runtime.sinks;
  (* the fallback charges a modelled pass *)
  Alcotest.(check bool) "fallback kernel reported" true
    (List.exists
       (fun (lr : Gpu_sim.Executor.launch_report) ->
         Astring_contains.contains lr.Gpu_sim.Executor.kernel_name
           "skew_fallback")
       result.Weaver.Runtime.metrics.Weaver.Metrics.reports);
  check_no_leaks ~what:"skew fallback" result

let test_aggregate_table_growth () =
  (* more groups than the configured table: the runtime doubles and
     retries, charging the failed attempts *)
  let s = Schema.make [ ("g", i32); ("v", i32) ] in
  let pb = Plan.builder () in
  let b = Plan.base pb s in
  let _agg =
    Plan.add pb
      (Op.Aggregate
         {
           group_by = [ 0 ];
           aggs = [ { Op.fn = Op.Count; expr = Pred.Attr 0; agg_name = "n" } ];
         })
      [ b ]
  in
  let plan = Plan.build pb in
  let rows = 600 in
  let rel = Relation.create s (List.init rows (fun i -> [| i; i |])) in
  (* 600 distinct groups, table starts at 64 *)
  let config = { Weaver.Config.default with Weaver.Config.max_groups = 64 } in
  let program = Weaver.Driver.compile ~config plan in
  let result = Weaver.Driver.run program [| rel |] ~mode:Weaver.Runtime.Resident in
  let _, got = List.hd result.Weaver.Runtime.sinks in
  Alcotest.(check int) "all groups found" rows (Relation.count got);
  Alcotest.(check bool) "retried" true
    (result.Weaver.Runtime.metrics.Weaver.Metrics.retries > 0);
  check_no_leaks ~what:"aggregate growth" result

let test_capacity_exhaustion_falls_back () =
  (* zero capacity retries allowed: the first overflow immediately
     exhausts the retry policy and the runtime must go straight to the
     host fallback — still exact, still leak-free *)
  let s = Schema.make [ ("g", i32); ("v", i32) ] in
  let pb = Plan.builder () in
  let b = Plan.base pb s in
  let _agg =
    Plan.add pb
      (Op.Aggregate
         {
           group_by = [ 0 ];
           aggs = [ { Op.fn = Op.Count; expr = Pred.Attr 0; agg_name = "n" } ];
         })
      [ b ]
  in
  let plan = Plan.build pb in
  let rows = 600 in
  let rel = Relation.create s (List.init rows (fun i -> [| i; i |])) in
  let config =
    {
      Weaver.Config.default with
      Weaver.Config.max_groups = 8;
      max_retries = 0;
    }
  in
  let reference = Reference.eval_sinks plan [| rel |] in
  let program = Weaver.Driver.compile ~config plan in
  let result =
    Weaver.Driver.run program [| rel |] ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check bool) "exhausted retry still exact" true
        (Relation.equal_multiset r g))
    reference result.Weaver.Runtime.sinks;
  Alcotest.(check bool) "fallback kernel reported" true
    (List.exists
       (fun (lr : Gpu_sim.Executor.launch_report) ->
         Astring_contains.contains lr.Gpu_sim.Executor.kernel_name "fallback")
       result.Weaver.Runtime.metrics.Weaver.Metrics.reports);
  check_no_leaks ~what:"capacity exhaustion" result

let test_unique_slice_fallback () =
  (* every launch traps on capacity: the UNIQUE slice doubles up to its
     shared-memory bound (flags scratch, one word per row), then the
     operator runs host-side, still exact and leak-free *)
  let pb = Plan.builder () in
  let u = Plan.add pb (Op.Unique { key_arity = 1 }) [ Plan.base pb s2 ] in
  let plan = Plan.build pb in
  let fallback =
    match u with
    | Plan.Node id -> Printf.sprintf "unique%d_skew_fallback" id
    | Plan.Base _ -> assert false
  in
  let rel =
    Relation.create s2 (List.init 1_200 (fun i -> [| i * 7919 mod 300; i |]))
  in
  let config =
    { Weaver.Config.default with Weaver.Config.faults = Some "launch@1x11" }
  in
  let reference = Reference.eval_sinks plan [| rel |] in
  let program = Weaver.Driver.compile ~config plan in
  let result =
    Weaver.Driver.run program [| rel |] ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check (array int)) "fallback bit-exact" (Relation.data r)
        (Relation.data g))
    reference result.Weaver.Runtime.sinks;
  let m = result.Weaver.Runtime.metrics in
  Alcotest.(check bool) "unique fallback reported" true
    (List.exists
       (fun (lr : Gpu_sim.Executor.launch_report) ->
         lr.Gpu_sim.Executor.kernel_name = fallback)
       m.Weaver.Metrics.reports);
  Alcotest.(check bool) "retried" true (m.Weaver.Metrics.retries > 0);
  check_no_leaks ~what:"unique fallback" result

let test_streamed_error_path () =
  (* an unrecoverable device OOM mid-run in Streamed mode surfaces as a
     typed Recovery_exhausted; the state is per-run, so an immediate
     fault-free rerun of the same program succeeds *)
  let w = Tpch.Patterns.pattern_b () in
  let bases = w.Tpch.Patterns.gen ~seed:9 ~rows:1_000 in
  let config =
    { Weaver.Config.default with Weaver.Config.faults = Some "alloc@3x999" }
  in
  let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
  (match Weaver.Driver.run program bases ~mode:Weaver.Runtime.Streamed with
  | (_ : Weaver.Runtime.result) ->
      Alcotest.fail "expected Execution_error in streamed mode"
  | exception
      Weaver.Runtime.Execution_error
        (Gpu_sim.Fault.Recovery_exhausted
           { last = Gpu_sim.Fault.Alloc_failure { injected = true; _ }; _ })
    ->
      ());
  let clean = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let result = Weaver.Driver.run clean bases ~mode:Weaver.Runtime.Streamed in
  let reference = Reference.eval_sinks w.Tpch.Patterns.plan bases in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check bool) "rerun after error exact" true
        (Relation.equal_multiset r g))
    reference result.Weaver.Runtime.sinks;
  check_no_leaks ~what:"rerun after streamed error" result

let test_implicit_sort_charged () =
  (* a PROJECT that reorders attributes between groups leaves its output
     unsorted on the new key; the runtime must re-sort (and charge) before
     the downstream JOIN *)
  let s3 = Schema.make [ ("k", i32); ("x", i32); ("y", i32) ] in
  let pb = Plan.builder () in
  let a = Plan.base pb s3 in
  let b = Plan.base pb s2 in
  let p = Plan.add pb (Op.Project [ 1; 0 ]) [ a ] in
  (* (x, k): new key = old attr 1 *)
  let _j = Plan.add pb (Op.Join { key_arity = 1 }) [ p; b ] in
  let plan = Plan.build pb in
  let st = Generator.make_state 3 in
  let ra =
    Rel_ops.map s3
      [| (fun d o -> d.(o)); (fun d o -> d.(o + 1) mod 50); (fun d o -> d.(o + 2)) |]
      (Generator.random_relation ~key_range:50 ~sorted_key_arity:1 st s3
         ~count:300)
  in
  let rb =
    Rel_ops.map s2
      [| (fun d o -> d.(o) mod 50); (fun d o -> d.(o + 1)) |]
      (Generator.random_relation ~key_range:50 st s2 ~count:200)
  in
  let rb = Relation.sort ~key_arity:1 rb in
  let bases = [| ra; rb |] in
  let reference = Reference.eval_sinks plan bases in
  let program = Weaver.Driver.compile plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  List.iter2
    (fun (_, r) (_, g) ->
      Alcotest.(check bool) "reordered-key join exact" true
        (Relation.equal_multiset r g))
    reference result.Weaver.Runtime.sinks;
  Alcotest.(check bool) "implicit sort charged" true
    (List.exists
       (fun (lr : Gpu_sim.Executor.launch_report) ->
         Astring_contains.contains lr.Gpu_sim.Executor.kernel_name
           "implicit_sort")
       result.Weaver.Runtime.metrics.Weaver.Metrics.reports);
  check_no_leaks ~what:"implicit sort" result

let test_resident_frees_intermediates () =
  (* in Resident mode intermediate buffers are freed once their last
     consumer ran: final live memory is inputs + sink only *)
  let pb = Plan.builder () in
  let b = Plan.base pb s2 in
  let s1 = Plan.add pb (Op.Select Pred.True) [ b ] in
  let s2n = Plan.add pb (Op.Select Pred.True) [ s1 ] in
  let _s3 = Plan.add pb (Op.Select Pred.True) [ s2n ] in
  let plan = Plan.build pb in
  let st = Generator.make_state 4 in
  let rel = Generator.random_relation ~sorted_key_arity:1 st s2 ~count:5_000 in
  let program = Weaver.Driver.compile ~fuse:false plan in
  let result = Weaver.Driver.run program [| rel |] ~mode:Weaver.Runtime.Resident in
  let m = result.Weaver.Runtime.metrics in
  (* peak must exceed 2x the input (some intermediate lived), but far less
     than holding all three intermediates plus staging at once would *)
  Alcotest.(check bool) "peak above input" true
    (m.Weaver.Metrics.peak_global_bytes > Relation.bytes rel);
  Alcotest.(check bool) "intermediates freed" true
    (m.Weaver.Metrics.peak_global_bytes < 8 * Relation.bytes rel);
  check_no_leaks ~what:"resident intermediates" result

let test_metrics_by_kernel () =
  let w = Tpch.Patterns.pattern_a () in
  let bases = w.Tpch.Patterns.gen ~seed:1 ~rows:5_000 in
  let program = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let by = Weaver.Metrics.by_kernel result.Weaver.Runtime.metrics in
  Alcotest.(check int) "four kernels" 4 (List.length by);
  (* sorted by cycles descending *)
  let cycles = List.map (fun (_, _, c, _) -> c) by in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> Float.compare b a) cycles = cycles);
  let total = List.fold_left (fun a (_, _, c, _) -> a +. c) 0.0 by in
  Alcotest.(check bool) "sums to kernel cycles" true
    (Float.abs (total -. result.Weaver.Runtime.metrics.Weaver.Metrics.kernel_cycles)
    < 1.0)

let test_rewrites_applied_metric () =
  let pb = Plan.builder () in
  let b = Plan.base pb s2 in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ b ] in
  let _s = Plan.add pb (Op.Select Pred.True) [ srt ] in
  let plan = Plan.build pb in
  let p' = Rewrite.optimize plan in
  Alcotest.(check bool) "rewrite counted" true
    (Rewrite.rewrites_applied plan p' > 0);
  Alcotest.(check int) "identity distance" 0 (Rewrite.rewrites_applied plan plan)

let suite =
  [
    ("degenerate-skew fallback", `Quick, test_skew_fallback);
    ("aggregate table growth", `Quick, test_aggregate_table_growth);
    ("capacity exhaustion falls back", `Quick, test_capacity_exhaustion_falls_back);
    ("unique slice growth falls back", `Quick, test_unique_slice_fallback);
    ("streamed error path", `Quick, test_streamed_error_path);
    ("implicit sort at group boundary", `Quick, test_implicit_sort_charged);
    ("resident mode frees intermediates", `Quick, test_resident_frees_intermediates);
    ("metrics by kernel", `Quick, test_metrics_by_kernel);
    ("rewrites_applied", `Quick, test_rewrites_applied_metric);
  ]
