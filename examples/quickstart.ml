(* Quickstart: build a query plan, run it fused and unfused on the
   simulated GPU, and compare.

     dune exec examples/quickstart.exe

   The query: filter a sales relation twice, join it with a customer
   relation, and keep two columns — the canonical select-select-join
   pattern the paper fuses into a single kernel. *)

open Relation_lib
open Qplan

let () =
  (* 1. schemas: attributes are (name, type); the first attribute is the
     key, and relations are stored key-sorted *)
  let sales =
    Schema.make
      [ ("customer", Dtype.I32); ("amount", Dtype.I32); ("region", Dtype.I32) ]
  in
  let customers = Schema.make [ ("customer", Dtype.I32); ("tier", Dtype.I32) ] in

  (* 2. the plan: SELECT(amount > 500) -> SELECT(region = 3) -> JOIN *)
  let pb = Plan.builder () in
  let s = Plan.base pb sales in
  let c = Plan.base pb customers in
  let big = Plan.add pb (Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 1, Pred.Int 500))) [ s ] in
  let east = Plan.add pb (Op.Select (Pred.Cmp (Pred.Eq, Pred.Attr 2, Pred.Int 3))) [ big ] in
  let joined = Plan.add pb (Op.Join { key_arity = 1 }) [ east; c ] in
  let _out = Plan.add pb (Op.Project [ 0; 1; 3 ]) [ joined ] in
  let plan = Plan.build pb in
  Format.printf "%a@." Plan.pp plan;

  (* 3. data: deterministic random relations (key-sorted) *)
  let st = Generator.make_state 7 in
  let sales_rel =
    Generator.random_relation ~key_range:5_000 ~sorted_key_arity:1 st sales
      ~count:50_000
  in
  (* amounts in 0..1000, regions in 0..5 *)
  let sales_rel =
    Rel_ops.map sales
      [| (fun d o -> d.(o)); (fun d o -> d.(o + 1) mod 1000); (fun d o -> d.(o + 2) mod 6) |]
      sales_rel
  in
  let cust_rel =
    Generator.random_relation ~key_range:5_000 ~sorted_key_arity:1 st customers
      ~count:5_000
  in

  (* 4. compile + run, fused and unfused *)
  let cmp =
    Weaver.Driver.compare_fusion plan [| sales_rel; cust_rel |]
      ~mode:Weaver.Runtime.Resident
  in
  print_string (Weaver.Driver.group_summary cmp.Weaver.Driver.fused_program);

  let _, result = List.hd cmp.Weaver.Driver.fused.Weaver.Runtime.sinks in
  Format.printf "result: %a@." Relation.pp result;

  let speedup =
    Weaver.Driver.speedup
      ~baseline:cmp.Weaver.Driver.unfused.Weaver.Runtime.metrics
      ~improved:cmp.Weaver.Driver.fused.Weaver.Runtime.metrics
  in
  Printf.printf "kernel fusion speedup: %.2fx (%d launches -> %d)\n" speedup
    cmp.Weaver.Driver.unfused.Weaver.Runtime.metrics.Weaver.Metrics.launches
    cmp.Weaver.Driver.fused.Weaver.Runtime.metrics.Weaver.Metrics.launches
