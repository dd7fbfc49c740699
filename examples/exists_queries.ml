(* EXISTS / NOT EXISTS on the GPU: semi-joins, anti-joins and Datalog
   negation.

     dune exec examples/exists_queries.exe

   Two views of the same query — "orders from active customers that have
   no open complaint":
   1. built as a plan with SEMIJOIN / ANTIJOIN;
   2. written in Datalog with a positive membership atom and a negated
      atom, which the front-end compiles to the same operators. *)

open Relation_lib
open Qplan

let orders_s = Schema.make [ ("cust", Dtype.I32); ("amount", Dtype.I32) ]
let ids_s = Schema.make [ ("cust", Dtype.I32) ]

let data seed n =
  let st = Generator.make_state seed in
  let orders =
    Rel_ops.map orders_s
      [| (fun d o -> d.(o)); (fun d o -> d.(o + 1) mod 1000) |]
      (Generator.random_relation ~key_range:(n / 4) ~sorted_key_arity:1 st
         orders_s ~count:n)
  in
  let some k =
    Generator.random_relation ~key_range:(n / 4) ~sorted_key_arity:1 st ids_s
      ~count:k
  in
  (orders, some (n / 8), some (n / 16))

let () =
  let n = 50_000 in
  let orders, active, complaints = data 5 n in

  (* 1. plan-level: orders ⋉ active ⊳ complaints *)
  let pb = Plan.builder () in
  let o = Plan.base pb orders_s in
  let a = Plan.base pb ids_s in
  let c = Plan.base pb ids_s in
  let semi = Plan.add pb (Op.Semijoin { key_arity = 1 }) [ o; a ] in
  let _anti = Plan.add pb (Op.Antijoin { key_arity = 1 }) [ semi; c ] in
  let plan = Plan.build pb in

  let cmp =
    Weaver.Driver.compare_fusion plan [| orders; active; complaints |]
      ~mode:Weaver.Runtime.Resident
  in
  print_string (Weaver.Driver.group_summary cmp.Weaver.Driver.fused_program);
  let _, result = List.hd cmp.Weaver.Driver.fused.Weaver.Runtime.sinks in
  Printf.printf "plan API: %d of %d orders survive; fusion speedup %.2fx\n\n"
    (Relation.count result) n
    (Weaver.Driver.speedup
       ~baseline:cmp.Weaver.Driver.unfused.Weaver.Runtime.metrics
       ~improved:cmp.Weaver.Driver.fused.Weaver.Runtime.metrics);

  (* 2. the same thing in Datalog *)
  let q =
    Datalog.compile
      {|
      .decl orders(cust: i32, amount: i32)
      .decl active(cust: i32)
      .decl complaints(cust: i32)
      .decl good(cust: i32, amount: i32)
      good(C, A) :- orders(C, A), active(C), !complaints(C).
      .output good
      |}
  in
  Format.printf "Datalog plan:@.%a@." Plan.pp q.Datalog.plan;
  let named =
    [ ("orders", orders); ("active", active); ("complaints", complaints) ]
  in
  let bases = Datalog.bind q named in
  let program = Weaver.Driver.compile q.Datalog.plan in
  let run = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let good =
    List.assoc "good" (Datalog.outputs_of_sinks q run.Weaver.Runtime.sinks)
  in
  Printf.printf "Datalog: %d orders survive; agrees with plan API: %b\n"
    (Relation.count good)
    (Relation.equal_multiset good result)
