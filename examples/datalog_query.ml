(* Datalog front-end example: compile a textual query, inspect the fused
   kernels' CUDA-style source, and execute it.

     dune exec examples/datalog_query.exe *)

open Relation_lib

let program_text =
  {|
  % orders placed by premium customers in the west region
  .decl orders(cust: i32, amount: f32, region: i32)
  .decl premium(cust: i32, since: i32)
  .decl west_premium(cust: i32, spend: f32)
  west_premium(C, A * 1.2) :- orders(C, A, R), premium(C, S), R == 2, S < 2015.
  .output west_premium
  |}

let () =
  let q = Datalog.compile program_text in
  Format.printf "plan:@.%a@." Qplan.Plan.pp q.Datalog.plan;

  (* random data for both relations *)
  let st = Generator.make_state 11 in
  let orders_schema = Qplan.Plan.base_schema q.Datalog.plan 0 in
  let premium_schema = Qplan.Plan.base_schema q.Datalog.plan 1 in
  let orders =
    Rel_ops.map orders_schema
      [| (fun d o -> d.(o)); (fun d o -> d.(o + 1)); (fun d o -> d.(o + 2) mod 4) |]
      (Generator.random_relation ~key_range:2000 ~sorted_key_arity:1 st
         orders_schema ~count:20_000)
  in
  let premium =
    Rel_ops.map premium_schema
      [| (fun d o -> d.(o)); (fun d o -> 2010 + (d.(o + 1) mod 10)) |]
      (Generator.random_relation ~key_range:2000 ~sorted_key_arity:1 st
         premium_schema ~count:1_000)
  in
  let named = [ ("orders", orders); ("premium", premium) ] in

  (* reference evaluation on the host *)
  let expected = Datalog.reference q named in

  (* compile to fused kernels and inspect the generated code *)
  let program = Weaver.Driver.compile q.Datalog.plan in
  print_string (Weaver.Driver.group_summary program);
  let source = Weaver.Runtime.kernels_source program in
  Printf.printf "generated %d lines of CUDA-style source; compute kernel:\n"
    (List.length (String.split_on_char '\n' source));
  (* show just the fused compute kernel *)
  let lines = String.split_on_char '\n' source in
  let rec from_compute = function
    | [] -> []
    | l :: rest ->
        if
          String.length l > 10
          && String.sub l 0 10 = "__global__"
          && String.length l > 30
          &&
          let rec has i =
            i + 7 < String.length l
            && (String.sub l i 7 = "compute" || has (i + 1))
          in
          has 0
        then l :: rest
        else from_compute rest
  in
  let rec until_brace acc = function
    | [] -> List.rev acc
    | "}" :: _ -> List.rev ("}" :: acc)
    | l :: rest -> until_brace (l :: acc) rest
  in
  List.iter print_endline
    (until_brace [] (from_compute lines) |> List.filteri (fun i _ -> i < 40));
  print_endline "  ... (truncated)";

  (* run it and check against the reference *)
  let bases = Datalog.bind q named in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let got = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
  let r_exp = List.assoc "west_premium" expected in
  let r_got = List.assoc "west_premium" got in
  Printf.printf "device result: %d tuples; matches host reference: %b\n"
    (Relation.count r_got)
    (Relation.approx_equal r_exp r_got)
