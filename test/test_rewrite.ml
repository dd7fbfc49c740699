(* Plan rewriting (§6 rescheduling): each rule's shape, semantic
   preservation on random plans, and the fusion-scope payoff. *)

open Relation_lib
open Qplan

let i32 = Dtype.I32
let s3 = Schema.make [ ("k", i32); ("x", i32); ("y", i32) ]

let kinds p = List.map (fun (n : Plan.node) -> Op.name n.kind) (Plan.nodes p)

let test_select_below_sort () =
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ b ] in
  let _sel =
    Plan.add pb (Op.Select (Pred.Cmp (Pred.Lt, Pred.Attr 1, Pred.Int 50))) [ srt ]
  in
  let p = Plan.build pb in
  let p' = Rewrite.select_below_sort p in
  Alcotest.(check (list string)) "order swapped" [ "SELECT"; "SORT" ] (kinds p');
  (* identical results, including order *)
  let st = Generator.make_state 1 in
  let r = Generator.random_relation ~key_range:30 st s3 ~count:200 in
  let r = Rel_ops.map s3 (Array.init 3 (fun j d o -> d.(o + j) mod 100)) r in
  let before = Reference.eval_sinks p [| r |] in
  let after = Reference.eval_sinks p' [| r |] in
  List.iter2
    (fun (_, a) (_, b) ->
      Alcotest.(check bool) "identical rows" true
        (Relation.data a = Relation.data b))
    before after

let test_project_below_sort () =
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ b ] in
  let _pr = Plan.add pb (Op.Project [ 0; 2 ]) [ srt ] in
  let p = Plan.build pb in
  let p' = Rewrite.project_below_sort p in
  Alcotest.(check (list string)) "project moved" [ "PROJECT"; "SORT" ] (kinds p');
  (* a projection NOT keeping the key prefix must not move *)
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ b ] in
  let _pr = Plan.add pb (Op.Project [ 1; 0 ]) [ srt ] in
  let p = Plan.build pb in
  let p' = Rewrite.project_below_sort p in
  Alcotest.(check (list string)) "key-breaking project stays"
    [ "SORT"; "PROJECT" ] (kinds p')

let test_select_into_join () =
  let s2 = Schema.make [ ("k", i32); ("v", i32) ] in
  (* left-attribute predicate pushes left *)
  let pb = Plan.builder () in
  let a = Plan.base pb s3 in
  let b = Plan.base pb s2 in
  let j = Plan.add pb (Op.Join { key_arity = 1 }) [ a; b ] in
  let _s =
    Plan.add pb (Op.Select (Pred.Cmp (Pred.Lt, Pred.Attr 1, Pred.Int 10))) [ j ]
  in
  let p = Plan.build pb in
  let p' = Rewrite.select_into_join p in
  Alcotest.(check (list string)) "pushed left" [ "SELECT"; "JOIN" ] (kinds p');
  (* right-side predicate (attr 3 = right's value) pushes right with
     remapped attribute *)
  let pb = Plan.builder () in
  let a = Plan.base pb s3 in
  let b = Plan.base pb s2 in
  let j = Plan.add pb (Op.Join { key_arity = 1 }) [ a; b ] in
  let _s =
    Plan.add pb (Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 3, Pred.Int 7))) [ j ]
  in
  let p = Plan.build pb in
  let p' = Rewrite.select_into_join p in
  Alcotest.(check (list string)) "pushed right" [ "SELECT"; "JOIN" ] (kinds p');
  (match (Plan.node p' 0).Plan.kind with
  | Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 1, Pred.Int 7)) -> ()
  | k -> Alcotest.fail ("bad remap: " ^ Op.describe k));
  (* a predicate spanning both sides must stay put *)
  let pb = Plan.builder () in
  let a = Plan.base pb s3 in
  let b = Plan.base pb s2 in
  let j = Plan.add pb (Op.Join { key_arity = 1 }) [ a; b ] in
  let _s =
    Plan.add pb
      (Op.Select (Pred.Cmp (Pred.Eq, Pred.Attr 1, Pred.Attr 3)))
      [ j ]
  in
  let p = Plan.build pb in
  let p' = Rewrite.select_into_join p in
  Alcotest.(check (list string)) "mixed predicate stays" [ "JOIN"; "SELECT" ]
    (kinds p')

let test_merge_selects () =
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let s1 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Lt, Pred.Attr 1, Pred.Int 50))) [ b ] in
  let _s2 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 2, Pred.Int 10))) [ s1 ] in
  let p = Plan.build pb in
  let p' = Rewrite.merge_selects p in
  Alcotest.(check (list string)) "merged" [ "SELECT" ] (kinds p')

let test_no_rewrite_multi_consumer () =
  (* the sort feeds two selects: moving either would duplicate the sort *)
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ b ] in
  let _s1 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Lt, Pred.Attr 1, Pred.Int 50))) [ srt ] in
  let _s2 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 1, Pred.Int 50))) [ srt ] in
  let p = Plan.build pb in
  let p' = Rewrite.select_below_sort p in
  Alcotest.(check (list string)) "unchanged" (kinds p) (kinds p')

let test_optimize_enlarges_fusion () =
  (* select after sort after select: rewriting moves the top select below
     the sort so both selects fuse into one group *)
  let pb = Plan.builder () in
  let b = Plan.base pb s3 in
  let s1 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Lt, Pred.Attr 1, Pred.Int 80))) [ b ] in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ s1 ] in
  let _s2 = Plan.add pb (Op.Select (Pred.Cmp (Pred.Gt, Pred.Attr 2, Pred.Int 20))) [ srt ] in
  let p = Plan.build pb in
  let p' = Rewrite.optimize p in
  (* after rewriting, the two selects are adjacent (then merged) *)
  Alcotest.(check (list string)) "selects merged below sort"
    [ "SELECT"; "SORT" ] (kinds p');
  let program = Weaver.Driver.compile p' in
  Alcotest.(check int) "one fused group" 1
    (List.length program.Weaver.Runtime.groups)

(* property: optimize preserves semantics on random plans *)
let prop_rewrite_preserves =
  QCheck.Test.make ~name:"rewrites preserve semantics" ~count:120
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let { Test_property.plan; bases; desc } =
        Test_property.build_random (seed + 17_000_000)
      in
      let p' = Rewrite.optimize plan in
      let before = Reference.eval_sinks plan bases in
      let after = Reference.eval_sinks p' bases in
      if
        List.length before = List.length after
        && List.for_all2
             (fun (_, a) (_, b) -> Relation.equal_multiset a b)
             before after
      then true
      else QCheck.Test.fail_reportf "rewrite changed results: %s" desc)

(* float aggregates compare approximately, as fused and unfused sinks do *)
let rewrite_runs_on_device seed =
  let { Test_property.plan; bases; desc } =
    Test_property.build_random (seed + 23_000_000)
  in
  let p' = Rewrite.optimize plan in
  let reference = Reference.eval_sinks p' bases in
  let cmp = Weaver.Driver.compare_fusion p' bases ~mode:Weaver.Runtime.Resident in
  if Weaver.Driver.results_agree reference cmp.Weaver.Driver.fused.Weaver.Runtime.sinks
  then true
  else QCheck.Test.fail_reportf "rewritten plan wrong on device: %s" desc

let prop_rewrite_runs_on_device =
  QCheck.Test.make ~name:"rewritten plans execute correctly" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    rewrite_runs_on_device

(* input 83635's 134-row sink holds f32 aggregates that the device and
   the reference round differently *)
let test_rewrite_83635 () =
  Alcotest.(check bool) "rewritten plan 83635 on device" true
    (rewrite_runs_on_device 83635)

let suite =
  [
    ("select below sort", `Quick, test_select_below_sort);
    ("project below sort", `Quick, test_project_below_sort);
    ("select into join", `Quick, test_select_into_join);
    ("merge selects", `Quick, test_merge_selects);
    ("multi-consumer blocks rewrite", `Quick, test_no_rewrite_multi_consumer);
    ("rewriting enlarges fusion", `Quick, test_optimize_enlarges_fusion);
    ("rewritten plan 83635", `Quick, test_rewrite_83635);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_rewrite_preserves; prop_rewrite_runs_on_device ]
