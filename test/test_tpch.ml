(* TPC-H workloads: generator sanity, patterns and the two real queries,
   each validated against the reference evaluator, fused vs unfused. *)

open Relation_lib

let test_datagen () =
  let db = Tpch.Datagen.generate ~seed:1 ~lineitems:2000 in
  Alcotest.(check int) "lineitems" 2000 (Relation.count db.Tpch.Datagen.lineitem);
  Alcotest.(check int) "orders" 500 (Relation.count db.Tpch.Datagen.orders);
  Alcotest.(check bool) "lineitem sorted" true
    (Relation.is_sorted ~key_arity:1 db.Tpch.Datagen.lineitem);
  Alcotest.(check bool) "orders sorted" true
    (Relation.is_sorted ~key_arity:1 db.Tpch.Datagen.orders);
  (* determinism *)
  let db2 = Tpch.Datagen.generate ~seed:1 ~lineitems:2000 in
  Alcotest.(check bool) "deterministic" true
    (Relation.equal_multiset db.Tpch.Datagen.lineitem db2.Tpch.Datagen.lineitem);
  let db3 = Tpch.Datagen.generate ~seed:2 ~lineitems:2000 in
  Alcotest.(check bool) "seed matters" false
    (Relation.equal_multiset db.Tpch.Datagen.lineitem db3.Tpch.Datagen.lineitem)

let run_workload (w : Tpch.Patterns.workload) ~rows =
  let bases = w.Tpch.Patterns.gen ~seed:5 ~rows in
  let reference = Qplan.Reference.eval_sinks w.Tpch.Patterns.plan bases in
  let cmp =
    Weaver.Driver.compare_fusion w.Tpch.Patterns.plan bases
      ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (id1, r_ref) (id2, r_got) ->
      Alcotest.(check int) "sink ids" id1 id2;
      let s = Relation.schema r_ref in
      let has_float =
        List.exists
          (fun j -> Dtype.is_float (Schema.dtype s j))
          (List.init (Schema.arity s) Fun.id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s sink %d matches (%d tuples)" w.Tpch.Patterns.name
           id1 (Relation.count r_ref))
        true
        (if has_float then Relation.approx_equal r_ref r_got
         else Relation.equal_multiset r_ref r_got))
    reference cmp.Weaver.Driver.fused.Weaver.Runtime.sinks;
  cmp

let test_patterns_correct () =
  List.iter
    (fun w -> ignore (run_workload w ~rows:1500))
    (Tpch.Patterns.all ())

let test_patterns_speedup () =
  (* every producer-consumer pattern must get a computation speedup from
     fusion at a decent size *)
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      let cmp = run_workload w ~rows:4000 in
      let s =
        cmp.Weaver.Driver.unfused.Weaver.Runtime.metrics.Weaver.Metrics.kernel_cycles
        /. cmp.Weaver.Driver.fused.Weaver.Runtime.metrics.Weaver.Metrics.kernel_cycles
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fused faster (%.2fx)" w.Tpch.Patterns.name s)
        true (s > 1.0))
    (Tpch.Patterns.all ())

let test_pattern_ab () =
  (* the §5.1 combination: selects + 2 joins weave into one kernel *)
  let w = Tpch.Patterns.pattern_ab () in
  let cmp = run_workload w ~rows:2000 in
  let groups = cmp.Weaver.Driver.fused_program.Weaver.Runtime.groups in
  Alcotest.(check int) "one fused group" 1 (List.length groups);
  Alcotest.(check int) "four operators woven" 4 (List.length (List.hd groups))

let test_back_to_back () =
  let w = Tpch.Patterns.back_to_back_selects ~selects:3 ~ratio:0.5 in
  ignore (run_workload w ~rows:3000)

let run_query (q : Tpch.Queries.query) ~lineitems =
  let db = Tpch.Datagen.generate ~seed:3 ~lineitems in
  let bases = q.Tpch.Queries.bind db in
  let reference = Qplan.Reference.eval_sinks q.Tpch.Queries.plan bases in
  let cmp =
    Weaver.Driver.compare_fusion q.Tpch.Queries.plan bases
      ~mode:Weaver.Runtime.Resident
  in
  List.iter2
    (fun (_, r_ref) (_, r_got) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s matches reference (%d groups)" q.Tpch.Queries.qname
           (Relation.count r_ref))
        true
        (Relation.approx_equal ~eps:1e-3 r_ref r_got))
    reference cmp.Weaver.Driver.fused.Weaver.Runtime.sinks;
  cmp

let test_q1 () =
  let cmp = run_query Tpch.Queries.q1 ~lineitems:4000 in
  (* Q1's fusible part is the select+arith chain: exactly one fused group
     of two thread-dependent operators *)
  let groups = cmp.Weaver.Driver.fused_program.Weaver.Runtime.groups in
  Alcotest.(check int) "one fused group" 1 (List.length groups);
  Alcotest.(check int) "select+arith fused" 2 (List.length (List.hd groups))

let test_q21 () =
  let cmp = run_query Tpch.Queries.q21 ~lineitems:3000 in
  (* the relational part (6 joins + selects + projects) weaves into a few
     fused kernels; Algorithm 2's resource budget decides how many.  All
     six joins must be inside fused groups, and the largest group must
     carry several of them. *)
  let groups = cmp.Weaver.Driver.fused_program.Weaver.Runtime.groups in
  let join_count g =
    List.length
      (List.filter
         (fun id ->
           match
             (Qplan.Plan.node cmp.Weaver.Driver.fused_program.Weaver.Runtime.plan
                id)
               .Qplan.Plan.kind
           with
           | Qplan.Op.Join _ -> true
           | _ -> false)
         g)
  in
  let total = List.fold_left (fun acc g -> acc + join_count g) 0 groups in
  let biggest = List.fold_left (fun m g -> max m (join_count g)) 0 groups in
  Alcotest.(check int) "all six joins are in fused groups" 6 total;
  Alcotest.(check bool)
    (Printf.sprintf "largest group carries >= 3 joins (got %d)" biggest)
    true (biggest >= 3)

(* The digest of every table's words for seeds 1-3 at 2,000 and 20,000
   lineitems (lineitem, orders, supplier, nation, customer): a generator
   change must keep drawing the same values in the same order. *)
let datagen_pins =
  [
    ( 1,
      2_000,
      [
        "e051ae8591d1eae478e31381eae7bf8a";
        "e41869f75e205632539e826d254a4763";
        "f575995d6b7185c2784c5de4fc35d452";
        "63333deb002bcd98ef44451f3dc49765";
        "099129a95c1711c1c65091cb32f4fb91";
      ] );
    ( 2,
      2_000,
      [
        "786a4b9ebda3ac3d0de76d06e596d661";
        "384fe57a6b70927194fbdb3926ddd40c";
        "2cc3fa56b29235b199a98eb9ccc03c31";
        "63333deb002bcd98ef44451f3dc49765";
        "1633a6027c50b0320ad9e8d8b10bc5c4";
      ] );
    ( 3,
      2_000,
      [
        "8fd7820fe0a6a81a8870d6b0a81db8d9";
        "4866cc8e696e1f4fc017a95a216119a6";
        "2ca33015a3ffa79e4ab14fd0e560acf3";
        "63333deb002bcd98ef44451f3dc49765";
        "494438ff3bceb0ab1f285696e41459ce";
      ] );
    ( 1,
      20_000,
      [
        "6e7c479d89073e810c102d904850f2eb";
        "68e4c8edf414dc0f57b98cabd3f5272f";
        "71d8766d81df803b44dc8b797776461e";
        "63333deb002bcd98ef44451f3dc49765";
        "30480daeabdb86387f8f9400a3456797";
      ] );
    ( 2,
      20_000,
      [
        "428efc3bf3db180bd63cf9fbfffff602";
        "1726dee2e345555d1b2426e811f3c573";
        "d9bab66f04da5fe542cc41e8ebb6e420";
        "63333deb002bcd98ef44451f3dc49765";
        "c1830249ab144fe566f544e4b537c550";
      ] );
    ( 3,
      20_000,
      [
        "bdb119a299738e2950d87a63ed77eecc";
        "2cae7ac5ea085ee019b67d64d0b04405";
        "a3ba80ce60c5b1d794ea5d016c3b876f";
        "63333deb002bcd98ef44451f3dc49765";
        "6a5ce443a3fc87f4f06dc52f9192a5f1";
      ] );
  ]

let test_datagen_pinned () =
  let digest r =
    Digest.to_hex
      (Digest.string
         (String.concat "," (Array.to_list (Array.map string_of_int (Relation.data r)))))
  in
  List.iter
    (fun (seed, lineitems, expected) ->
      let db = Tpch.Datagen.generate ~seed ~lineitems in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d, %d lineitems" seed lineitems)
        expected
        (List.map digest
           Tpch.Datagen.[ db.lineitem; db.orders; db.supplier; db.nation; db.customer ]))
    datagen_pins

let suite =
  [
    ("datagen digests pinned", `Quick, test_datagen_pinned);
    ("datagen", `Quick, test_datagen);
    ("patterns vs reference", `Quick, test_patterns_correct);
    ("patterns speed up", `Slow, test_patterns_speedup);
    ("back-to-back selects", `Quick, test_back_to_back);
    ("combined pattern a+b", `Quick, test_pattern_ab);
    ("TPC-H Q1", `Slow, test_q1);
    ("TPC-H Q21", `Slow, test_q21);
  ]
