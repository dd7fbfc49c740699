(* The fault suites' workloads: the TPC-H micro-patterns (a)-(e) at 1,200
   rows, Q1 at 1,200 lineitems and Q21 at 800 lineitems with
   join_expansion = 4, where it fissions with no fault injected. Shared by
   test_faults.ml and the recovery pins. *)

open Relation_lib

type wl = {
  wname : string;
  plan : Qplan.Plan.t;
  bases : Relation.t array;
  config : Weaver.Config.t;
}

let pattern_wl ?(rows = 1_200) (w : Tpch.Patterns.workload) =
  {
    wname = w.Tpch.Patterns.name;
    plan = w.Tpch.Patterns.plan;
    bases = w.Tpch.Patterns.gen ~seed:5 ~rows;
    config = Weaver.Config.default;
  }

let query_wl ?(config = Weaver.Config.default) ~lineitems
    (q : Tpch.Queries.query) =
  let db = Tpch.Datagen.generate ~seed:77 ~lineitems in
  {
    wname = q.Tpch.Queries.qname;
    plan = q.Tpch.Queries.plan;
    bases = q.Tpch.Queries.bind db;
    config;
  }

let workloads () =
  [
    pattern_wl (Tpch.Patterns.pattern_a ());
    pattern_wl (Tpch.Patterns.pattern_b ());
    pattern_wl (Tpch.Patterns.pattern_c ());
    pattern_wl (Tpch.Patterns.pattern_d ());
    pattern_wl (Tpch.Patterns.pattern_e ());
    query_wl Tpch.Queries.q1 ~lineitems:1_200;
    query_wl Tpch.Queries.q21 ~lineitems:800
      ~config:
        { Weaver.Config.default with Weaver.Config.join_expansion = 4 };
  ]

