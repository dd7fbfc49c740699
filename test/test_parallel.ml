(* Domain-parallel CTA execution: differential tests proving that
   interpreting a launch with jobs>=2 worker domains produces exactly the
   results, stats and profiles of a one-worker run, plus the merge
   semantics (Stats) the parallel path relies on. *)

open Gpu_sim
open Relation_lib

let device = Device.fermi_c2050

(* jobs used by every parallel run; >1 forces the pool even on a
   single-core host (domains then time-slice) *)
let par_jobs = 4

(* --- Stats merge semantics ------------------------------------------------- *)

let fill_stats seed =
  let s = Stats.create () in
  s.Stats.instructions <- seed * 13;
  s.Stats.alu_ops <- seed * 7;
  s.Stats.branches <- seed * 5;
  s.Stats.global_loads <- seed * 3;
  s.Stats.global_load_bytes <- seed * 12;
  s.Stats.global_stores <- seed * 2;
  s.Stats.global_store_bytes <- seed * 8;
  s.Stats.shared_loads <- seed + 1;
  s.Stats.shared_load_bytes <- (seed + 1) * 4;
  s.Stats.shared_stores <- seed;
  s.Stats.shared_store_bytes <- seed * 4;
  s.Stats.atomics <- seed land 3;
  s.Stats.barrier_waits <- seed * 11;
  s

let test_stats_merge () =
  (* associativity: (a+b)+c = a+(b+c), as an accumulator sequence *)
  let a () = fill_stats 2 and b () = fill_stats 5 and c () = fill_stats 9 in
  let left = a () in
  Stats.add left (b ());
  Stats.add left (c ());
  let bc = b () in
  Stats.add bc (c ());
  let right = a () in
  Stats.add right bc;
  Alcotest.(check bool) "associative" true (Stats.equal left right);
  (* zero element: adding a fresh Stats changes nothing *)
  let x = fill_stats 4 in
  Stats.add x (Stats.create ());
  Alcotest.(check bool) "zero element" true (Stats.equal x (fill_stats 4));
  let z = Stats.create () in
  Stats.add z (fill_stats 4);
  Alcotest.(check bool) "zero left-identity" true (Stats.equal z (fill_stats 4));
  (* merge order cannot matter: all counters are sums *)
  let ab = a () in
  Stats.add ab (b ());
  let ba = b () in
  Stats.add ba (a ());
  Alcotest.(check bool) "commutative" true (Stats.equal ab ba)

let test_stats_copy () =
  let x = fill_stats 6 in
  let y = Stats.copy x in
  Alcotest.(check bool) "copy equal" true (Stats.equal x y);
  y.Stats.instructions <- y.Stats.instructions + 1;
  Alcotest.(check bool) "copy independent" false (Stats.equal x y);
  Alcotest.(check int) "original untouched" (6 * 13) x.Stats.instructions;
  Stats.reset y;
  Alcotest.(check bool) "reset is zero" true (Stats.equal y (Stats.create ()))

(* --- loads from several buffers --------------------------------------------- *)

(* Loads rotating over three buffers, every base a launch-constant handle
   (each binds its buffer's backing array when the blocks are compiled),
   summed into a fourth: the same sums at jobs 1 and 4. *)
let test_interleaved_buffers () =
  let b = Kir_builder.create ~name:"interleave" ~params:4 () in
  let xs = Kir_builder.param b 0
  and ys = Kir_builder.param b 1
  and zs = Kir_builder.param b 2
  and out = Kir_builder.param b 3 in
  let open Kir_builder in
  let gtid = bin b Kir.Mul ctaid ntid in
  let gtid = bin b Kir.Add (Reg gtid) tid in
  let acc =
    List.fold_left
      (fun acc src ->
        let v = ld b Kir.Global ~base:src ~idx:(Reg gtid) ~width:4 in
        bin b Kir.Add (Reg acc) (Reg v))
      (bin b Kir.Add (Imm 0) (Imm 0))
      [ xs; ys; zs; xs; ys; zs ]
  in
  st b Kir.Global ~base:out ~idx:(Reg gtid) ~src:(Reg acc) ~width:4;
  let k = finish b in
  let grid = 8 and cta = 32 in
  let n = grid * cta in
  let run jobs =
    let mem = Memory.create device in
    let alloc fill =
      let h = Memory.alloc mem ~words:n ~bytes:(4 * n) in
      Array.iteri (fun i _ -> (Memory.data mem h).(i) <- fill i) (Memory.data mem h);
      h
    in
    let hx = alloc (fun i -> i)
    and hy = alloc (fun i -> 10 * i)
    and hz = alloc (fun i -> (7 * i) + 3)
    and ho = alloc (fun _ -> 0) in
    let stats =
      Interp.run ~jobs mem k ~params:[| hx; hy; hz; ho |] ~grid ~cta
    in
    (Array.copy (Memory.data mem ho), stats)
  in
  let seq, seq_stats = run 1 in
  let par, par_stats = run par_jobs in
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "out[%d]" i)
        (2 * (i + (10 * i) + (7 * i) + 3))
        v;
      Alcotest.(check int) "par = seq" v par.(i))
    seq;
  Alcotest.(check bool) "stats identical" true (Stats.equal seq_stats par_stats)

(* --- global atomics under parallel workers --------------------------------- *)

let test_parallel_atomics () =
  let b = Kir_builder.create ~name:"count_all" ~params:1 () in
  let buf = Kir_builder.param b 0 in
  let open Kir_builder in
  (* two counters in one buffer: every thread bumps slot tid&1, so every
     CTA hits the same two words; a launch with a global atomic runs on
     one worker, so no update is lost at any jobs *)
  let slot = bin b Kir.And tid (Imm 1) in
  let _ = atom b Kir.Atom_add Kir.Global ~base:buf ~idx:(Reg slot) ~src:(Imm 1) in
  let k = finish b in
  let grid = 64 and cta = 33 in
  let mem = Memory.create device in
  let h = Memory.alloc mem ~words:2 ~bytes:8 in
  let stats = Interp.run ~jobs:par_jobs mem k ~params:[| h |] ~grid ~cta in
  let d = Memory.data mem h in
  Alcotest.(check int) "no lost updates" (grid * cta) (d.(0) + d.(1));
  Alcotest.(check int) "even slots" (grid * 17) d.(0);
  Alcotest.(check int) "odd slots" (grid * 16) d.(1);
  Alcotest.(check int) "atomics counted" (grid * cta) stats.Stats.atomics

(* An atomic whose old value is used depends on the order in which CTAs
   reach it: each thread claims an output slot with atom_add on a counter
   and writes its global id there. Output must equal the one-worker run,
   CTA index order, in every run. *)
let test_slot_claiming_atomics () =
  let b = Kir_builder.create ~name:"claim_slots" ~params:2 () in
  let counter = Kir_builder.param b 0 and out = Kir_builder.param b 1 in
  let open Kir_builder in
  let gtid = bin b Kir.Mul ctaid ntid in
  let gtid = bin b Kir.Add (Reg gtid) tid in
  let slot =
    atom b Kir.Atom_add Kir.Global ~base:counter ~idx:(Imm 0) ~src:(Imm 1)
  in
  st b Kir.Global ~base:out ~idx:(Reg slot) ~src:(Reg gtid) ~width:4;
  let k = finish b in
  let grid = 256 and cta = 32 in
  let n = grid * cta in
  let run jobs =
    let mem = Memory.create device in
    let hc = Memory.alloc mem ~words:1 ~bytes:4 in
    let ho = Memory.alloc mem ~words:n ~bytes:(4 * n) in
    ignore (Interp.run ~jobs mem k ~params:[| hc; ho |] ~grid ~cta);
    Array.copy (Memory.data mem ho)
  in
  let seq = run 1 in
  Alcotest.(check (array int)) "one worker claims in index order"
    (Array.init n Fun.id) seq;
  for i = 1 to 20 do
    Alcotest.(check (array int))
      (Printf.sprintf "run %d: jobs %d = jobs 1" i par_jobs)
      seq (run par_jobs)
  done

(* --- interpreter-level differential: stats + profile ----------------------- *)

let vec_mul_add_kernel () =
  let b = Kir_builder.create ~name:"vma" ~params:4 () in
  let a_buf = Kir_builder.param b 0
  and b_buf = Kir_builder.param b 1
  and out_buf = Kir_builder.param b 2
  and n = Kir_builder.param b 3 in
  let open Kir_builder in
  let gtid = bin b Kir.Mul ctaid ntid in
  let gtid = bin b Kir.Add (Reg gtid) tid in
  let stride = bin b Kir.Mul ntid nctaid in
  for_range b ~start:(Kir.Reg gtid) ~stop:n ~step:(Kir.Reg stride) (fun i ->
      let x = ld b Kir.Global ~base:a_buf ~idx:(Reg i) ~width:4 in
      let y = ld b Kir.Global ~base:b_buf ~idx:(Reg i) ~width:4 in
      let m = bin b Kir.Mul (Reg x) (Reg y) in
      let s = bin b Kir.Add (Reg m) (Reg x) in
      st b Kir.Global ~base:out_buf ~idx:(Reg i) ~src:(Reg s) ~width:4);
  finish b

let test_interp_differential () =
  let k = vec_mul_add_kernel () in
  let n = 10_000 and grid = 37 and cta = 64 in
  let run jobs =
    let mem = Memory.create device in
    let a = Memory.alloc mem ~words:n ~bytes:(4 * n) in
    let bb = Memory.alloc mem ~words:n ~bytes:(4 * n) in
    let out = Memory.alloc mem ~words:n ~bytes:(4 * n) in
    Array.iteri (fun i _ -> (Memory.data mem a).(i) <- i - 17) (Memory.data mem a);
    Array.iteri (fun i _ -> (Memory.data mem bb).(i) <- (3 * i) + 1) (Memory.data mem bb);
    let profile = Array.make (Array.length k.Kir.body) 0 in
    let stats =
      Interp.run ~jobs ~profile mem k ~params:[| a; bb; out; n |] ~grid ~cta
    in
    (Array.copy (Memory.data mem out), stats, profile)
  in
  let out1, stats1, prof1 = run 1 in
  let out4, stats4, prof4 = run par_jobs in
  Alcotest.(check (array int)) "identical outputs" out1 out4;
  Alcotest.(check bool) "identical stats" true (Stats.equal stats1 stats4);
  Alcotest.(check (array int)) "identical profiles" prof1 prof4

let test_parallel_budget () =
  (* the per-CTA budget slice fires in parallel mode too *)
  let b = Kir_builder.create ~name:"spin_wide" ~params:0 () in
  let l = Kir_builder.new_label b in
  Kir_builder.place b l;
  Kir_builder.br b l;
  let k = Kir_builder.finish b in
  let mem = Memory.create device in
  match
    Interp.run ~jobs:par_jobs ~max_instructions:10_000 mem k ~params:[||]
      ~grid:8 ~cta:1
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected budget exhaustion with parallel workers"

(* --- end-to-end differential: TPC-H patterns and queries ------------------- *)

let check_same_results ~what (r1 : Weaver.Runtime.result)
    (r2 : Weaver.Runtime.result) =
  List.iter2
    (fun (id1, rel1) (id2, rel2) ->
      Alcotest.(check int) (what ^ ": sink id") id1 id2;
      (* exact equality, tuple order included: the parallel schedule must
         not even reorder rows *)
      Alcotest.(check (array int))
        (Printf.sprintf "%s: sink %d data" what id1)
        (Relation.data rel1) (Relation.data rel2))
    r1.Weaver.Runtime.sinks r2.Weaver.Runtime.sinks;
  let m1 = r1.Weaver.Runtime.metrics and m2 = r2.Weaver.Runtime.metrics in
  Alcotest.(check bool)
    (what ^ ": merged stats identical")
    true
    (Stats.equal m1.Weaver.Metrics.stats m2.Weaver.Metrics.stats);
  Alcotest.(check int) (what ^ ": launches") m1.Weaver.Metrics.launches
    m2.Weaver.Metrics.launches;
  Alcotest.(check int) (what ^ ": retries") m1.Weaver.Metrics.retries
    m2.Weaver.Metrics.retries;
  Alcotest.(check (float 0.0))
    (what ^ ": kernel cycles")
    m1.Weaver.Metrics.kernel_cycles m2.Weaver.Metrics.kernel_cycles

let run_plan ~jobs ?(config = Weaver.Config.default) plan bases =
  let config = Weaver.Config.with_jobs config jobs in
  let program = Weaver.Driver.compile ~config plan in
  Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident

let test_pattern_differential (w : Tpch.Patterns.workload) () =
  let bases = w.Tpch.Patterns.gen ~seed:11 ~rows:3_000 in
  let seq = run_plan ~jobs:1 w.Tpch.Patterns.plan bases in
  let par = run_plan ~jobs:par_jobs w.Tpch.Patterns.plan bases in
  check_same_results ~what:w.Tpch.Patterns.name seq par

let test_pattern_differential_unfused () =
  (* the unfused pipeline launches many more (smaller) kernels; cover it
     on the mixed pattern (c) *)
  let w = Tpch.Patterns.pattern_c () in
  let bases = w.Tpch.Patterns.gen ~seed:3 ~rows:2_000 in
  let run jobs =
    let config = Weaver.Config.with_jobs Weaver.Config.default jobs in
    let cmp =
      Weaver.Driver.compare_fusion ~config w.Tpch.Patterns.plan bases
        ~mode:Weaver.Runtime.Resident
    in
    cmp.Weaver.Driver.unfused
  in
  check_same_results ~what:"pattern-c unfused" (run 1) (run par_jobs)

let test_query_differential (q : Tpch.Queries.query) ~lineitems ~config () =
  let db = Tpch.Datagen.generate ~seed:77 ~lineitems in
  let bases = q.Tpch.Queries.bind db in
  let seq = run_plan ~jobs:1 ~config q.Tpch.Queries.plan bases in
  let par = run_plan ~jobs:par_jobs ~config q.Tpch.Queries.plan bases in
  check_same_results ~what:q.Tpch.Queries.qname seq par

let suite =
  let pattern name w =
    (Printf.sprintf "differential %s" name, `Quick, test_pattern_differential w)
  in
  [
    ("stats merge", `Quick, test_stats_merge);
    ("stats copy", `Quick, test_stats_copy);
    ("interleaved buffer cache", `Quick, test_interleaved_buffers);
    ("parallel global atomics", `Quick, test_parallel_atomics);
    ("slot-claiming atomics", `Quick, test_slot_claiming_atomics);
    ("interp stats+profile differential", `Quick, test_interp_differential);
    ("parallel budget slice", `Quick, test_parallel_budget);
    pattern "pattern-a" (Tpch.Patterns.pattern_a ());
    pattern "pattern-b" (Tpch.Patterns.pattern_b ());
    pattern "pattern-c" (Tpch.Patterns.pattern_c ());
    pattern "pattern-d" (Tpch.Patterns.pattern_d ());
    pattern "pattern-e" (Tpch.Patterns.pattern_e ());
    ("differential pattern-c unfused", `Quick, test_pattern_differential_unfused);
    ( "differential q1",
      `Quick,
      test_query_differential Tpch.Queries.q1 ~lineitems:2_000
        ~config:Weaver.Config.default );
    ( "differential q21",
      `Quick,
      test_query_differential Tpch.Queries.q21 ~lineitems:1_500
        ~config:
          { Weaver.Config.default with Weaver.Config.join_expansion = 4 } );
  ]
