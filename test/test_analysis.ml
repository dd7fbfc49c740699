(* The static-analysis gate: Kir_validate's structural rejections, each
   analyzer pass catching a hand-seeded defect, and the flip side — every
   kernel the weaver actually produces (goldens and random plans alike)
   must clear the gate with zero gating diagnostics. *)

open Gpu_sim

let raw_kernel ?(reg_count = 8) ?(shared_words = 0) ?(labels = [||]) body =
  {
    Kir.kname = "t";
    params = 0;
    reg_count;
    regs_per_thread = 8;
    shared_words;
    shared_bytes = shared_words * 4;
    body;
    labels;
    prov = Kir.no_prov;
    stores_disjoint = false;
  }

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let expect_invalid what k needle =
  match Kir_validate.check k with
  | Ok () -> Alcotest.failf "%s: expected a validation error" what
  | Error msgs ->
      let hit = List.exists (fun m -> contains m needle) msgs in
      if not hit then
        Alcotest.failf "%s: no message mentions %S in: %s" what needle
          (String.concat "; " msgs)

(* ---- Kir_validate error paths ---- *)

let label_past_end () = raw_kernel ~labels:[| 2 |] [| Kir.Br 0; Kir.Ret |]

let test_validate_label_past_end () =
  expect_invalid "label at n" (label_past_end ()) "resolves out of bounds"

let const_shared_store () =
  raw_kernel ~shared_words:4
    [|
      Kir.St
        { space = Kir.Shared; base = Kir.Imm 0; idx = Kir.Imm 4;
          src = Kir.Imm 1; width = 4 };
      Kir.Ret;
    |]

let const_shared_load () =
  raw_kernel ~shared_words:4
    [|
      Kir.Ld
        { space = Kir.Shared; dst = 5; base = Kir.Imm 3; idx = Kir.Imm 1;
          width = 4 };
      Kir.Ret;
    |]

let test_validate_const_shared_oob () =
  expect_invalid "constant shared store" (const_shared_store ())
    "constant shared access";
  expect_invalid "constant shared load" (const_shared_load ())
    "constant shared access"

let duplicate_loop_heads () =
  raw_kernel ~labels:[| 0; 0 |]
    [|
      Kir.Bin (Kir.Add, 5, Kir.Reg 5, Kir.Imm 1);
      Kir.Brz (Kir.Reg 5, 0);
      Kir.Brnz (Kir.Reg 5, 1);
      Kir.Ret;
    |]

let test_validate_duplicate_loop_heads () =
  expect_invalid "duplicate loop heads" (duplicate_loop_heads ()) "both loop heads"

let unreachable_branch () = raw_kernel ~labels:[| 0 |] [| Kir.Ret; Kir.Br 0 |]

let test_validate_unreachable_branch () =
  expect_invalid "unreachable branch" (unreachable_branch ()) "unreachable code"

let clean_kernel () =
  let b = Kir_builder.create ~name:"ok" ~params:1 () in
  let base = Kir_builder.alloc_shared b ~words:2 ~bytes:8 in
  Kir_builder.for_range b ~start:(Kir.Imm 0) ~stop:(Kir.Imm 2) ~step:(Kir.Imm 1)
    (fun i ->
      Kir_builder.st b Kir.Shared ~base ~idx:(Kir.Reg i) ~src:(Kir.Reg i)
        ~width:4);
  Kir_builder.finish b

let test_validate_clean_kernel () =
  (match Kir_validate.check (clean_kernel ()) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "clean kernel rejected: %s" (String.concat "; " msgs))

let test_builder_double_place () =
  let b = Kir_builder.create ~name:"dup" ~params:0 () in
  let l = Kir_builder.new_label b in
  Kir_builder.place b l;
  match Kir_builder.place b l with
  | () -> Alcotest.fail "second placement of the same label must raise"
  | exception Invalid_argument _ -> ()

(* ---- analyzer passes on hand-built defective kernels ---- *)

let gating_passes k =
  Weaver_analysis.Analysis.gating (Weaver.Runtime.analyze_kernel k)
  |> List.map (fun d -> d.Weaver_analysis.Diag.pass)

let expect_pass what k pass =
  let passes = gating_passes k in
  if not (List.mem pass passes) then
    Alcotest.failf "%s: expected a gating %S diagnostic, got [%s]" what pass
      (String.concat "; " passes)

let divergent_barrier () =
  let b = Kir_builder.create ~name:"divbar" ~params:0 () in
  let c = Kir_builder.cmp b Kir.Lt Kir_builder.tid (Kir.Imm 1) in
  Kir_builder.if_ b (Kir.Reg c) (fun () -> Kir_builder.bar b);
  Kir_builder.finish b

let test_divergent_barrier () =
  expect_pass "tid-guarded barrier" (divergent_barrier ()) "divergence"

let shared_race () =
  let b = Kir_builder.create ~name:"race" ~params:0 () in
  let base = Kir_builder.alloc_shared b ~words:1 ~bytes:4 in
  Kir_builder.st b Kir.Shared ~base ~idx:(Kir.Imm 0) ~src:Kir_builder.tid
    ~width:4;
  Kir_builder.finish b

let test_shared_race () =
  expect_pass "all threads store one word" (shared_race ()) "race"

let tid_indexed_store () =
  let b = Kir_builder.create ~name:"perthread" ~params:0 () in
  let base = Kir_builder.alloc_shared b ~words:1024 ~bytes:4096 in
  Kir_builder.st b Kir.Shared ~base ~idx:Kir_builder.tid ~src:(Kir.Imm 7)
    ~width:4;
  Kir_builder.finish b

let test_no_race_when_tid_indexed () =
  let r = Weaver.Runtime.analyze_kernel (tid_indexed_store ()) in
  Alcotest.(check int)
    "tid-sliced store is race-free" 0
    (List.length
       (List.filter
          (fun d -> d.Weaver_analysis.Diag.pass = "race")
          (Weaver_analysis.Analysis.gating r)))

let uninitialized_read () =
  let b = Kir_builder.create ~name:"uninit" ~params:0 () in
  let r = Kir_builder.fresh b in
  ignore (Kir_builder.bin b Kir.Add (Kir.Reg r) (Kir.Imm 1));
  Kir_builder.finish b

let test_uninitialized_read () =
  expect_pass "never-written register read" (uninitialized_read ()) "hygiene"

let dead_store () =
  let b = Kir_builder.create ~name:"dead" ~params:0 () in
  ignore (Kir_builder.mov b (Kir.Imm 42));
  Kir_builder.finish b

let test_dead_store_hint () =
  let report = Weaver.Runtime.analyze_kernel (dead_store ()) in
  (* advisory only: a dead store is a hint and must not gate *)
  Alcotest.(check int)
    "dead store does not gate" 0
    (List.length (Weaver_analysis.Analysis.gating report));
  let hints =
    List.filter
      (fun d -> d.Weaver_analysis.Diag.severity = Weaver_analysis.Diag.Hint)
      report.Weaver_analysis.Analysis.diags
  in
  Alcotest.(check bool) "dead store reported as hint" true (hints <> [])

(* ---- seeded defects in a real woven kernel ---- *)

let fused_compute () =
  let w = Tpch.Patterns.pattern_b () in
  let program = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let rec find = function
    | Weaver.Runtime.U_fused { name; ir } :: _ ->
        let lay =
          Weaver.Layout.compute program.Weaver.Runtime.config
            program.Weaver.Runtime.plan ir
        in
        let ks =
          Weaver.Codegen.generate program.Weaver.Runtime.config ~name ir lay
        in
        ks.Weaver.Codegen.compute
    | _ :: rest -> find rest
    | [] -> Alcotest.fail "pattern (b) produced no fused unit"
  in
  find program.Weaver.Runtime.units

let deleted_bar () =
  let k = fused_compute () in
  let dropped = ref false in
  let body =
    Array.map
      (fun i ->
        if (not !dropped) && i = Kir.Bar then begin
          dropped := true;
          Kir.Mov (k.Kir.reg_count - 1, Kir.Imm 0)
        end
        else i)
      k.Kir.body
  in
  Alcotest.(check bool) "kernel had a barrier to delete" true !dropped;
  { k with Kir.body }

let test_defect_deleted_bar () =
  if Weaver_analysis.Analysis.gating (Weaver.Runtime.analyze_kernel (deleted_bar ())) = []
  then Alcotest.fail "deleting a barrier must produce a gating diagnostic"

let shrunk_shared () =
  let k = fused_compute () in
  { k with Kir.shared_words = k.Kir.shared_words - 2 }

let test_defect_shrunk_shared () =
  expect_pass "shrunk shared_words" (shrunk_shared ()) "resource"

let shrunk_regs () = { (fused_compute ()) with Kir.regs_per_thread = 2 }

let test_defect_shrunk_regs () =
  expect_pass "understated register budget" (shrunk_regs ()) "resource"

(* Every hand-built and seeded-defect kernel above, for the
   differential test of the analyzer. *)
let hand_built () =
  [
    ("label past end", label_past_end ());
    ("constant shared store", const_shared_store ());
    ("constant shared load", const_shared_load ());
    ("duplicate loop heads", duplicate_loop_heads ());
    ("unreachable branch", unreachable_branch ());
    ("clean kernel", clean_kernel ());
    ("divergent barrier", divergent_barrier ());
    ("shared race", shared_race ());
    ("tid-indexed store", tid_indexed_store ());
    ("uninitialized read", uninitialized_read ());
    ("dead store", dead_store ());
    ("deleted barrier", deleted_bar ());
    ("shrunk shared_words", shrunk_shared ());
    ("understated registers", shrunk_regs ());
  ]

(* ---- the flip side: everything the weaver produces is clean ---- *)

let check_program_clean what plan =
  let program = Weaver.Driver.compile plan in
  List.iter
    (fun (r : Weaver_analysis.Analysis.report) ->
      match Weaver_analysis.Analysis.gating r with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s/%s: unexpected gating diagnostic: %s" what
            r.Weaver_analysis.Analysis.kname
            (Weaver_analysis.Diag.to_string d))
    (Weaver.Runtime.analyze_program program)

let test_goldens_clean () =
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      check_program_clean w.Tpch.Patterns.name w.Tpch.Patterns.plan)
    (Tpch.Patterns.all ());
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check_program_clean q.Tpch.Queries.qname q.Tpch.Queries.plan)
    [ Tpch.Queries.q1; Tpch.Queries.q21 ]

(* [analyze_program] certifies exactly the kernels the execution gate
   certifies: its report names equal the gate spans of a fault-free
   Resident run. *)
let test_analyze_matches_gate () =
  let check what plan bases =
    let program = Weaver.Driver.compile plan in
    let analyzed =
      List.sort_uniq String.compare
        (List.map
           (fun (r : Weaver_analysis.Analysis.report) ->
             r.Weaver_analysis.Analysis.kname)
           (Weaver.Runtime.analyze_program program))
    in
    let trace = Weaver_obs.Trace.create () in
    ignore
      (Weaver.Runtime.run ~trace program bases ~mode:Weaver.Runtime.Resident);
    let gated =
      List.sort_uniq String.compare
        (List.filter_map
           (fun (e : Weaver_obs.Trace.event) ->
             match (e.Weaver_obs.Trace.lane, String.index_opt e.name ':') with
             | Weaver_obs.Trace.Gate, Some i when String.sub e.name 0 i = "gate"
               ->
                 Some (String.sub e.name (i + 1) (String.length e.name - i - 1))
             | _ -> None)
           (Weaver_obs.Trace.events trace))
    in
    Alcotest.(check (list string)) (what ^ ": analyzed = gated") gated analyzed
  in
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      check w.Tpch.Patterns.name w.Tpch.Patterns.plan
        (w.Tpch.Patterns.gen ~seed:5 ~rows:400))
    Tpch.Patterns.
      [ pattern_a (); pattern_b (); pattern_c (); pattern_d (); pattern_e () ];
  let db = Tpch.Datagen.generate ~seed:5 ~lineitems:400 in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check q.Tpch.Queries.qname q.Tpch.Queries.plan (q.Tpch.Queries.bind db))
    [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let test_certificate_within_budget () =
  let k = fused_compute () in
  let r = Weaver.Runtime.analyze_kernel k in
  let c = r.Weaver_analysis.Analysis.certificate in
  Alcotest.(check bool)
    "live registers within Algorithm-2 budget" true
    (c.Weaver_analysis.Resources.max_live_regs <= k.Kir.regs_per_thread);
  Alcotest.(check bool)
    "shared footprint within declaration" true
    (c.Weaver_analysis.Resources.max_shared_addr < k.Kir.shared_words)

(* ---- the global-store fact ---- *)

let stores_disjoint k =
  (Weaver.Runtime.analyze_kernel k).Weaver_analysis.Analysis.stores_disjoint

(* [out[idx tid] := tid] with one parameter [out]; [loop] wraps the store
   in a uniform, barrier-free loop [for i in 0 .. 4] whose variable the
   index may use. *)
let store_kernel ?(loop = false) idx =
  let b = Kir_builder.create ~name:"stores" ~params:1 () in
  let open Kir_builder in
  let store i =
    st b Kir.Global ~base:(param b 0) ~idx:(idx b i) ~src:tid ~width:4
  in
  if loop then
    for_range b ~start:(Kir.Imm 0) ~stop:(Kir.Imm 4) ~step:(Kir.Imm 1)
      (fun i -> store (Some (Kir.Reg i)))
  else store None;
  finish b

let test_stores_disjoint () =
  let open Kir_builder in
  let case what want ?loop idx =
    Alcotest.(check bool) what want (stores_disjoint (store_kernel ?loop idx))
  in
  case "every thread stores word 0" false (fun _ _ -> Kir.Imm 0);
  case "word tid" true (fun _ _ -> tid);
  (* the rule for a uniform additive term: [ctaid * 128 + tid] keeps the
     class of [tid] *)
  case "word ctaid*128 + tid" true (fun b _ ->
      let base = bin b Kir.Mul ctaid (Kir.Imm 128) in
      Kir.Reg (bin b Kir.Add (Kir.Reg base) tid));
  (* a uniform loop variable is not a fixed term: without a barrier in
     the loop, thread 1 in iteration 0 and thread 0 in iteration 1 both
     store word 1 *)
  case "word i + tid in a barrier-free loop" false ~loop:true (fun b i ->
      Kir.Reg (bin b Kir.Add (Option.get i) tid))

(* Every launch of more than one thread per CTA in the 8 goldens carries
   the gate's store fact: the runtime certified its kernel as free of
   same-CTA global write-write races. *)
let test_golden_launches_disjoint () =
  let check what plan bases =
    let program = Weaver.Driver.compile plan in
    let launches = ref 0 in
    Interp.with_launch_observer
      (fun _ k ~params:_ ~grid:_ ~cta ->
        if cta > 1 then begin
          incr launches;
          if not k.Kir.stores_disjoint then
            Alcotest.failf "%s/%s: launched without the store fact" what
              k.Kir.kname
        end)
      (fun () ->
        ignore
          (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident));
    Alcotest.(check bool) (what ^ " launched") true (!launches > 0)
  in
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      check w.Tpch.Patterns.name w.Tpch.Patterns.plan
        (w.Tpch.Patterns.gen ~seed:5 ~rows:400))
    (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ]);
  let db = Tpch.Datagen.generate ~seed:5 ~lineitems:400 in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check q.Tpch.Queries.qname q.Tpch.Queries.plan (q.Tpch.Queries.bind db))
    [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let prop_gate_clean =
  QCheck.Test.make ~name:"woven random plans pass the gate" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let { Test_property.plan; desc; _ } = Test_property.build_random seed in
      let program = Weaver.Driver.compile plan in
      List.for_all
        (fun r ->
          match Weaver_analysis.Analysis.gating r with
          | [] -> true
          | d :: _ ->
              QCheck.Test.fail_reportf "%s gated on %s: %s" desc
                r.Weaver_analysis.Analysis.kname
                (Weaver_analysis.Diag.to_string d))
        (Weaver.Runtime.analyze_program program))

let suite =
  [
    Alcotest.test_case "validate: label past end" `Quick
      test_validate_label_past_end;
    Alcotest.test_case "validate: constant shared OOB" `Quick
      test_validate_const_shared_oob;
    Alcotest.test_case "validate: duplicate loop heads" `Quick
      test_validate_duplicate_loop_heads;
    Alcotest.test_case "validate: unreachable branch" `Quick
      test_validate_unreachable_branch;
    Alcotest.test_case "validate: clean kernel accepted" `Quick
      test_validate_clean_kernel;
    Alcotest.test_case "builder: double label placement" `Quick
      test_builder_double_place;
    Alcotest.test_case "divergent barrier flagged" `Quick test_divergent_barrier;
    Alcotest.test_case "same-word shared race flagged" `Quick test_shared_race;
    Alcotest.test_case "tid-sliced store race-free" `Quick
      test_no_race_when_tid_indexed;
    Alcotest.test_case "uninitialized read flagged" `Quick
      test_uninitialized_read;
    Alcotest.test_case "dead store is advisory" `Quick test_dead_store_hint;
    Alcotest.test_case "seeded defect: deleted barrier" `Quick
      test_defect_deleted_bar;
    Alcotest.test_case "seeded defect: shrunk shared_words" `Quick
      test_defect_shrunk_shared;
    Alcotest.test_case "seeded defect: understated registers" `Quick
      test_defect_shrunk_regs;
    Alcotest.test_case "golden workloads gate clean" `Slow test_goldens_clean;
    Alcotest.test_case "analyze covers what the gate runs" `Quick
      test_analyze_matches_gate;
    Alcotest.test_case "certificate within budgets" `Quick
      test_certificate_within_budget;
    Alcotest.test_case "global store fact" `Quick test_stores_disjoint;
    Alcotest.test_case "golden launches carry the store fact" `Quick
      test_golden_launches_disjoint;
    QCheck_alcotest.to_alcotest prop_gate_clean;
  ]
