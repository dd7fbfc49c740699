(* The per-program certificate memo: a compiled program certifies each raw
   kernel once, so a second run of it must be indistinguishable from the
   first run of a freshly compiled program (same sinks, bit for bit; same
   metrics; same trace instants) while running neither the gate nor -O3.
   The memo's key covers Config.analyze: a program copy that turns the
   gate on still runs it, and one that turns it off gets no store fact. *)

open Relation_lib
open Fault_workloads
module T = Weaver_obs.Trace

let gate_spans trace =
  List.length
    (List.filter
       (fun (e : T.event) -> e.T.lane = T.Gate && e.T.kind = T.Span)
       (T.events trace))

let instants trace =
  List.filter_map
    (fun (e : T.event) ->
      if e.T.kind = T.Instant then
        Some (T.lane_name e.T.lane, e.T.name, e.T.cycles, e.T.args)
      else None)
    (T.events trace)

(* a run's observable outcome: sink data or the fault, plus its metrics *)
let outcome = function
  | Ok (r : Weaver.Runtime.result) ->
      ( Ok
          (List.map
             (fun (id, rel) -> (id, Relation.data rel))
             r.Weaver.Runtime.sinks),
        r.Weaver.Runtime.metrics )
  | Error (f : Weaver.Runtime.failure) ->
      (Error f.Weaver.Runtime.fault, f.Weaver.Runtime.partial)

let traced_run program wl ~mode =
  let trace = T.create () in
  let res = Weaver.Runtime.run_result ~trace program wl.bases ~mode in
  (outcome res, trace)

let mode_name = function
  | Weaver.Runtime.Resident -> "resident"
  | Weaver.Runtime.Streamed -> "streamed"

(* Run a compiled program twice and a fresh compile of it once: the second
   run must equal the fresh one and certify nothing new. *)
let check_cell ~what wl ~mode ~config =
  let program = Weaver.Driver.compile ~config wl.plan in
  let (_, m1), t1 = traced_run program wl ~mode in
  let after_first = Weaver.Runtime.certified_kernels program in
  let (out2, m2), t2 = traced_run program wl ~mode in
  let (out_fresh, m_fresh), t_fresh =
    traced_run (Weaver.Driver.compile ~config wl.plan) wl ~mode
  in
  Alcotest.(check bool)
    (what ^ ": first run certified kernels")
    true
    (after_first > 0 && gate_spans t1 > 0);
  Alcotest.(check bool)
    (what ^ ": same sinks or fault as a fresh program")
    true (out2 = out_fresh);
  Alcotest.(check bool)
    (what ^ ": same metrics as a fresh program")
    true
    (Weaver.Metrics.equal m2 m_fresh && Weaver.Metrics.equal m1 m_fresh);
  Alcotest.(check bool)
    (what ^ ": same trace instants as a fresh program")
    true
    (instants t2 = instants t_fresh);
  Alcotest.(check int) (what ^ ": second run ran no gate") 0 (gate_spans t2);
  Alcotest.(check int) (what ^ ": second run certified nothing new")
    after_first
    (Weaver.Runtime.certified_kernels program);
  m_fresh

let test_hit_equals_fresh () =
  let fissions = ref 0 in
  List.iter
    (fun wl ->
      List.iter
        (fun mode ->
          List.iter
            (fun faults ->
              let what =
                Printf.sprintf "%s %s %s" wl.wname (mode_name mode)
                  (Option.value faults ~default:"fault-free")
              in
              let m =
                check_cell ~what wl ~mode
                  ~config:{ wl.config with Weaver.Config.faults }
              in
              fissions := !fissions + m.Weaver.Metrics.fissions)
            [ None; Some "launch@1x11" ])
        [ Weaver.Runtime.Resident; Weaver.Runtime.Streamed ])
    (workloads ());
  Alcotest.(check bool) "some cell fissioned" true (!fissions > 0)

(* Q21 at the default join expansion, on 2,000 lineitems of seed 5: its
   fused groups trap, retry with grown staging and fission, so the second
   run meets every retry's and every piece's raw kernel again. *)
let test_q21_default_expansion () =
  let q = Tpch.Queries.q21 in
  let wl =
    {
      wname = "q21";
      plan = q.Tpch.Queries.plan;
      bases =
        q.Tpch.Queries.bind (Tpch.Datagen.generate ~seed:5 ~lineitems:2_000);
      config = Weaver.Config.default;
    }
  in
  let m =
    check_cell ~what:"q21 default expansion" wl ~mode:Weaver.Runtime.Resident
      ~config:wl.config
  in
  (* the counts of a build that certified every attempt afresh: a memo
     that handed a retry its trapped predecessor's kernel would trap again *)
  Alcotest.(check (pair int int)) "q21 retries and fissions" (6, 2)
    (m.Weaver.Metrics.retries, m.Weaver.Metrics.fissions)

(* CTAs run batched, from the interpreter's worker-lane spans *)
let batched_ctas trace =
  List.fold_left
    (fun acc (e : T.event) ->
      match List.assoc_opt "batched" e.T.args with
      | Some (T.Int n) -> acc + n
      | _ -> acc)
    0 (T.events trace)

let test_key_covers_analyze () =
  let wl = query_wl Tpch.Queries.q1 ~lineitems:1_200 in
  let run program =
    let trace = T.create ~clock:Unix.gettimeofday () in
    ignore
      (Weaver.Runtime.run ~trace program wl.bases
         ~mode:Weaver.Runtime.Resident);
    trace
  in
  let with_analyze analyze (p : Weaver.Runtime.program) =
    {
      p with
      Weaver.Runtime.config =
        { p.Weaver.Runtime.config with Weaver.Config.analyze };
    }
  in
  (* gate off first: the copy that turns it on must still certify *)
  let off =
    Weaver.Driver.compile
      ~config:{ wl.config with Weaver.Config.analyze = false }
      wl.plan
  in
  ignore (run off);
  let t = run (with_analyze true off) in
  Alcotest.(check bool)
    "analyze on after off: the gate ran" true
    (gate_spans t > 0);
  Alcotest.(check bool)
    "analyze on after off: CTAs batched" true
    (batched_ctas t > 0);
  (* gate on first: the copy that turns it off gets no store fact *)
  let on = Weaver.Driver.compile ~config:wl.config wl.plan in
  let t_on = run on in
  Alcotest.(check bool)
    "analyze on: CTAs batched" true
    (batched_ctas t_on > 0);
  let t = run (with_analyze false on) in
  Alcotest.(check int)
    "analyze off after on: the gate did not run" 0 (gate_spans t);
  Alcotest.(check int)
    "analyze off after on: no CTA batched" 0 (batched_ctas t)

let suite =
  [
    ("memo hit equals fresh compile", `Quick, test_hit_equals_fresh);
    ("q21 retries hit the memo", `Quick, test_q21_default_expansion);
    ("key covers Config.analyze", `Quick, test_key_covers_analyze);
  ]
