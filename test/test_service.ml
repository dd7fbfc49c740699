(* Service layer: admission control, deadlines, cancellation, shedding.

   The invariants under test mirror DESIGN.md §9: (1) batch execution is
   perfectly isolated — every completed query's sinks are bit-identical
   to a solo run of the same program; (2) deadlines and cancellations
   fail only their own query, with typed faults and zero leaked device
   buffers; (3) admission control rejects (queue overflow, over
   capacity) or pre-demotes (footprint over budget, Brownout)
   before spending any simulated cycles; (4) the aggregate statistics
   are internally consistent. *)

open Relation_lib
open Gpu_sim

type wl = { program : Weaver.Runtime.program; bases : Relation.t array }

let wl ?(rows = 700) ?(config = Weaver.Config.default)
    (w : Tpch.Patterns.workload) =
  {
    program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan;
    bases = w.Tpch.Patterns.gen ~seed:11 ~rows;
  }

let solo ?(mode = Weaver.Runtime.Resident) w =
  Weaver.Driver.run w.program w.bases ~mode

let req ?deadline_cycles ?wall_deadline_s ?cancel ?mode ~rid w =
  Weaver.Service.request ?deadline_cycles ?wall_deadline_s ?cancel ?mode ~rid
    w.program w.bases

let check_sinks ~what (expected : Weaver.Runtime.result)
    (got : Weaver.Runtime.result) =
  Alcotest.(check int)
    (what ^ ": sink count")
    (List.length expected.Weaver.Runtime.sinks)
    (List.length got.Weaver.Runtime.sinks);
  List.iter2
    (fun (id1, rel1) (id2, rel2) ->
      Alcotest.(check int) (what ^ ": sink id") id1 id2;
      Alcotest.(check (array int))
        (Printf.sprintf "%s: sink %d data" what id1)
        (Relation.data rel1) (Relation.data rel2))
    expected.Weaver.Runtime.sinks got.Weaver.Runtime.sinks

let completed ~what (r : Weaver.Service.response) =
  match r.Weaver.Service.verdict with
  | Weaver.Service.Completed res -> res
  | Weaver.Service.Failed f ->
      Alcotest.fail
        (Printf.sprintf "%s: unexpectedly failed: %s" what
           (Fault.render f.Weaver.Runtime.fault))
  | Weaver.Service.Rejected _ ->
      Alcotest.fail (what ^ ": unexpectedly rejected")

let failed ~what (r : Weaver.Service.response) =
  match r.Weaver.Service.verdict with
  | Weaver.Service.Failed f -> f
  | Weaver.Service.Completed _ ->
      Alcotest.fail (what ^ ": unexpectedly completed")
  | Weaver.Service.Rejected _ ->
      Alcotest.fail (what ^ ": unexpectedly rejected")

let check_partial_clean ~what (f : Weaver.Runtime.failure) =
  Alcotest.(check (list (pair string int)))
    (what ^ ": failure leaks nothing")
    [] f.Weaver.Runtime.partial.Weaver.Metrics.leaks

(* --- isolation: a batch is bit-identical to solo runs ----------------------- *)

let test_batch_isolation () =
  let ws =
    [
      wl (Tpch.Patterns.pattern_a ());
      wl (Tpch.Patterns.pattern_b ());
      wl (Tpch.Patterns.pattern_e ());
    ]
  in
  let baselines = List.map solo ws in
  let reqs = List.mapi (fun i w -> req ~rid:(100 + i) w) ws in
  let responses, stats = Weaver.Service.run_batch reqs in
  List.iteri
    (fun i (r, base) ->
      let what = Printf.sprintf "batch query %d" i in
      Alcotest.(check int) (what ^ ": rid echoed") (100 + i)
        r.Weaver.Service.rid;
      Alcotest.(check bool) (what ^ ": not demoted") false
        r.Weaver.Service.pre_demoted;
      check_sinks ~what base (completed ~what r))
    (List.combine responses baselines);
  Alcotest.(check int) "submitted" 3 stats.Weaver.Service.submitted;
  Alcotest.(check int) "admitted" 3 stats.Weaver.Service.admitted;
  Alcotest.(check int) "completed" 3 stats.Weaver.Service.completed;
  Alcotest.(check int) "failed" 0 stats.Weaver.Service.failed;
  Alcotest.(check int) "rejected" 0 stats.Weaver.Service.rejected;
  Alcotest.(check bool) "p95 >= p50 > 0" true
    (stats.Weaver.Service.p95_latency_cycles
     >= stats.Weaver.Service.p50_latency_cycles
    && stats.Weaver.Service.p50_latency_cycles > 0.0);
  Alcotest.(check bool) "positive throughput" true
    (stats.Weaver.Service.throughput_qps > 0.0);
  (* the batch clock is the sum of per-query consumption *)
  let sum =
    List.fold_left
      (fun acc (r : Weaver.Service.response) ->
        match r.Weaver.Service.verdict with
        | Weaver.Service.Completed res ->
            acc +. Weaver.Metrics.total_cycles res.Weaver.Runtime.metrics
        | _ -> acc)
      0.0 responses
  in
  Alcotest.(check bool) "clock = sum of query cycles" true
    (Float.abs (sum -. stats.Weaver.Service.total_cycles) < 1e-6)

(* --- deadlines and cancellation --------------------------------------------- *)

let test_zero_cycle_deadline () =
  let w = wl (Tpch.Patterns.pattern_a ()) in
  let responses, stats =
    Weaver.Service.run_batch [ req ~deadline_cycles:0.0 ~rid:1 w ]
  in
  let f = failed ~what:"zero deadline" (List.hd responses) in
  (match f.Weaver.Runtime.fault with
  | Fault.Deadline_exceeded { kind = Fault.Deadline_cycles; _ } -> ()
  | other ->
      Alcotest.fail ("expected cycle deadline, got " ^ Fault.render other));
  check_partial_clean ~what:"zero deadline" f;
  Alcotest.(check int) "one deadline miss" 1
    stats.Weaver.Service.deadline_misses;
  Alcotest.(check int) "counted as failed" 1 stats.Weaver.Service.failed

let test_zero_wall_deadline () =
  let w = wl (Tpch.Patterns.pattern_b ()) in
  let responses, stats =
    Weaver.Service.run_batch [ req ~wall_deadline_s:0.0 ~rid:2 w ]
  in
  let f = failed ~what:"zero wall deadline" (List.hd responses) in
  (match f.Weaver.Runtime.fault with
  | Fault.Deadline_exceeded { kind = Fault.Deadline_wall; _ } -> ()
  | other ->
      Alcotest.fail ("expected wall deadline, got " ^ Fault.render other));
  check_partial_clean ~what:"zero wall deadline" f;
  Alcotest.(check int) "one deadline miss" 1
    stats.Weaver.Service.deadline_misses

let test_pre_cancelled () =
  let w = wl (Tpch.Patterns.pattern_e ()) in
  let tok = Cancel.create () in
  Cancel.cancel tok (Fault.Cancelled { reason = "client abort (test)" });
  let responses, stats =
    Weaver.Service.run_batch [ req ~cancel:tok ~rid:3 w ]
  in
  let f = failed ~what:"pre-cancelled" (List.hd responses) in
  (match f.Weaver.Runtime.fault with
  | Fault.Cancelled { reason } ->
      Alcotest.(check string) "reason carried" "client abort (test)" reason
  | other -> Alcotest.fail ("expected Cancelled, got " ^ Fault.render other));
  check_partial_clean ~what:"pre-cancelled" f;
  Alcotest.(check int) "one cancellation" 1 stats.Weaver.Service.cancelled;
  Alcotest.(check int) "no deadline miss" 0
    stats.Weaver.Service.deadline_misses

(* a failing query must not perturb its batch neighbours *)
let test_failure_isolated () =
  let a = wl (Tpch.Patterns.pattern_a ())
  and b = wl (Tpch.Patterns.pattern_b ()) in
  let base_a = solo a and base_b = solo b in
  let responses, stats =
    Weaver.Service.run_batch
      [
        req ~rid:0 a;
        req ~deadline_cycles:0.0 ~rid:1 b;
        req ~rid:2 b;
      ]
  in
  (match responses with
  | [ ra; rf; rb ] ->
      check_sinks ~what:"sibling before" base_a (completed ~what:"before" ra);
      check_partial_clean ~what:"middle" (failed ~what:"middle" rf);
      check_sinks ~what:"sibling after" base_b (completed ~what:"after" rb)
  | _ -> Alcotest.fail "expected 3 responses");
  Alcotest.(check int) "completed" 2 stats.Weaver.Service.completed;
  Alcotest.(check int) "failed" 1 stats.Weaver.Service.failed

(* --- admission control ------------------------------------------------------- *)

let test_queue_full () =
  let w = wl (Tpch.Patterns.pattern_a ()) in
  let base = solo w in
  let config =
    { Weaver.Service.default_config with Weaver.Service.queue_limit = 1 }
  in
  let reqs = List.init 4 (fun i -> req ~rid:i w) in
  let responses, stats = Weaver.Service.run_batch ~config reqs in
  List.iteri
    (fun i (r : Weaver.Service.response) ->
      if i <= 1 then
        check_sinks
          ~what:(Printf.sprintf "admitted %d" i)
          base
          (completed ~what:(Printf.sprintf "admitted %d" i) r)
      else
        match r.Weaver.Service.verdict with
        | Weaver.Service.Rejected (Weaver.Service.Queue_full { limit }) ->
            Alcotest.(check int) "limit echoed" 1 limit;
            Alcotest.(check bool) "rejected at arrival time" true
              (r.Weaver.Service.latency_cycles
              <= stats.Weaver.Service.total_cycles)
        | _ -> Alcotest.fail (Printf.sprintf "request %d should be shed" i))
    responses;
  Alcotest.(check int) "two rejections" 2 stats.Weaver.Service.rejected;
  Alcotest.(check int) "two completions" 2 stats.Weaver.Service.completed

let test_admission_pre_demotes () =
  let w = wl (Tpch.Patterns.pattern_b ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed w in
  let config =
    { Weaver.Service.default_config with Weaver.Service.admit_fraction = 0.0 }
  in
  let responses, stats =
    Weaver.Service.run_batch ~config
      [ req ~mode:Weaver.Runtime.Resident ~rid:7 w ]
  in
  let r = List.hd responses in
  Alcotest.(check bool) "pre-demoted" true r.Weaver.Service.pre_demoted;
  (match r.Weaver.Service.mode_used with
  | Weaver.Runtime.Streamed -> ()
  | Weaver.Runtime.Resident -> Alcotest.fail "should run Streamed");
  check_sinks ~what:"demoted run" base (completed ~what:"demoted run" r);
  Alcotest.(check int) "counted" 1 stats.Weaver.Service.pre_demotions;
  Alcotest.(check bool) "footprint estimated" true
    (r.Weaver.Service.footprint_bytes > 0)

let test_over_capacity_rejected () =
  (* a base relation far larger than the tiny device's 16 MB: even one
     Streamed working set cannot fit, so admission must refuse before
     spending a single simulated cycle *)
  let config =
    {
      Weaver.Config.default with
      Weaver.Config.device = Device.tiny;
      cta_threads = 16;
      cap = 32;
      min_cap = 8;
      broadcast_cap = 256;
      max_groups = 64;
    }
  in
  let w = wl ~rows:3_000_000 ~config (Tpch.Patterns.pattern_b ()) in
  let responses, stats = Weaver.Service.run_batch [ req ~rid:9 w ] in
  (match (List.hd responses).Weaver.Service.verdict with
  | Weaver.Service.Rejected
      (Weaver.Service.Over_capacity { footprint_bytes; capacity_bytes }) ->
      Alcotest.(check int) "capacity is the device's"
        Device.tiny.Device.global_mem_bytes capacity_bytes;
      Alcotest.(check bool) "footprint over capacity" true
        (footprint_bytes > capacity_bytes)
  | _ -> Alcotest.fail "expected Over_capacity rejection");
  Alcotest.(check int) "rejected" 1 stats.Weaver.Service.rejected;
  Alcotest.(check bool) "no cycles spent" true
    (stats.Weaver.Service.total_cycles = 0.0)

(* --- overload shedding: memory pressure browns the service out --------- *)

let faulty ?(faults = "alloc@1x999") () =
  wl
    ~config:{ Weaver.Config.default with Weaver.Config.faults = Some faults }
    (Tpch.Patterns.pattern_a ())

let ladder_config =
  { Weaver.Service.default_config with Weaver.Service.brownout_threshold = 2 }

(* Two Resident OOM failures are two pressure marks: the ladder browns out
   and the next Resident request is admitted pre-demoted to Streamed. *)
let test_oom_browns_out () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed healthy in
  let responses, stats =
    Weaver.Service.run_batch ~config:ladder_config
      [
        req ~rid:0 (faulty ());
        req ~rid:1 (faulty ());
        req ~mode:Weaver.Runtime.Resident ~rid:2 healthy;
      ]
  in
  (match responses with
  | [ r0; r1; r2 ] ->
      check_partial_clean ~what:"oom 0" (failed ~what:"oom 0" r0);
      check_partial_clean ~what:"oom 1" (failed ~what:"oom 1" r1);
      Alcotest.(check bool) "shed to Streamed" true
        r2.Weaver.Service.pre_demoted;
      check_sinks ~what:"shed query" base (completed ~what:"shed query" r2)
  | _ -> Alcotest.fail "expected 3 responses");
  Alcotest.(check int) "browned out" 1 stats.Weaver.Service.brownout_entries;
  Alcotest.(check int) "two failures" 2 stats.Weaver.Service.failed

(* A Resident run that completes only by demoting itself to Streamed is
   memory pressure too: two of them brown the service out just as two
   failures would. *)
let test_self_demotion_is_pressure () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed healthy in
  let demoting = faulty ~faults:"alloc@1x4" () in
  let responses, stats =
    Weaver.Service.run_batch ~config:ladder_config
      [ req ~rid:0 demoting; req ~rid:1 demoting; req ~rid:2 healthy ]
  in
  let r = Array.of_list responses in
  List.iter
    (fun i ->
      let what = Printf.sprintf "demoting rid %d" i in
      Alcotest.(check bool) (what ^ ": admitted Resident") false
        r.(i).Weaver.Service.pre_demoted;
      check_sinks ~what base (completed ~what r.(i)))
    [ 0; 1 ];
  Alcotest.(check int) "two run-time demotions" 2
    stats.Weaver.Service.runtime_demotions;
  Alcotest.(check bool) "third request pre-demoted" true
    r.(2).Weaver.Service.pre_demoted;
  check_sinks ~what:"pre-demoted rid 2" base (completed ~what:"rid 2" r.(2));
  Alcotest.(check int) "browned out" 1 stats.Weaver.Service.brownout_entries

(* --- degradation ladder: Normal -> Brownout -> Shed -> recovery -------------- *)

(* Drives the three-level controller through a full cycle with failing
   then healthy requests (DESIGN.md §13): two failures brown the service
   out, a third sheds it; Shed rejects exactly [brownout_cooldown]
   admissions with a typed Overloaded verdict, then probes at Brownout;
   clean completions step it back to Normal. *)
let test_brownout_ladder () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let broken =
    wl
      ~config:
        { Weaver.Config.default with Weaver.Config.faults = Some "alloc@1x999" }
      (Tpch.Patterns.pattern_a ())
  in
  let base_res = solo healthy in
  let base_str = solo ~mode:Weaver.Runtime.Streamed healthy in
  let config =
    {
      Weaver.Service.default_config with
      Weaver.Service.queue_limit = 50;
      brownout_threshold = 2;
      shed_threshold = 3;
      brownout_cooldown = 2;
    }
  in
  let reqs =
    List.mapi
      (fun rid w -> req ~rid w)
      [ broken; broken; broken; healthy; healthy; healthy; healthy; healthy ]
  in
  let responses, stats = Weaver.Service.run_batch ~config reqs in
  let r = Array.of_list responses in
  (* rids 0-2 fail (the third already pre-demoted by Brownout) *)
  List.iter
    (fun i ->
      let what = Printf.sprintf "ladder rid %d" i in
      check_partial_clean ~what (failed ~what r.(i)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "rid 2 admitted under Brownout runs Streamed" true
    r.(2).Weaver.Service.pre_demoted;
  (* rids 3-4 arrive while Shed holds: typed rejection, nothing ran *)
  List.iter
    (fun i ->
      match r.(i).Weaver.Service.verdict with
      | Weaver.Service.Rejected (Weaver.Service.Overloaded { level }) ->
          Alcotest.(check string)
            (Printf.sprintf "rid %d shed level" i)
            "shed" level
      | _ -> Alcotest.fail (Printf.sprintf "rid %d: Overloaded expected" i))
    [ 3; 4 ];
  (* rids 5-6 probe at Brownout: pre-demoted, bit-identical to streamed *)
  List.iter
    (fun i ->
      let what = Printf.sprintf "ladder rid %d" i in
      Alcotest.(check bool) (what ^ ": probe runs Streamed") true
        r.(i).Weaver.Service.pre_demoted;
      check_sinks ~what base_str (completed ~what r.(i)))
    [ 5; 6 ];
  (* two clean completions recover the service: rid 7 runs Resident *)
  let what = "ladder rid 7" in
  Alcotest.(check bool) (what ^ ": recovered to Normal") false
    r.(7).Weaver.Service.pre_demoted;
  check_sinks ~what base_res (completed ~what r.(7));
  Alcotest.(check int) "brownout entries (initial + shed probe)" 2
    stats.Weaver.Service.brownout_entries;
  Alcotest.(check int) "shed entries" 1 stats.Weaver.Service.shed_entries;
  Alcotest.(check int) "shed rejections" 2 stats.Weaver.Service.shed_rejections;
  Alcotest.(check int) "rejected total" 2 stats.Weaver.Service.rejected;
  Alcotest.(check int) "completed" 3 stats.Weaver.Service.completed;
  Alcotest.(check int) "failed" 3 stats.Weaver.Service.failed

(* --- hedged launches --------------------------------------------------------- *)

(* Warm the latency history with small queries, then submit one much
   bigger query: its primary Resident attempt overruns the hedge cap
   (the 50th percentile of the small costs), is declared the loser, and
   the Streamed backup completes with sinks bit-identical to a solo
   streamed run. Everything is simulated cycles, so the hedge decision
   is deterministic. *)
let hedge_config =
  {
    Weaver.Service.default_config with
    Weaver.Service.queue_limit = 50;
    hedge_quantile = Some 0.5;
    hedge_min_samples = 2;
  }

let test_hedge_win () =
  let small = wl ~rows:200 (Tpch.Patterns.pattern_a ()) in
  let big = wl ~rows:2_500 (Tpch.Patterns.pattern_b ()) in
  let base_big_str = solo ~mode:Weaver.Runtime.Streamed big in
  let reqs =
    [ req ~rid:0 small; req ~rid:1 small; req ~rid:2 big ]
  in
  let responses, stats = Weaver.Service.run_batch ~config:hedge_config reqs in
  let rbig = List.nth responses 2 in
  Alcotest.(check bool) "big query was hedged" true
    rbig.Weaver.Service.hedged;
  let res = completed ~what:"hedged big query" rbig in
  check_sinks ~what:"hedge backup result" base_big_str res;
  Alcotest.(check (list (pair string int)))
    "hedge winner leaks nothing" [] res.Weaver.Runtime.metrics.Weaver.Metrics.leaks;
  Alcotest.(check int) "one hedge issued" 1 stats.Weaver.Service.hedges;
  Alcotest.(check int) "hedge won" 1 stats.Weaver.Service.hedge_wins;
  Alcotest.(check int) "no hedge losses" 0 stats.Weaver.Service.hedge_losses;
  (* the small queries never hedge: history was below hedge_min_samples *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "small %d unhedged" i)
        false
        (List.nth responses i).Weaver.Service.hedged)
    [ 0; 1 ]

(* A hedge whose backup ALSO runs out of deadline is a hedge loss: the
   request fails with the backup's typed deadline fault, still leak-free.
   The deadline is set between the hedge cap (one small-run cost) and
   the big query's real cost, so the primary loses to the cap and the
   backup loses to what remains of the deadline. *)
let test_hedge_loss_leak_free () =
  let small = wl ~rows:200 (Tpch.Patterns.pattern_a ()) in
  let big = wl ~rows:2_500 (Tpch.Patterns.pattern_b ()) in
  let small_cost =
    Weaver.Metrics.total_cycles (solo small).Weaver.Runtime.metrics
  in
  let reqs =
    [
      req ~rid:0 small;
      req ~rid:1 small;
      req ~rid:2 ~deadline_cycles:(1.5 *. small_cost) big;
    ]
  in
  let responses, stats = Weaver.Service.run_batch ~config:hedge_config reqs in
  let rbig = List.nth responses 2 in
  Alcotest.(check bool) "big query was hedged" true
    rbig.Weaver.Service.hedged;
  let f = failed ~what:"hedge loss" rbig in
  (match f.Weaver.Runtime.fault with
  | Fault.Deadline_exceeded _ -> ()
  | other ->
      Alcotest.fail ("expected Deadline_exceeded, got " ^ Fault.render other));
  check_partial_clean ~what:"hedge loss" f;
  Alcotest.(check int) "one hedge issued" 1 stats.Weaver.Service.hedges;
  Alcotest.(check int) "no hedge wins" 0 stats.Weaver.Service.hedge_wins;
  Alcotest.(check int) "hedge lost" 1 stats.Weaver.Service.hedge_losses;
  Alcotest.(check int) "counted as a deadline miss" 1
    stats.Weaver.Service.deadline_misses

(* A recovery action the hedged primary cannot afford inside the hedge
   cap comes back as a [Deadline_too_close] veto, not a
   [Deadline_exceeded]: it must hedge too. Each request of this batch
   carries a 3% alloc/launch/transfer storm plus one bit flip that
   checkpointed recovery rolls back; with the cap armed, rollbacks and
   retries are vetoed against it. Were those vetoes failures, the
   service would brown out, Brownout would switch checkpointing off and
   later flips would become terminal. *)
let test_hedge_on_deadline_veto () =
  let db = Tpch.Datagen.generate ~seed:1 ~lineitems:2_000 in
  let q1 =
    {
      program = Weaver.Driver.compile Tpch.Queries.q1.Tpch.Queries.plan;
      bases = Tpch.Queries.q1.Tpch.Queries.bind db;
    }
  in
  let ws =
    [|
      wl ~rows:2_000 (Tpch.Patterns.pattern_a ());
      wl ~rows:2_000 (Tpch.Patterns.pattern_b ());
      wl ~rows:2_000 (Tpch.Patterns.pattern_e ());
      q1;
    |]
  in
  let expected = Array.map (solo ~mode:Weaver.Runtime.Streamed) ws in
  let reqs =
    List.init 9 (fun rid ->
        let w = ws.(rid mod 4) in
        let faults =
          Printf.sprintf
            "rseed@%d,alloc%%0.03,launch%%0.03,transfer%%0.03,launch@%d:flip"
            (rid + 1)
            (2 + (rid mod 3))
        in
        let config =
          {
            w.program.Weaver.Runtime.config with
            Weaver.Config.faults = Some faults;
            checkpoint = true;
            retry_budget = Some 16;
            deadline_cycles = Some 1e7;
          }
        in
        Weaver.Service.request ~rid ~mode:Weaver.Runtime.Streamed
          { w.program with Weaver.Runtime.config }
          w.bases)
  in
  let responses, stats =
    Weaver.Service.run_batch
      ~config:{ hedge_config with Weaver.Service.queue_limit = 8 }
      reqs
  in
  List.iteri
    (fun rid r ->
      let what = Printf.sprintf "storm rid %d" rid in
      check_sinks ~what expected.(rid mod 4) (completed ~what r))
    responses;
  Alcotest.(check bool) "some primaries hedged" true
    (stats.Weaver.Service.hedges > 0);
  Alcotest.(check int) "never browned out" 0
    stats.Weaver.Service.brownout_entries

(* --- dedicated rejection counters -------------------------------------------- *)

let test_rejection_counters () =
  let w = wl (Tpch.Patterns.pattern_a ()) in
  let config =
    { Weaver.Service.default_config with Weaver.Service.queue_limit = 1 }
  in
  let reqs = List.init 4 (fun rid -> req ~rid w) in
  let registry = Weaver_obs.Registry.create () in
  let _, stats = Weaver.Service.run_batch ~config ~registry reqs in
  Alcotest.(check int) "queue rejections" 2
    stats.Weaver.Service.queue_rejections;
  Alcotest.(check int) "capacity rejections" 0
    stats.Weaver.Service.capacity_rejections;
  Alcotest.(check int) "shed rejections" 0
    stats.Weaver.Service.shed_rejections;
  let dump = Weaver_obs.Registry.prometheus registry in
  let has needle = Astring_contains.contains dump needle in
  Alcotest.(check bool) "prometheus has queue-full counter" true
    (has "weaver_service_rejected_queue_full_total 2");
  Alcotest.(check bool) "prometheus has over-capacity counter" true
    (has "weaver_service_rejected_over_capacity_total 0")

let suite =
  [
    ("batch isolation vs solo runs", `Quick, test_batch_isolation);
    ("zero cycle deadline", `Quick, test_zero_cycle_deadline);
    ("zero wall deadline", `Quick, test_zero_wall_deadline);
    ("pre-cancelled token", `Quick, test_pre_cancelled);
    ("failure does not perturb siblings", `Quick, test_failure_isolated);
    ("bounded queue rejects overflow", `Quick, test_queue_full);
    ("admission pre-demotes big residents", `Quick, test_admission_pre_demotes);
    ("over-capacity requests rejected", `Quick, test_over_capacity_rejected);
    ("OOM failures brown out", `Quick, test_oom_browns_out);
    ("self-demotion is pressure", `Quick, test_self_demotion_is_pressure);
    ("degradation ladder full cycle", `Quick, test_brownout_ladder);
    ("hedged launch wins", `Quick, test_hedge_win);
    ("hedge loss stays leak-free", `Quick, test_hedge_loss_leak_free);
    ("deadline veto under a cap hedges", `Quick, test_hedge_on_deadline_veto);
    ("dedicated rejection counters", `Quick, test_rejection_counters);
  ]
