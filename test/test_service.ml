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

(* Small-device settings: a 16 MB global memory and launch shapes that
   fit it. *)
let tiny_config =
  {
    Weaver.Config.default with
    Weaver.Config.device = Device.tiny;
    cta_threads = 16;
    cap = 32;
    min_cap = 8;
    broadcast_cap = 256;
    max_groups = 64;
  }

(* pattern (b) at 50k rows: its Resident footprint estimate is over half
   the tiny device's memory, its largest Streamed working set is not *)
let test_admission_pre_demotes () =
  let w = wl ~rows:50_000 ~config:tiny_config (Tpch.Patterns.pattern_b ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed w in
  let responses, stats =
    Weaver.Service.run_batch [ req ~mode:Weaver.Runtime.Resident ~rid:7 w ]
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
  let w = wl ~rows:3_000_000 ~config:tiny_config (Tpch.Patterns.pattern_b ()) in
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

(* Three Resident OOM failures are three pressure marks: the ladder
   browns out and the next Resident request is admitted pre-demoted to
   Streamed. *)
let test_oom_browns_out () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed healthy in
  let responses, stats =
    Weaver.Service.run_batch
      [
        req ~rid:0 (faulty ());
        req ~rid:1 (faulty ());
        req ~rid:2 (faulty ());
        req ~mode:Weaver.Runtime.Resident ~rid:3 healthy;
      ]
  in
  let r = Array.of_list responses in
  List.iter
    (fun i ->
      let what = Printf.sprintf "oom %d" i in
      check_partial_clean ~what (failed ~what r.(i)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "shed to Streamed" true r.(3).Weaver.Service.pre_demoted;
  check_sinks ~what:"shed query" base (completed ~what:"shed query" r.(3));
  Alcotest.(check int) "browned out" 1 stats.Weaver.Service.brownout_entries;
  Alcotest.(check int) "three failures" 3 stats.Weaver.Service.failed

(* A Resident run that completes only by demoting itself to Streamed is
   memory pressure too: three of them brown the service out just as
   three failures would. *)
let test_self_demotion_is_pressure () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let base = solo ~mode:Weaver.Runtime.Streamed healthy in
  let demoting = faulty ~faults:"alloc@1x4" () in
  let responses, stats =
    Weaver.Service.run_batch
      [
        req ~rid:0 demoting;
        req ~rid:1 demoting;
        req ~rid:2 demoting;
        req ~rid:3 healthy;
      ]
  in
  let r = Array.of_list responses in
  List.iter
    (fun i ->
      let what = Printf.sprintf "demoting rid %d" i in
      Alcotest.(check bool) (what ^ ": admitted Resident") false
        r.(i).Weaver.Service.pre_demoted;
      check_sinks ~what base (completed ~what r.(i)))
    [ 0; 1; 2 ];
  Alcotest.(check int) "three run-time demotions" 3
    stats.Weaver.Service.runtime_demotions;
  Alcotest.(check bool) "fourth request pre-demoted" true
    r.(3).Weaver.Service.pre_demoted;
  check_sinks ~what:"pre-demoted rid 3" base (completed ~what:"rid 3" r.(3));
  Alcotest.(check int) "browned out" 1 stats.Weaver.Service.brownout_entries

(* --- degradation ladder: Normal -> Brownout -> Shed -> recovery -------------- *)

(* Drives the three-level controller through a full cycle with failing
   then healthy requests (DESIGN.md §13): three failures brown the
   service out, six shed it; Shed rejects three admissions with a typed
   Overloaded verdict, then probes at Brownout; three clean completions
   step it back to Normal. *)
let test_brownout_ladder () =
  let healthy = wl (Tpch.Patterns.pattern_a ()) in
  let broken = faulty () in
  let base_res = solo healthy in
  let base_str = solo ~mode:Weaver.Runtime.Streamed healthy in
  let config =
    { Weaver.Service.default_config with Weaver.Service.queue_limit = 50 }
  in
  let reqs =
    List.mapi
      (fun rid w -> req ~rid w)
      (List.init 6 (fun _ -> broken) @ List.init 7 (fun _ -> healthy))
  in
  let responses, stats = Weaver.Service.run_batch ~config reqs in
  let r = Array.of_list responses in
  (* rids 0-5 fail; 3-5 already pre-demoted by Brownout *)
  List.iter
    (fun i ->
      let what = Printf.sprintf "ladder rid %d" i in
      check_partial_clean ~what (failed ~what r.(i));
      Alcotest.(check bool)
        (what ^ ": pre-demoted only under Brownout")
        (i >= 3) r.(i).Weaver.Service.pre_demoted)
    [ 0; 1; 2; 3; 4; 5 ];
  (* rids 6-8 arrive while Shed holds: typed rejection, nothing ran *)
  List.iter
    (fun i ->
      match r.(i).Weaver.Service.verdict with
      | Weaver.Service.Rejected (Weaver.Service.Overloaded { level }) ->
          Alcotest.(check string)
            (Printf.sprintf "rid %d shed level" i)
            "shed" level
      | _ -> Alcotest.fail (Printf.sprintf "rid %d: Overloaded expected" i))
    [ 6; 7; 8 ];
  (* rids 9-11 probe at Brownout: pre-demoted, bit-identical to streamed *)
  List.iter
    (fun i ->
      let what = Printf.sprintf "ladder rid %d" i in
      Alcotest.(check bool) (what ^ ": probe runs Streamed") true
        r.(i).Weaver.Service.pre_demoted;
      check_sinks ~what base_str (completed ~what r.(i)))
    [ 9; 10; 11 ];
  (* three clean completions recover the service: rid 12 runs Resident *)
  let what = "ladder rid 12" in
  Alcotest.(check bool) (what ^ ": recovered to Normal") false
    r.(12).Weaver.Service.pre_demoted;
  check_sinks ~what base_res (completed ~what r.(12));
  Alcotest.(check int) "brownout entries (initial + shed probe)" 2
    stats.Weaver.Service.brownout_entries;
  Alcotest.(check int) "shed entries" 1 stats.Weaver.Service.shed_entries;
  Alcotest.(check int) "shed rejections" 3 stats.Weaver.Service.shed_rejections;
  Alcotest.(check int) "rejected total" 3 stats.Weaver.Service.rejected;
  Alcotest.(check int) "completed" 4 stats.Weaver.Service.completed;
  Alcotest.(check int) "failed" 6 stats.Weaver.Service.failed

(* --- hedged launches --------------------------------------------------------- *)

(* Warm the latency history with four small queries (the hedge
   warm-up), then submit one much bigger query: its primary Resident
   attempt overruns the hedge cap (the 50th percentile of the small
   costs), is declared the loser, and the Streamed backup completes with
   sinks bit-identical to a solo streamed run. Everything is simulated
   cycles, so the hedge decision is deterministic. *)
let hedge_config =
  { Weaver.Service.queue_limit = 50; hedge_quantile = Some 0.5 }

let warmups = [ 0; 1; 2; 3 ]

let test_hedge_win () =
  let small = wl ~rows:200 (Tpch.Patterns.pattern_a ()) in
  let big = wl ~rows:2_500 (Tpch.Patterns.pattern_b ()) in
  let base_big_str = solo ~mode:Weaver.Runtime.Streamed big in
  let reqs = List.map (fun rid -> req ~rid small) warmups @ [ req ~rid:4 big ] in
  let responses, stats = Weaver.Service.run_batch ~config:hedge_config reqs in
  let rbig = List.nth responses 4 in
  Alcotest.(check bool) "big query was hedged" true
    rbig.Weaver.Service.hedged;
  let res = completed ~what:"hedged big query" rbig in
  check_sinks ~what:"hedge backup result" base_big_str res;
  Alcotest.(check (list (pair string int)))
    "hedge winner leaks nothing" [] res.Weaver.Runtime.metrics.Weaver.Metrics.leaks;
  Alcotest.(check int) "one hedge issued" 1 stats.Weaver.Service.hedges;
  Alcotest.(check int) "hedge won" 1 stats.Weaver.Service.hedge_wins;
  Alcotest.(check int) "no hedge losses" 0 stats.Weaver.Service.hedge_losses;
  (* the warm-up queries never hedge: the history was too short *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "small %d unhedged" i)
        false
        (List.nth responses i).Weaver.Service.hedged)
    warmups

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
    List.map (fun rid -> req ~rid small) warmups
    @ [ req ~rid:4 ~deadline_cycles:(1.5 *. small_cost) big ]
  in
  let responses, stats = Weaver.Service.run_batch ~config:hedge_config reqs in
  let rbig = List.nth responses 4 in
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

(* --- one ledger: the registry agrees with the stats ---------------------- *)

(* every [weaver_service_*_total] line of a dump, with its value *)
let service_counters dump =
  String.split_on_char '\n' dump
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; v ]
           when String.starts_with ~prefix:"weaver_service_" name
                && String.ends_with ~suffix:"_total" name ->
             Some (name, float_of_string v)
         | _ -> None)

let check_registry_agrees ~what ?config reqs =
  let module S = Weaver.Service in
  let module R = Weaver_obs.Registry in
  let registry = R.create () in
  let trace = Weaver_obs.Trace.create () in
  let responses, s = S.run_batch ?config ~trace ~registry reqs in
  let transitions =
    List.length
      (List.filter
         (fun (e : Weaver_obs.Trace.event) ->
           e.Weaver_obs.Trace.name = "brownout_level")
         (Weaver_obs.Trace.events trace))
  in
  let expected =
    [
      ("submitted", s.S.submitted);
      ("admitted", s.S.admitted);
      ("rejected", s.S.rejected);
      ("rejected_queue_full", s.S.queue_rejections);
      ("rejected_over_capacity", s.S.capacity_rejections);
      ("rejected_shed", s.S.shed_rejections);
      ("completed", s.S.completed);
      ("failed", s.S.failed);
      ("deadline_misses", s.S.deadline_misses);
      ("cancelled", s.S.cancelled);
      ("budget_vetoes", s.S.budget_vetoes);
      ("pre_demotions", s.S.pre_demotions);
      ("hedges", s.S.hedges);
      ("hedge_wins", s.S.hedge_wins);
      ("hedge_losses", s.S.hedge_losses);
      ("brownout_transitions", transitions);
      ("corruptions_detected", s.S.corruptions_detected);
      ("rollbacks", s.S.rollbacks);
      ("checkpoints", s.S.checkpoints_taken);
    ]
  in
  let dump = R.prometheus registry in
  let lines = service_counters dump in
  List.iter
    (fun (name, v) ->
      let key = "weaver_service_" ^ name ^ "_total" in
      match List.assoc_opt key lines with
      | None -> Alcotest.fail (Printf.sprintf "%s: %s missing" what key)
      | Some got ->
          Alcotest.(check (float 0.0)) (what ^ ": " ^ key) (float_of_int v) got)
    expected;
  Alcotest.(check int)
    (what ^ ": no other service counters")
    (List.length expected) (List.length lines);
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (what ^ ": gauge " ^ g ^ " present")
        true
        (Astring_contains.contains dump ("\n" ^ g ^ " ")))
    [
      "weaver_service_queue_depth";
      "weaver_service_brownout_level";
      "weaver_service_throughput_qps";
    ];
  (* histogram counts: one sample per completed (latency, exec) or
     executed (queue wait, per-operator rows) request *)
  let metrics =
    List.filter_map
      (fun (r : S.response) ->
        match r.S.verdict with
        | S.Completed res -> Some (true, res.Weaver.Runtime.metrics)
        | S.Failed f -> Some (false, f.Weaver.Runtime.partial)
        | S.Rejected _ -> None)
      responses
  in
  let completions = List.length (List.filter fst metrics) in
  List.iter
    (fun (h, n) ->
      Alcotest.(check int) (what ^ ": " ^ h ^ " count") n (R.histogram_count registry h))
    [
      ("weaver_service_latency_cycles", completions);
      ("weaver_service_exec_cycles", completions);
      ("weaver_service_queue_wait_cycles", List.length metrics);
    ];
  let module A = Weaver_obs.Attrib in
  let per_op = Hashtbl.create 16 in
  List.iter
    (fun (_, m) ->
      List.iter
        (fun (row : A.row) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt per_op row.A.op) in
          Hashtbl.replace per_op row.A.op (n + 1))
        (A.rows (Weaver.Metrics.attribution m)))
    metrics;
  Hashtbl.iter
    (fun op n ->
      let label = if op = A.overhead_op then "overhead" else string_of_int op in
      Alcotest.(check int)
        (Printf.sprintf "%s: op %s samples" what label)
        n
        (R.histogram_count registry
           (R.labeled "weaver_op_cycles" [ ("op", label) ])))
    per_op;
  (responses, s)

(* One batch down every road: a deadline miss, a cancellation and an
   over-capacity rejection push the ladder (with the deep-queue marks of
   the first four admissions) to Shed; three shed rejections, three
   Brownout probes and one Resident completion warm the hedge history;
   the big query is hedged; the last request overflows the queue. A clean
   one-request batch must expose every counter too, at zero. *)
let test_registry_agrees_with_stats () =
  let small = wl ~rows:200 (Tpch.Patterns.pattern_a ()) in
  let big = wl ~rows:2_500 (Tpch.Patterns.pattern_b ()) in
  let too_big =
    wl ~rows:10_000
      ~config:
        {
          tiny_config with
          Weaver.Config.device =
            { Device.tiny with Device.global_mem_bytes = 64 * 1024 };
        }
      (Tpch.Patterns.pattern_b ())
  in
  let aborted = Cancel.create () in
  Cancel.cancel aborted (Fault.Cancelled { reason = "client abort (test)" });
  let reqs =
    [ req ~deadline_cycles:0.0 ~rid:0 small; req ~cancel:aborted ~rid:1 small;
      req ~rid:2 too_big ]
    @ List.init 7 (fun i -> req ~rid:(3 + i) small)
    @ [ req ~rid:10 big; req ~rid:11 small ]
  in
  let _, s =
    check_registry_agrees ~what:"mixed"
      ~config:{ Weaver.Service.queue_limit = 10; hedge_quantile = Some 0.5 }
      reqs
  in
  let module S = Weaver.Service in
  List.iter
    (fun (what, want, got) -> Alcotest.(check int) ("mixed: " ^ what) want got)
    [
      ("queue-full", 1, s.S.queue_rejections);
      ("shed", 3, s.S.shed_rejections);
      ("over-capacity", 1, s.S.capacity_rejections);
      ("deadline misses", 1, s.S.deadline_misses);
      ("cancelled", 1, s.S.cancelled);
      ("hedges", 1, s.S.hedges);
      ("hedge wins", 1, s.S.hedge_wins);
      ("shed entries", 1, s.S.shed_entries);
    ];
  ignore (check_registry_agrees ~what:"clean" [ req ~rid:0 small ])

(* --- overload: goodput holds under fault storms ------------------------------ *)

(* Offered load at 0.5x, 1x, 2x and 4x the admit capacity (queue_limit + 1),
   every request under its own 5% alloc/launch/transfer storm, a token
   budget of 8 and a deadline of 3x the solo cost, with hedging armed.
   Admission must keep goodput flat by rejecting the excess, and every
   admitted run must stay within its budget, leak nothing and, when it
   completes, match the solo run. *)
let test_overload_goodput () =
  let budget = 8 and queue_limit = 8 in
  let w = Tpch.Patterns.pattern_a () in
  let clean = wl ~rows:1_000 w in
  let baseline = solo clean in
  let deadline =
    3.0 *. Weaver.Metrics.total_cycles baseline.Weaver.Runtime.metrics
  in
  let config = { Weaver.Service.queue_limit; hedge_quantile = Some 0.95 } in
  let injected = ref 0 in
  let goodput load =
    let offered = int_of_float ((load *. float (queue_limit + 1)) +. 0.5) in
    let reqs =
      List.init offered (fun rid ->
          let faults =
            Printf.sprintf "rseed@%d,alloc%%0.05,launch%%0.05,transfer%%0.05"
              (100 + rid)
          in
          let config =
            {
              Weaver.Config.default with
              Weaver.Config.faults = Some faults;
              retry_budget = Some budget;
            }
          in
          Weaver.Service.request ~rid ~deadline_cycles:deadline
            (Weaver.Driver.compile ~config w.Tpch.Patterns.plan)
            clean.bases)
    in
    let responses, stats = Weaver.Service.run_batch ~config reqs in
    List.iter
      (fun (r : Weaver.Service.response) ->
        let what = Printf.sprintf "%gx load rid %d" load r.Weaver.Service.rid in
        let check_run (m : Weaver.Metrics.t) =
          injected := !injected + m.Weaver.Metrics.faults_injected;
          Alcotest.(check (list (pair string int)))
            (what ^ ": no leaks") [] m.Weaver.Metrics.leaks;
          Alcotest.(check bool)
            (what ^ ": tokens within budget")
            true
            (Test_faults.tokens_spent m <= budget)
        in
        match r.Weaver.Service.verdict with
        | Weaver.Service.Completed res ->
            check_sinks ~what baseline res;
            check_run res.Weaver.Runtime.metrics
        | Weaver.Service.Failed f -> check_run f.Weaver.Runtime.partial
        | Weaver.Service.Rejected
            (Weaver.Service.Queue_full _ | Weaver.Service.Overloaded _) ->
            ()
        | Weaver.Service.Rejected (Weaver.Service.Over_capacity _) ->
            Alcotest.fail (what ^ ": rejected over capacity"))
      responses;
    stats.Weaver.Service.throughput_qps
  in
  let base = goodput 0.5 in
  List.iter
    (fun load ->
      let g = goodput load in
      Alcotest.(check bool)
        (Printf.sprintf "goodput at %gx (%.1f q/s) within 5%% of 0.5x (%.1f)"
           load g base)
        true
        (Float.abs (g -. base) <= 0.05 *. base))
    [ 1.0; 2.0; 4.0 ];
  Alcotest.(check bool) "the storms injected faults" true (!injected > 0)

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
    ("registry agrees with stats", `Quick, test_registry_agrees_with_stats);
    ("goodput flat from 0.5x to 4x load under storms", `Quick,
     test_overload_goodput);
  ]
