(* Fault injection and self-healing runtime.

   The core of this suite is a chaos differential: sweep dozens of seeded
   fault schedules over the TPC-H micro-patterns and queries, in both
   transfer modes and at both job counts, and require every recovered run
   to produce sinks bit-identical to the fault-free run — with no device
   buffer leaked on any path. Targeted schedules then pin down each
   recovery policy (transient retry, fission, Resident->Streamed
   demotion) and the unrecoverable paths (retry exhaustion in either
   mode). Injector unit tests cover the spec grammar, counter semantics
   and seeded-schedule determinism. *)

open Relation_lib
open Gpu_sim
open Fault_workloads

let par_jobs = 4

let run_wl wl ~mode ~jobs ~faults =
  let config = Weaver.Config.with_jobs wl.config jobs in
  let config = { config with Weaver.Config.faults } in
  let program = Weaver.Driver.compile ~config wl.plan in
  Weaver.Driver.run program wl.bases ~mode

(* --- assertions ------------------------------------------------------------- *)

let check_no_leaks ~what (r : Weaver.Runtime.result) =
  Alcotest.(check (list (pair string int)))
    (what ^ ": no leaked device buffers")
    [] r.Weaver.Runtime.metrics.Weaver.Metrics.leaks

(* Recovery tokens a run spent: retries, fissions, demotions and
   rollbacks all pass the runtime's one token gate. *)
let tokens_spent (m : Weaver.Metrics.t) =
  m.Weaver.Metrics.retries + m.Weaver.Metrics.fissions
  + m.Weaver.Metrics.demotions + m.Weaver.Metrics.rollbacks

let check_sinks ~what (expected : Weaver.Runtime.result)
    (got : Weaver.Runtime.result) =
  Alcotest.(check int)
    (what ^ ": sink count")
    (List.length expected.Weaver.Runtime.sinks)
    (List.length got.Weaver.Runtime.sinks);
  List.iter2
    (fun (id1, rel1) (id2, rel2) ->
      Alcotest.(check int) (what ^ ": sink id") id1 id2;
      (* bit-identical, tuple order included: recovery must not even
         reorder rows *)
      Alcotest.(check (array int))
        (Printf.sprintf "%s: sink %d data" what id1)
        (Relation.data rel1) (Relation.data rel2))
    expected.Weaver.Runtime.sinks got.Weaver.Runtime.sinks

(* --- chaos differential sweep ----------------------------------------------- *)

(* Each workload gets [seeds_per_wl] seeded schedules spread over
   {Resident,Streamed} x jobs {1,4}; with 7 workloads this is 56 seeded
   runs (>= 50). Every recovered run must match the fault-free baseline
   for its mode bit-for-bit and leak nothing. of_seed events fault at
   most 2 consecutive calls per site, which is within every retry budget,
   so all these schedules must be survivable. *)
let seeds_per_wl = 8

let test_chaos_sweep wl () =
  let baseline =
    let tbl = Hashtbl.create 2 in
    fun mode ->
      match Hashtbl.find_opt tbl mode with
      | Some r -> r
      | None ->
          let r = run_wl wl ~mode ~jobs:1 ~faults:None in
          check_no_leaks ~what:(wl.wname ^ " fault-free") r;
          Hashtbl.replace tbl mode r;
          r
  in
  let total_injected = ref 0 in
  for seed = 1 to seeds_per_wl do
    let mode =
      if seed mod 2 = 0 then Weaver.Runtime.Resident
      else Weaver.Runtime.Streamed
    in
    let jobs = if seed mod 3 = 0 then par_jobs else 1 in
    let what =
      Printf.sprintf "%s seed=%d %s jobs=%d" wl.wname seed
        (match mode with
        | Weaver.Runtime.Resident -> "resident"
        | Weaver.Runtime.Streamed -> "streamed")
        jobs
    in
    let faults = Some (Printf.sprintf "seed@%d" seed) in
    let r = run_wl wl ~mode ~jobs ~faults in
    check_sinks ~what (baseline mode) r;
    check_no_leaks ~what r;
    total_injected :=
      !total_injected
      + r.Weaver.Runtime.metrics.Weaver.Metrics.faults_injected
  done;
  (* the sweep must actually exercise injection, not just parse specs *)
  Alcotest.(check bool)
    (wl.wname ^ ": some seeded schedule injected a fault")
    true (!total_injected > 0)

(* --- targeted recovery policies --------------------------------------------- *)

(* transient PCIe fault while streaming: absorbed by transfer retries *)
let test_transfer_retry () =
  let wl = pattern_wl (Tpch.Patterns.pattern_b ()) in
  let base = run_wl wl ~mode:Weaver.Runtime.Streamed ~jobs:1 ~faults:None in
  let r =
    run_wl wl ~mode:Weaver.Runtime.Streamed ~jobs:1
      ~faults:(Some "transfer@2x2")
  in
  let m = r.Weaver.Runtime.metrics in
  Alcotest.(check bool)
    "transfer retries happened" true
    (m.Weaver.Metrics.retries >= 2);
  Alcotest.(check int) "faults injected" 2 m.Weaver.Metrics.faults_injected;
  Alcotest.(check int) "no demotion" 0 m.Weaver.Metrics.demotions;
  check_sinks ~what:"transfer retry" base r;
  check_no_leaks ~what:"transfer retry" r

(* a launch site that traps persistently: capacity retries exhaust, the
   fused group fissions down to singletons and the host fallback finishes
   the job — results unchanged *)
let test_fission_fallback () =
  let wl = pattern_wl (Tpch.Patterns.pattern_a ()) in
  let base = run_wl wl ~mode:Weaver.Runtime.Resident ~jobs:1 ~faults:None in
  let r =
    run_wl wl ~mode:Weaver.Runtime.Resident ~jobs:1
      ~faults:(Some "launch@1x999")
  in
  let m = r.Weaver.Runtime.metrics in
  Alcotest.(check bool) "fissions happened" true (m.Weaver.Metrics.fissions >= 1);
  Alcotest.(check bool) "retries happened" true (m.Weaver.Metrics.retries >= 1);
  check_sinks ~what:"fission fallback" base r;
  check_no_leaks ~what:"fission fallback" r

(* persistent device OOM while resident: alloc retries exhaust, the run
   demotes to Streamed and completes there *)
let test_demotion () =
  let wl = pattern_wl (Tpch.Patterns.pattern_a ()) in
  let base = run_wl wl ~mode:Weaver.Runtime.Resident ~jobs:1 ~faults:None in
  let r =
    run_wl wl ~mode:Weaver.Runtime.Resident ~jobs:1 ~faults:(Some "alloc@1x4")
  in
  let m = r.Weaver.Runtime.metrics in
  Alcotest.(check int) "demoted once" 1 m.Weaver.Metrics.demotions;
  Alcotest.(check int) "alloc retries" 3 m.Weaver.Metrics.retries;
  Alcotest.(check int) "faults injected" 4 m.Weaver.Metrics.faults_injected;
  check_sinks ~what:"demotion" base r;
  check_no_leaks ~what:"demotion" r

(* --- unrecoverable paths ---------------------------------------------------- *)

let expect_exhausted ~what f =
  match f () with
  | (_ : Weaver.Runtime.result) ->
      Alcotest.fail (what ^ ": expected Execution_error")
  | exception Weaver.Runtime.Execution_error (Fault.Recovery_exhausted _) -> ()
  | exception Weaver.Runtime.Execution_error f ->
      Alcotest.fail
        (Printf.sprintf "%s: expected Recovery_exhausted, got %s" what
           (Fault.render f))

(* every alloc fails: retries, then demotion, then Streamed retries —
   all exhausted *)
let test_alloc_exhaustion_resident () =
  let wl = pattern_wl (Tpch.Patterns.pattern_a ()) in
  expect_exhausted ~what:"resident alloc exhaustion" (fun () ->
      run_wl wl ~mode:Weaver.Runtime.Resident ~jobs:1
        ~faults:(Some "alloc@1x999"))

(* Streamed has no demotion left: alloc retries exhaust and the run fails *)
let test_alloc_exhaustion_streamed () =
  let wl = pattern_wl (Tpch.Patterns.pattern_b ()) in
  expect_exhausted ~what:"streamed alloc exhaustion" (fun () ->
      run_wl wl ~mode:Weaver.Runtime.Streamed ~jobs:1
        ~faults:(Some "alloc@1x999"))

let test_transfer_exhaustion () =
  let wl = pattern_wl (Tpch.Patterns.pattern_a ()) in
  expect_exhausted ~what:"transfer exhaustion" (fun () ->
      run_wl wl ~mode:Weaver.Runtime.Streamed ~jobs:1
        ~faults:(Some "transfer@1x999"))

(* --- cancellation under fault schedules -------------------------------------- *)

(* Cancellation racing the recovery machinery: batches of three queries
   where the middle one carries a seeded fault schedule AND a watchdog
   that cancels it after a seed-dependent number of polls. Whatever wins
   the race — completion, or cancellation landing mid-recovery — the
   middle query must leak nothing, and its siblings must stay
   bit-identical to their solo runs. Late cancellations (huge poll
   budget) must not fire at all. *)
let test_cancel_under_faults () =
  let a = pattern_wl (Tpch.Patterns.pattern_a ())
  and b = pattern_wl (Tpch.Patterns.pattern_c ())
  and c = pattern_wl (Tpch.Patterns.pattern_e ()) in
  let compile ?faults wl =
    let config = { wl.config with Weaver.Config.faults } in
    Weaver.Driver.compile ~config wl.plan
  in
  let prog_a = compile a and prog_c = compile c in
  List.iter
    (fun mode ->
      let base_a = Weaver.Driver.run prog_a a.bases ~mode in
      let base_c = Weaver.Driver.run prog_c c.bases ~mode in
      let base_b = Weaver.Driver.run (compile b) b.bases ~mode in
      for seed = 1 to 4 do
        let what = Printf.sprintf "cancel-under-faults seed=%d" seed in
        (* cancel after 1, 10, 100 polls; seed 4 sets a budget no run
           reaches, so the token must stay quiet *)
        let budget =
          if seed = 4 then max_int
          else int_of_float (10.0 ** float_of_int (seed - 1))
        in
        let tok = Gpu_sim.Cancel.create () in
        let polls = Atomic.make 0 in
        Gpu_sim.Cancel.add_watchdog tok (fun () ->
            if Atomic.fetch_and_add polls 1 >= budget then
              Some (Fault.Cancelled { reason = what })
            else None);
        let prog_b = compile ~faults:(Printf.sprintf "seed@%d" seed) b in
        let middle =
          Weaver.Runtime.run_result ~cancel:tok prog_b b.bases ~mode
        in
        (* siblings run on the same host right after — solo equality is
           the isolation guarantee *)
        let ra = Weaver.Driver.run prog_a a.bases ~mode in
        let rc = Weaver.Driver.run prog_c c.bases ~mode in
        check_sinks ~what:(what ^ " sibling a") base_a ra;
        check_no_leaks ~what:(what ^ " sibling a") ra;
        check_sinks ~what:(what ^ " sibling c") base_c rc;
        check_no_leaks ~what:(what ^ " sibling c") rc;
        match middle with
        | Ok r ->
            if seed = 4 then
              Alcotest.(check bool)
                (what ^ ": huge budget never cancels")
                true
                (Gpu_sim.Cancel.cancelled tok = None);
            check_sinks ~what base_b r;
            check_no_leaks ~what r
        | Error f ->
            (match f.Weaver.Runtime.fault with
            | Fault.Cancelled _ -> ()
            | other ->
                Alcotest.fail
                  (Printf.sprintf "%s: expected Cancelled, got %s" what
                     (Fault.render other)));
            Alcotest.(check (list (pair string int)))
              (what ^ ": cancelled run leaks nothing")
              []
              f.Weaver.Runtime.partial.Weaver.Metrics.leaks
      done)
    [ Weaver.Runtime.Resident; Weaver.Runtime.Streamed ]

(* a fault that exhausts recovery mid-batch must also clean up fully and
   leave siblings untouched *)
let test_exhaustion_under_batch () =
  let a = pattern_wl (Tpch.Patterns.pattern_a ())
  and b = pattern_wl (Tpch.Patterns.pattern_b ()) in
  let prog_a = Weaver.Driver.compile ~config:a.config a.plan in
  let base_a = Weaver.Driver.run prog_a a.bases ~mode:Weaver.Runtime.Resident in
  let prog_b =
    Weaver.Driver.compile
      ~config:{ b.config with Weaver.Config.faults = Some "alloc@1x999" }
      b.plan
  in
  (match
     Weaver.Runtime.run_result prog_b b.bases ~mode:Weaver.Runtime.Streamed
   with
  | Ok _ -> Alcotest.fail "exhaustion expected"
  | Error f ->
      (match f.Weaver.Runtime.fault with
      | Fault.Recovery_exhausted _ -> ()
      | other ->
          Alcotest.fail ("expected Recovery_exhausted, got " ^ Fault.render other));
      Alcotest.(check (list (pair string int)))
        "exhausted run leaks nothing" []
        f.Weaver.Runtime.partial.Weaver.Metrics.leaks;
      Alcotest.(check bool) "partial counters saw the retries" true
        (f.Weaver.Runtime.partial.Weaver.Metrics.retries > 0));
  let ra = Weaver.Driver.run prog_a a.bases ~mode:Weaver.Runtime.Resident in
  check_sinks ~what:"sibling after exhaustion" base_a ra;
  check_no_leaks ~what:"sibling after exhaustion" ra

(* --- deadline vs injected fault: the first-cancel-wins rule ------------------ *)

(* A deadline and a persistent injected fault racing to end the same run
   map to different CLI exit codes (3 vs 1), so the winner must be
   deterministic. The rule (DESIGN.md §13): faults are ordered by the
   simulated execution, and the first terminal fault to land wins — a
   non-positive deadline fires at the run's first checkpoint, before any
   injected site is reached; a deadline that still has budget when
   recovery exhausts loses to the exhaustion. Pinned in both directions. *)
let test_deadline_fault_race () =
  let wl = pattern_wl (Tpch.Patterns.pattern_b ()) in
  let run ~deadline =
    let config =
      {
        wl.config with
        Weaver.Config.faults = Some "transfer@1x999";
        deadline_cycles = Some deadline;
      }
    in
    let program = Weaver.Driver.compile ~config wl.plan in
    Weaver.Runtime.run_result program wl.bases ~mode:Weaver.Runtime.Streamed
  in
  (match run ~deadline:0.0 with
  | Ok _ -> Alcotest.fail "race: expected a failure"
  | Error f -> (
      match f.Weaver.Runtime.fault with
      | Fault.Deadline_exceeded _ ->
          Alcotest.(check (list (pair string int)))
            "deadline winner leaks nothing" []
            f.Weaver.Runtime.partial.Weaver.Metrics.leaks
      | other ->
          Alcotest.fail
            ("zero deadline must win the race, got " ^ Fault.render other)));
  match run ~deadline:1e18 with
  | Ok _ -> Alcotest.fail "race: expected exhaustion"
  | Error f -> (
      match f.Weaver.Runtime.fault with
      | Fault.Recovery_exhausted _ ->
          Alcotest.(check (list (pair string int)))
            "exhaustion winner leaks nothing" []
            f.Weaver.Runtime.partial.Weaver.Metrics.leaks
      | other ->
          Alcotest.fail
            ("slack deadline must lose the race, got " ^ Fault.render other))

(* a client cancellation that lands while recovery is still grinding must
   surface as Cancelled — never as the recovery fault it interrupted *)
let test_cancel_beats_recovery () =
  let wl = pattern_wl (Tpch.Patterns.pattern_a ()) in
  let tok = Cancel.create () in
  let polls = Atomic.make 0 in
  Cancel.add_watchdog tok (fun () ->
      if Atomic.fetch_and_add polls 1 >= 3 then
        Some (Fault.Cancelled { reason = "client abort (test)" })
      else None);
  let config =
    { wl.config with Weaver.Config.faults = Some "launch@1x999" }
  in
  let program = Weaver.Driver.compile ~config wl.plan in
  match
    Weaver.Runtime.run_result ~cancel:tok program wl.bases
      ~mode:Weaver.Runtime.Resident
  with
  | Ok _ -> Alcotest.fail "cancellation expected"
  | Error f -> (
      match f.Weaver.Runtime.fault with
      | Fault.Cancelled _ ->
          Alcotest.(check (list (pair string int)))
            "cancelled mid-recovery leaks nothing" []
            f.Weaver.Runtime.partial.Weaver.Metrics.leaks
      | other ->
          Alcotest.fail ("expected Cancelled, got " ^ Fault.render other))

(* --- storm soak: probabilistic schedules under a token budget ---------------- *)

(* Sweeps a matrix of workloads x modes x storm rates x rate seeds, every
   run under a recovery token budget, and replays each run: outcomes must
   be bit-deterministic, survivors must match the fault-free baseline
   exactly, recovery must never spend more tokens than the budget allows,
   and no path may leak a device buffer. *)
let test_storm_soak () =
  let budget = 8 in
  let survivors = ref 0 and casualties = ref 0 and injected = ref 0 in
  List.iter
    (fun wl ->
      List.iter
        (fun mode ->
          let baseline = run_wl wl ~mode ~jobs:1 ~faults:None in
          List.iter
            (fun rate ->
              List.iter
                (fun rseed ->
                  let what =
                    Printf.sprintf "storm %s %s rate=%g rseed=%d" wl.wname
                      (match mode with
                      | Weaver.Runtime.Resident -> "resident"
                      | Weaver.Runtime.Streamed -> "streamed")
                      rate rseed
                  in
                  let faults =
                    Printf.sprintf
                      "rseed@%d,alloc%%%g,launch%%%g,transfer%%%g" rseed rate
                      rate rate
                  in
                  let config =
                    {
                      wl.config with
                      Weaver.Config.faults = Some faults;
                      retry_budget = Some budget;
                    }
                  in
                  let program = Weaver.Driver.compile ~config wl.plan in
                  let once () =
                    Weaver.Runtime.run_result program wl.bases ~mode
                  in
                  match (once (), once ()) with
                  | Ok a, Ok b ->
                      incr survivors;
                      injected :=
                        !injected
                        + a.Weaver.Runtime.metrics
                            .Weaver.Metrics.faults_injected;
                      check_sinks ~what baseline a;
                      check_sinks ~what:(what ^ " replay") a b;
                      check_no_leaks ~what a;
                      Alcotest.(check bool)
                        (what ^ ": tokens within budget")
                        true
                        (tokens_spent a.Weaver.Runtime.metrics <= budget)
                  | Error a, Error b ->
                      incr casualties;
                      injected :=
                        !injected
                        + a.Weaver.Runtime.partial
                            .Weaver.Metrics.faults_injected;
                      Alcotest.(check bool)
                        (what ^ ": same fault on replay")
                        true
                        (Fault.equal a.Weaver.Runtime.fault
                           b.Weaver.Runtime.fault);
                      Alcotest.(check (list (pair string int)))
                        (what ^ ": failure leaks nothing")
                        [] a.Weaver.Runtime.partial.Weaver.Metrics.leaks;
                      Alcotest.(check bool)
                        (what ^ ": tokens within budget")
                        true
                        (tokens_spent a.Weaver.Runtime.partial <= budget)
                  | _ ->
                      Alcotest.fail
                        (what ^ ": survival itself was nondeterministic"))
                [ 1; 2 ])
            [ 0.02; 0.05 ])
        [ Weaver.Runtime.Resident; Weaver.Runtime.Streamed ])
    [
      pattern_wl (Tpch.Patterns.pattern_a ());
      pattern_wl (Tpch.Patterns.pattern_b ());
      pattern_wl (Tpch.Patterns.pattern_e ());
    ];
  Alcotest.(check bool) "storms injected faults" true (!injected > 0);
  Alcotest.(check bool) "some storm was survivable" true (!survivors > 0);
  (* both branches must be exercised for the soak to mean anything; the
     rates are chosen so the 24-run matrix always produces casualties *)
  ignore !casualties

(* --- injector unit tests ---------------------------------------------------- *)

let test_spec_parser () =
  (* malformed specs are rejected loudly *)
  let bad spec =
    match Fault_inject.of_spec spec with
    | (_ : Fault_inject.t) ->
        Alcotest.fail ("should not parse: " ^ spec)
    | exception Invalid_argument _ -> ()
  in
  bad "alloc";
  bad "alloc@";
  bad "alloc@0";
  bad "frobnicate@3";
  bad "launch@2:bogus";
  bad "alloc@2x0";
  (* well-formed specs parse; kinds apply to launches *)
  List.iter
    (fun s -> ignore (Fault_inject.of_spec s))
    [
      "alloc@1";
      "launch@3x2:groups";
      "launch@2:input";
      "launch@2:staging";
      "transfer@4,alloc@2x3";
      "seed@9";
      "seed@9x5";
      " alloc@1 , transfer@2 ";
    ];
  (* seeded schedules are deterministic and well-formed *)
  let e1 = Fault_inject.of_seed 42 and e2 = Fault_inject.of_seed 42 in
  Alcotest.(check int) "same length" (List.length e1) (List.length e2);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same event" true (Fault_inject.equal_event a b))
    e1 e2;
  List.iter
    (fun (e : Fault_inject.event) ->
      Alcotest.(check bool) "at >= 1" true (e.Fault_inject.at >= 1);
      Alcotest.(check bool) "count >= 1" true (e.Fault_inject.count >= 1))
    e1;
  Alcotest.(check int) "events count" 5
    (List.length (Fault_inject.of_seed ~events:5 42))

(* --- storm grammar: windows, rates, round-trip ------------------------------- *)

let test_storm_grammar () =
  let bad spec =
    match Fault_inject.of_spec spec with
    | (_ : Fault_inject.t) -> Alcotest.fail ("should not parse: " ^ spec)
    | exception Invalid_argument _ -> ()
  in
  (* malformed rates and windows are one-line usage errors, not runtime
     surprises *)
  bad "alloc%";
  bad "alloc%0";
  bad "alloc%1.5";
  bad "alloc%-0.25";
  bad "alloc%zzz";
  bad "alloc@5..3";
  bad "alloc%0.5@5..3";
  bad "rseed@";
  bad "rseed@x";
  bad "seed%0.5";
  (* window sugar: site@N..M is site@Nx(M-N+1) *)
  (match Fault_inject.events (Fault_inject.of_spec "alloc@3..5") with
  | [ e ] ->
      Alcotest.(check int) "window at" 3 e.Fault_inject.at;
      Alcotest.(check int) "window count" 3 e.Fault_inject.count
  | es -> Alcotest.fail (Printf.sprintf "one event expected, got %d" (List.length es)));
  (* rate rules: probability, optional window, kind, running rate seed *)
  (match
     Fault_inject.rules
       (Fault_inject.of_spec "launch%0.25@2..9:groups,rseed@7,alloc%0.5@10..")
   with
  | [ l; a ] ->
      Alcotest.(check (float 1e-9)) "launch rate" 0.25 l.Fault_inject.rate;
      Alcotest.(check int) "launch first" 2 l.Fault_inject.first;
      Alcotest.(check (option int)) "launch last" (Some 9) l.Fault_inject.last;
      Alcotest.(check bool) "launch kind" true
        (l.Fault_inject.rkind = Fault_inject.Trap Fault.Cap_groups);
      Alcotest.(check int) "default rate seed" 1 l.Fault_inject.rseed;
      Alcotest.(check (float 1e-9)) "alloc rate" 0.5 a.Fault_inject.rate;
      Alcotest.(check int) "rseed@ applies to later rules" 7
        a.Fault_inject.rseed;
      Alcotest.(check int) "open window first" 10 a.Fault_inject.first;
      Alcotest.(check (option int)) "open window last" None a.Fault_inject.last
  | rs -> Alcotest.fail (Printf.sprintf "two rules expected, got %d" (List.length rs)));
  (* canonical printer round-trips every grammar form *)
  List.iter
    (fun spec ->
      let t = Fault_inject.of_spec spec in
      let t' = Fault_inject.of_spec (Fault_inject.to_spec t) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip events of %S (via %S)" spec
           (Fault_inject.to_spec t))
        true
        (List.for_all2 Fault_inject.equal_event (Fault_inject.events t)
           (Fault_inject.events t'));
      Alcotest.(check bool)
        (Printf.sprintf "round-trip rules of %S" spec)
        true
        (List.for_all2 Fault_inject.equal_rule (Fault_inject.rules t)
           (Fault_inject.rules t')))
    [
      "alloc@1";
      "launch@3x2:groups";
      "alloc@3..5";
      "transfer@2..2";
      "alloc%0.05";
      "launch%0.125:input";
      "rseed@9,alloc%0.5@4..8,transfer%0.25@3..";
      "alloc@2,rseed@3,launch%1,rseed@4,launch%0.75";
      "seed@7x2";
      "launch@2:flip";
      "alloc@3x2:flip";
      "transfer%0.05:flip";
      "rseed@11,launch%0.25@2..9:flip,alloc%0.5:flip";
      "launch@1:flip,launch%0.125@4..:groups,transfer@2:flip";
    ]

(* a full-rate rule with a window is a deterministic oracle: exactly the
   windowed calls fail, everything else passes *)
let test_storm_window_semantics () =
  let t = Fault_inject.of_spec "alloc%1@2..3" in
  let failing = ref [] in
  for i = 1 to 6 do
    match Fault_inject.on_alloc t ~label:"x" ~bytes:8 ~live:0 ~capacity:64 with
    | () -> ()
    | exception Fault.Error (Fault.Alloc_failure { injected = true; _ }) ->
        failing := i :: !failing
  done;
  Alcotest.(check (list int)) "window calls fail" [ 2; 3 ] (List.rev !failing)

(* the same rate spec replays the same faults, a different rate seed
   decorrelates them *)
let test_storm_determinism () =
  let pattern spec =
    let t = Fault_inject.of_spec spec in
    List.init 200 (fun i ->
        ignore i;
        match
          Fault_inject.on_alloc t ~label:"x" ~bytes:8 ~live:0 ~capacity:64
        with
        | () -> false
        | exception Fault.Error _ -> true)
  in
  let p1 = pattern "alloc%0.2" in
  Alcotest.(check (list bool)) "same spec, same storm" p1 (pattern "alloc%0.2");
  Alcotest.(check bool) "storm actually fired" true (List.mem true p1);
  Alcotest.(check bool) "storm is not total" true (List.mem false p1);
  Alcotest.(check bool) "different rate seed decorrelates" true
    (p1 <> pattern "rseed@2,alloc%0.2")

let test_injector_counters () =
  let t =
    Fault_inject.create
      [
        { Fault_inject.site = Fault_inject.Alloc; at = 2; count = 1;
          kind = Fault_inject.Trap Fault.Cap_staging };
        { Fault_inject.site = Fault_inject.Launch; at = 1; count = 2;
          kind = Fault_inject.Trap Fault.Cap_groups };
      ]
  in
  let alloc () =
    Fault_inject.on_alloc t ~label:"x" ~bytes:64 ~live:0 ~capacity:1024
  in
  let launch () = Fault_inject.on_launch t ~kernel:"k" in
  (* alloc 1 passes, alloc 2 is the injected OOM, alloc 3 passes *)
  alloc ();
  (match alloc () with
  | () -> Alcotest.fail "alloc 2 should fail"
  | exception
      Fault.Error
        (Fault.Alloc_failure { injected = true; requested_bytes = 64; _ }) ->
      ());
  alloc ();
  Alcotest.(check int) "alloc counter" 3 (Fault_inject.allocs t);
  (* launches 1 and 2 trap (count = 2) with the configured kind *)
  (match launch () with
  | () -> Alcotest.fail "launch 1 should trap"
  | exception
      Fault.Error
        (Fault.Capacity_trap { which = Fault.Cap_groups; kernel = "k"; _ }) ->
      ());
  (match launch () with
  | () -> Alcotest.fail "launch 2 should trap"
  | exception Fault.Error (Fault.Capacity_trap _) -> ());
  launch ();
  Alcotest.(check int) "launch counter" 3 (Fault_inject.launches t);
  Alcotest.(check int) "transfers untouched" 0 (Fault_inject.transfers t);
  Alcotest.(check int) "injected total" 3 (Fault_inject.injected t);
  (* the disabled default injects nothing and counts nothing *)
  let n = Fault_inject.none in
  Fault_inject.on_alloc n ~label:"x" ~bytes:1 ~live:0 ~capacity:1;
  Fault_inject.on_launch n ~kernel:"k";
  Fault_inject.on_transfer n ~direction:Fault.H2d ~bytes:1;
  Alcotest.(check int) "none injects nothing" 0 (Fault_inject.injected n)

(* --- memory introspection ---------------------------------------------------- *)

let test_live_buffers () =
  let mem = Memory.create Device.fermi_c2050 in
  Alcotest.(check (list (pair int string))) "fresh manager" []
    (Memory.live_buffers mem);
  let a = Memory.alloc ~label:"a" mem ~words:8 ~bytes:32 in
  let b = Memory.alloc ~label:"b" mem ~words:8 ~bytes:32 in
  Alcotest.(check (list (pair int string)))
    "two live" [ (a, "a"); (b, "b") ]
    (List.sort compare (Memory.live_buffers mem));
  Memory.free mem a;
  Alcotest.(check (list (pair int string)))
    "one live" [ (b, "b") ]
    (Memory.live_buffers mem);
  Memory.free mem b;
  Alcotest.(check (list (pair int string))) "all freed" []
    (Memory.live_buffers mem)

(* --- rendered faults --------------------------------------------------------- *)

let test_render () =
  let contains ~needle s = Astring_contains.contains s needle in
  let cap =
    Fault.capacity_trap ~kernel:"k1" ~op:3 ~segment:1 ~needed:300
      ~which:Fault.Cap_staging ~have:256 ()
  in
  let r = Fault.render cap in
  Alcotest.(check bool) "mentions kernel" true (contains ~needle:"k1" r);
  Alcotest.(check bool) "mentions have" true (contains ~needle:"256" r);
  Alcotest.(check bool) "mentions needed" true (contains ~needle:"300" r);
  let ex =
    Fault.render
      (Fault.Recovery_exhausted
         {
           attempts = 2;
           last =
             Fault.Alloc_failure
               {
                 label = "t";
                 requested_bytes = 128;
                 live_bytes = 0;
                 capacity_bytes = 1024;
                 injected = true;
               };
         })
  in
  Alcotest.(check bool) "exhausted mentions attempts" true
    (contains ~needle:"2 attempts" ex);
  Alcotest.(check bool) "exhausted carries last fault" true
    (contains ~needle:"injected" ex)

(* --- corruption storms and checkpointed recovery ----------------------------- *)

(* Flip storms are the silent-corruption chaos differential: a seeded bit
   flip lands on a live certified buffer mid-run; with integrity
   verification on and the checkpoint ledger enabled the run must detect
   every landed flip, recover (rollback or restart), and still produce
   sinks bit-identical to the fault-free run — leaking nothing. *)
let run_flip wl ~mode ~jobs ~faults =
  let config = Weaver.Config.with_jobs wl.config jobs in
  let config =
    { config with Weaver.Config.faults; Weaver.Config.checkpoint = true }
  in
  let program = Weaver.Driver.compile ~config wl.plan in
  Weaver.Driver.run program wl.bases ~mode

let test_flip_recovery wl () =
  let baseline =
    let tbl = Hashtbl.create 2 in
    fun mode ->
      match Hashtbl.find_opt tbl mode with
      | Some r -> r
      | None ->
          let r = run_flip wl ~mode ~jobs:1 ~faults:None in
          check_no_leaks ~what:(wl.wname ^ " flip-free") r;
          Alcotest.(check int)
            (wl.wname ^ ": fault-free run detects nothing")
            0 r.Weaver.Runtime.metrics.Weaver.Metrics.corruptions;
          Hashtbl.replace tbl mode r;
          r
  in
  let landed = ref 0 in
  List.iter
    (fun (mode, jobs) ->
      let what =
        Printf.sprintf "%s flip %s jobs=%d" wl.wname
          (match mode with
          | Weaver.Runtime.Resident -> "resident"
          | Weaver.Runtime.Streamed -> "streamed")
          jobs
      in
      let r = run_flip wl ~mode ~jobs ~faults:(Some "launch@2:flip") in
      check_sinks ~what (baseline mode) r;
      check_no_leaks ~what r;
      let m = r.Weaver.Runtime.metrics in
      (* every flip that landed was caught by a certificate mismatch *)
      Alcotest.(check int)
        (what ^ ": corruptions = flips landed")
        m.Weaver.Metrics.faults_injected m.Weaver.Metrics.corruptions;
      landed := !landed + m.Weaver.Metrics.faults_injected)
    [
      (Weaver.Runtime.Resident, 1);
      (Weaver.Runtime.Streamed, 1);
      (Weaver.Runtime.Resident, par_jobs);
      (Weaver.Runtime.Streamed, par_jobs);
    ];
  (* the storm must actually corrupt something somewhere, or this test
     would pass vacuously *)
  Alcotest.(check bool)
    (wl.wname ^ ": some flip landed")
    true (!landed > 0)

(* the control: the same flip with verification off is silent — it lands
   (certification is unconditional) but nothing detects it. The run either
   completes poisoned or crashes on garbage; either way, zero detections
   and zero leaks. *)
let test_integrity_off_control () =
  let wl = pattern_wl (Tpch.Patterns.pattern_b ()) in
  let run ~integrity =
    (* checkpointing rides along on the verify-on leg: rollback is the
       only recovery rung for detected corruption. It is irrelevant on the
       verify-off leg (nothing ever detects, so nothing ever rolls back). *)
    let config =
      {
        wl.config with
        Weaver.Config.integrity;
        Weaver.Config.checkpoint = integrity;
        Weaver.Config.faults = Some "launch@2:flip";
      }
    in
    let program = Weaver.Driver.compile ~config wl.plan in
    Weaver.Runtime.run_result program wl.bases ~mode:Weaver.Runtime.Resident
  in
  (match run ~integrity:true with
  | Ok r ->
      let m = r.Weaver.Runtime.metrics in
      Alcotest.(check bool)
        "verify-on: flip landed" true
        (m.Weaver.Metrics.faults_injected > 0);
      Alcotest.(check int)
        "verify-on: every flip detected" m.Weaver.Metrics.faults_injected
        m.Weaver.Metrics.corruptions
  | Error f ->
      Alcotest.fail
        ("verify-on run should recover: "
        ^ Fault.render f.Weaver.Runtime.fault));
  match run ~integrity:false with
  | Ok r ->
      let m = r.Weaver.Runtime.metrics in
      Alcotest.(check bool)
        "verify-off: flip still landed" true
        (m.Weaver.Metrics.faults_injected > 0);
      Alcotest.(check int)
        "verify-off: nothing detected" 0 m.Weaver.Metrics.corruptions;
      Alcotest.(check (list (pair string int)))
        "verify-off: no leaks" [] m.Weaver.Metrics.leaks
  | Error f ->
      (* poisoned intermediate data may legitimately crash the interpreter;
         what it must never do is get DETECTED with verification off *)
      let m = f.Weaver.Runtime.partial in
      Alcotest.(check int)
        "verify-off crash: nothing detected" 0 m.Weaver.Metrics.corruptions;
      Alcotest.(check (list (pair string int)))
        "verify-off crash: no leaks" [] m.Weaver.Metrics.leaks

(* a flip landing after checkpoints exist: recovery must resume from the
   ledger (checkpoint hits, replay savings), not restart from scratch *)
let test_rollback_resume () =
  let wl = query_wl Tpch.Queries.q1 ~lineitems:1_200 in
  let run ~faults =
    let config =
      { wl.config with Weaver.Config.faults; Weaver.Config.checkpoint = true }
    in
    let program = Weaver.Driver.compile ~config wl.plan in
    Weaver.Driver.run program wl.bases ~mode:Weaver.Runtime.Streamed
  in
  let clean = run ~faults:None in
  let r = run ~faults:(Some "launch@6:flip") in
  check_sinks ~what:"rollback resume" clean r;
  check_no_leaks ~what:"rollback resume" r;
  let m = r.Weaver.Runtime.metrics in
  Alcotest.(check bool) "flip landed" true (m.Weaver.Metrics.faults_injected > 0);
  Alcotest.(check int)
    "flip detected" m.Weaver.Metrics.faults_injected
    m.Weaver.Metrics.corruptions;
  Alcotest.(check int) "exactly one rollback" 1 m.Weaver.Metrics.rollbacks;
  Alcotest.(check bool)
    "checkpoints were taken" true
    (m.Weaver.Metrics.checkpoints > 0);
  Alcotest.(check bool)
    "the ledger restored finished work" true
    (m.Weaver.Metrics.checkpoint_hits > 0);
  Alcotest.(check bool)
    "replay savings accounted" true
    (m.Weaver.Metrics.saved_replay_cycles > 0.0);
  Alcotest.(check bool)
    "replayed cycles accounted" true
    (m.Weaver.Metrics.replayed_cycles > 0.0)

(* a starved ledger budget evicts oldest snapshots but never breaks
   correctness: recovery still produces bit-identical sinks *)
let test_checkpoint_eviction () =
  let wl = query_wl Tpch.Queries.q1 ~lineitems:1_200 in
  let run ~faults =
    let config =
      {
        wl.config with
        Weaver.Config.faults;
        Weaver.Config.checkpoint = true;
        Weaver.Config.checkpoint_budget_frac = 2e-5;
      }
    in
    let program = Weaver.Driver.compile ~config wl.plan in
    Weaver.Driver.run program wl.bases ~mode:Weaver.Runtime.Streamed
  in
  let clean = run ~faults:None in
  Alcotest.(check bool)
    "starved budget evicts snapshots" true
    (clean.Weaver.Runtime.metrics.Weaver.Metrics.checkpoints_evicted > 0);
  let r = run ~faults:(Some "launch@6:flip") in
  check_sinks ~what:"eviction recovery" clean r;
  check_no_leaks ~what:"eviction recovery" r;
  let m = r.Weaver.Runtime.metrics in
  Alcotest.(check int)
    "flip detected despite evictions" m.Weaver.Metrics.faults_injected
    m.Weaver.Metrics.corruptions;
  Alcotest.(check bool)
    "recovery still happened" true
    (m.Weaver.Metrics.rollbacks > 0)

(* persistent flips with no checkpoint ledger: the rollback/restart ladder
   runs out and surfaces the typed corruption fault, leak-free *)
let test_flip_exhaustion () =
  let wl = pattern_wl (Tpch.Patterns.pattern_b ()) in
  let config =
    { wl.config with Weaver.Config.faults = Some "launch%1:flip" }
  in
  let program = Weaver.Driver.compile ~config wl.plan in
  match
    Weaver.Runtime.run_result program wl.bases ~mode:Weaver.Runtime.Resident
  with
  | Ok _ -> Alcotest.fail "a total flip storm should not complete"
  | Error f ->
      (match f.Weaver.Runtime.fault with
      | Fault.Recovery_exhausted { last = Fault.Data_corrupted _; _ } -> ()
      | other ->
          Alcotest.fail
            ("expected Recovery_exhausted{Data_corrupted}: "
            ^ Fault.render other));
      Alcotest.(check (list (pair string int)))
        "exhausted flip storm leaks nothing" []
        f.Weaver.Runtime.partial.Weaver.Metrics.leaks

(* --- flip-storm sweep: detection split and replay savings ------------------- *)

(* Q21 under seeded alloc+launch+transfer flip storms at rates 0, 2% and
   5%, six decorrelated runs per cell, in three postures: certificates
   recorded but never verified (the control), verify with whole-query
   restart, and verify with the checkpoint ledger. Verification must
   catch every landed flip and the control none; when nothing flips the
   defense must cost no simulated cycles; and at 5% the ledger must
   spare at least 30% of the cycles a restart would have replayed. *)
let test_flip_storm_sweep () =
  let q = Tpch.Queries.q21 in
  let bases =
    q.Tpch.Queries.bind (Tpch.Datagen.generate ~seed:13 ~lineitems:2_000)
  in
  let cell ~rate (posture, integrity, checkpoint) =
    List.init 6 (fun i ->
        let faults =
          if rate = 0.0 then None
          else
            Some
              (Printf.sprintf
                 "rseed@%d,alloc%%%g:flip,launch%%%g:flip,transfer%%%g:flip"
                 (201 + i) rate rate rate)
        in
        let config =
          {
            Weaver.Config.default with
            Weaver.Config.faults;
            integrity;
            checkpoint;
          }
        in
        let program = Weaver.Driver.compile ~config q.Tpch.Queries.plan in
        let m =
          match
            Weaver.Runtime.run_result program bases
              ~mode:Weaver.Runtime.Streamed
          with
          | Ok r -> r.Weaver.Runtime.metrics
          | Error f -> f.Weaver.Runtime.partial
        in
        let what = Printf.sprintf "%s rate=%g run %d" posture rate i in
        Alcotest.(check (list (pair string int)))
          (what ^ ": no leaks") [] m.Weaver.Metrics.leaks;
        (* the storm is flip-only, so every injected fault is a flip *)
        Alcotest.(check int)
          (what ^ ": flips detected")
          (if integrity then m.Weaver.Metrics.faults_injected else 0)
          m.Weaver.Metrics.corruptions;
        m)
  in
  let postures =
    [ ("no-integrity", false, false); ("verify", true, false);
      ("verify-ckpt", true, true) ]
  in
  (match
     List.map
       (fun p -> List.map Weaver.Metrics.total_cycles (cell ~rate:0.0 p))
       postures
   with
  | control :: verified ->
      List.iter
        (Alcotest.(check (list (float 0.0)))
           "fault-free cycles identical across postures" control)
        verified
  | [] -> ());
  List.iter
    (fun rate ->
      List.iter
        (fun ((posture, _, _) as p) ->
          let ms = cell ~rate p in
          let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
          Alcotest.(check bool)
            (Printf.sprintf "%s rate=%g: some flip landed" posture rate)
            true
            (sum (fun m -> float m.Weaver.Metrics.faults_injected) > 0.0);
          if posture = "verify-ckpt" && rate = 0.05 then begin
            let saved = sum (fun m -> m.Weaver.Metrics.saved_replay_cycles)
            and replayed = sum (fun m -> m.Weaver.Metrics.replayed_cycles) in
            Alcotest.(check bool)
              (Printf.sprintf
                 "ledger spares >= 30%% of the replay (saved %.3e, \
                  replayed %.3e)"
                 saved replayed)
              true
              (saved > 0.0 && saved >= 0.3 *. (saved +. replayed))
          end)
        postures)
    [ 0.02; 0.05 ]

let suite =
  let chaos wl =
    (Printf.sprintf "chaos sweep %s" wl.wname, `Slow, test_chaos_sweep wl)
  in
  let flips wl =
    (Printf.sprintf "flip storm %s" wl.wname, `Slow, test_flip_recovery wl)
  in
  List.map chaos (workloads ())
  @ List.map flips (workloads ())
  @ [
      ("transfer retry", `Quick, test_transfer_retry);
      ("fission fallback", `Quick, test_fission_fallback);
      ("resident->streamed demotion", `Quick, test_demotion);
      ("alloc exhaustion (resident)", `Quick, test_alloc_exhaustion_resident);
      ("alloc exhaustion (streamed)", `Quick, test_alloc_exhaustion_streamed);
      ("transfer exhaustion", `Quick, test_transfer_exhaustion);
      ("cancellation under fault schedules", `Slow, test_cancel_under_faults);
      ("exhaustion mid-batch cleans up", `Quick, test_exhaustion_under_batch);
      ("fault spec parser", `Quick, test_spec_parser);
      ("storm grammar (rates, windows, round-trip)", `Quick, test_storm_grammar);
      ("storm window semantics", `Quick, test_storm_window_semantics);
      ("storm determinism", `Quick, test_storm_determinism);
      ("deadline vs fault race is deterministic", `Quick,
       test_deadline_fault_race);
      ("cancellation beats recovery", `Quick, test_cancel_beats_recovery);
      ("storm soak under token budget", `Slow, test_storm_soak);
      ("injector counters", `Quick, test_injector_counters);
      ("live buffer introspection", `Quick, test_live_buffers);
      ("fault rendering", `Quick, test_render);
      ("integrity-off silent-corruption control", `Quick,
       test_integrity_off_control);
      ("rollback resumes from the checkpoint ledger", `Quick,
       test_rollback_resume);
      ("checkpoint eviction under a starved budget", `Quick,
       test_checkpoint_eviction);
      ("persistent flips exhaust recovery leak-free", `Quick,
       test_flip_exhaustion);
      ("flip-storm sweep: detection split and replay savings", `Slow,
       test_flip_storm_sweep);
    ]
