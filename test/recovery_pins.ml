(* Recovery pins: one line per (workload, mode, checkpoint, schedule) cell
   with the run's outcome, a sink digest and every recovery counter. The
   output is diffed against recovery_pins.expected, so a runtime change
   that frees a buffer later, moves a cycle or shifts a counter shows up
   as the exact cells that moved (`dune promote` accepts them — a
   behaviour change, to be justified per cell). The cells are the fault
   suites' seven workloads x {Resident, Streamed} x checkpoint {off, on}
   x the schedules below, then the same grid for a SORT -> UNIQUE workload,
   plus a few that reach each recovery-gate veto. *)

open Relation_lib
open Gpu_sim
open Fault_workloads

(* SORT -> UNIQUE over 1,200 rows with 300 distinct keys: none of the
   shared workloads holds a UNIQUE, so this one pins a lone operator's
   slice growth and its host fallback. Appended last, so the gate cells'
   indices below still name the shared workloads. *)
let sort_unique =
  let open Qplan in
  let s = Schema.make [ ("k", Dtype.I32); ("v", Dtype.I32) ] in
  let pb = Plan.builder () in
  let srt = Plan.add pb (Op.Sort { key_arity = 1 }) [ Plan.base pb s ] in
  ignore (Plan.add pb (Op.Unique { key_arity = 1 }) [ srt ]);
  {
    wname = "sort-unique";
    plan = Plan.build pb;
    bases =
      [| Relation.create s (List.init 1_200 (fun i -> [| i * 7919 mod 300; i |])) |];
    config = Weaver.Config.default;
  }

let workloads = workloads () @ [ sort_unique ]

let schedules =
  [
    "transfer@2x2";
    "transfer@1x4";
    "launch@1x11";
    "launch@3x11:input";
    "launch@1x11:groups";
    "alloc@1x4";
    "launch@2:flip";
    "rseed@4,alloc%0.05,launch%0.05:flip,transfer%0.05";
    "seed@3";
  ]

let fault_name f =
  let s = Fault.show f in
  match String.index_opt s ' ' with Some i -> String.sub s 0 i | None -> s

let outcome = function
  | Ok _ -> "ok"
  | Error (f : Fault.t) -> (
      match f with
      | Fault.Recovery_exhausted { attempts; last } ->
          Printf.sprintf "Recovery_exhausted(attempts=%d,last=%s)" attempts
            (fault_name last)
      | Fault.Budget_vetoed { action; reason } ->
          Printf.sprintf "Budget_vetoed(%s,%s)" action
            (match reason with
            | Fault.Tokens_exhausted _ -> "Tokens_exhausted"
            | Fault.Deadline_too_close _ -> "Deadline_too_close")
      | f -> fault_name f)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let sink_digest sinks =
  digest (List.map (fun (id, r) -> (id, Relation.data r)) sinks)

(* every trace instant (recovery actions, injected faults, checkpoints),
   in order, with its simulated timestamp and arguments *)
let instants_digest trace =
  digest
    (List.filter_map
       (fun (e : Weaver_obs.Trace.event) ->
         if e.kind = Weaver_obs.Trace.Instant then
           Some (Weaver_obs.Trace.lane_name e.lane, e.name, e.cycles, e.args)
         else None)
       (Weaver_obs.Trace.events trace))

(* the rungs some cell must reach, so the pins are not vacuous *)
let rungs =
  [
    "retries";
    "fissions";
    "fault-free fissions";
    "demotions";
    "rollbacks";
    "Tokens_exhausted";
    "Deadline_too_close";
  ]

let hits = Hashtbl.create 8
let hit rung n = if n > 0 then Hashtbl.replace hits rung ()

let cell ~label wl ~mode ~config =
  let program = Weaver.Driver.compile ~config wl.plan in
  let trace = Weaver_obs.Trace.create () in
  let res = Weaver.Runtime.run_result ~trace program wl.bases ~mode in
  let out, sinks, (m : Weaver.Metrics.t) =
    match res with
    | Ok r ->
        (Ok (), sink_digest r.Weaver.Runtime.sinks, r.Weaver.Runtime.metrics)
    | Error e -> (Error e.Weaver.Runtime.fault, "-", e.Weaver.Runtime.partial)
  in
  let open Weaver.Metrics in
  hit "retries" m.retries;
  hit "fissions" m.fissions;
  if m.faults_injected = 0 then hit "fault-free fissions" m.fissions;
  hit "demotions" m.demotions;
  hit "rollbacks" m.rollbacks;
  (match out with
  | Error (Fault.Budget_vetoed { reason = Fault.Tokens_exhausted _; _ }) ->
      hit "Tokens_exhausted" 1
  | Error (Fault.Budget_vetoed { reason = Fault.Deadline_too_close _; _ }) ->
      hit "Deadline_too_close" 1
  | _ -> ());
  Printf.printf
    "%s %s | %s | instants=%s cycles=%.17g peak=%d retries=%d fissions=%d \
     demotions=%d rollbacks=%d injected=%d replayed=%.17g saved=%.17g \
     ckpts=%d hits=%d evicted=%d corruptions=%d leaks=%d\n"
    label (outcome out) sinks (instants_digest trace) (total_cycles m)
    m.peak_global_bytes m.retries m.fissions m.demotions m.rollbacks
    m.faults_injected m.replayed_cycles m.saved_replay_cycles m.checkpoints
    m.checkpoint_hits m.checkpoints_evicted m.corruptions (List.length m.leaks)

let mode_name = function
  | Weaver.Runtime.Resident -> "resident"
  | Weaver.Runtime.Streamed -> "streamed"

let () =
  List.iter
    (fun wl ->
      List.iter
        (fun mode ->
          List.iter
            (fun checkpoint ->
              List.iter
                (fun spec ->
                  cell wl ~mode
                    ~label:
                      (Printf.sprintf "%s %s ckpt=%b %s" wl.wname
                         (mode_name mode) checkpoint spec)
                    ~config:
                      {
                        wl.config with
                        Weaver.Config.faults = Some spec;
                        checkpoint;
                      })
                schedules)
            [ false; true ])
        [ Weaver.Runtime.Resident; Weaver.Runtime.Streamed ])
    workloads;
  (* Q21 fault-free: fission with nothing injected; then the recovery
     gate: a two-token purse runs dry mid-retry, and under a tight cycle
     deadline a rollback whose replay estimate exceeds what remains is
     vetoed (or, with more room, passes) *)
  List.iter
    (fun (wi, mode, retry_budget, deadline, spec) ->
      let wl = List.nth workloads wi in
      let opt f = function Some v -> f v | None -> "-" in
      cell wl ~mode
        ~label:
          (Printf.sprintf "%s %s budget=%s deadline=%s %s" wl.wname
             (mode_name mode) (opt string_of_int retry_budget)
             (opt (Printf.sprintf "%g") deadline)
             (opt Fun.id spec))
        ~config:
          {
            wl.config with
            Weaver.Config.faults = spec;
            retry_budget;
            deadline_cycles = deadline;
            checkpoint = deadline <> None;
          })
    Weaver.Runtime.
      [
        (6, Resident, None, None, None);
        (6, Streamed, None, None, None);
        (0, Resident, Some 2, None, Some "launch@1x11");
        (1, Streamed, Some 2, None, Some "transfer@1x4");
        (0, Resident, Some 2, Some 60_000., Some "launch@2:flip");
        (0, Resident, Some 2, Some 100_000., Some "launch@2:flip");
        (5, Streamed, Some 2, Some 60_000., Some "launch@2:flip");
        (5, Resident, Some 2, Some 150_000., Some "launch@2:flip");
      ];
  List.iter
    (fun rung ->
      if not (Hashtbl.mem hits rung) then begin
        Printf.eprintf "recovery pins: no cell exercised %s\n" rung;
        exit 1
      end)
    rungs
