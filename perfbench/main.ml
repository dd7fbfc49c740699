(* The repository benchmark: one named workload, one process, one client.

   A run generates its inputs from the seed, computes the oracle answers
   with Qplan.Reference, compiles every program once and warms up. That
   set-up is repeated and its median reported as [setup_s]. The run then
   submits operations in a closed loop (the next only after the previous
   verdict) for the given host-time budget, with [Config.jobs = 1]. Every
   completed query is checked against the oracle, and every operation's
   simulated counters must repeat bit-exactly those of the warm-up: a
   wrong answer or a drift makes the run incorrect and the exit code 1.

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   The last line of stdout is one JSON object. With --trace 0 its metrics
   are the end-to-end ones, measured untraced. With --trace 1 the budget
   is split between an untraced and a traced pass. The traced pass wraps
   this file's own calls into each layer in spans (kept in memory and
   written to _build/perfbench/ at the end); its metrics are the
   per-layer ones plus the tracing overhead on every end-to-end metric.
   README.md lists the workloads and which layer metric feeds which
   end-to-end metric. *)

module Config = Weaver.Config
module Metrics = Weaver.Metrics
module Runtime = Weaver.Runtime
module Service = Weaver.Service
module Relation = Relation_lib.Relation
module Schema = Relation_lib.Schema

let now = Unix.gettimeofday
let sum = List.fold_left ( +. ) 0.0

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- spans ----------------------------------------------------------------- *)

(* A span is one timed call from this file into a layer. Spans of one
   operation share its id; set-ups use negative ids. *)
type span = { name : string; op : int; parent : string; t0 : float; t1 : float }

type recorder = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : string list;  (** names of the enclosing spans *)
}

let recorder on = { on; spans = []; stack = [] }

let span r ~op name f =
  if not r.on then f ()
  else begin
    let parent = match r.stack with p :: _ -> p | [] -> "" in
    r.stack <- name :: r.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        r.stack <- List.tl r.stack;
        r.spans <- { name; op; parent; t0; t1 = now () } :: r.spans)
  end

(* Seconds the spans called [name] took within operation [op]. *)
let span_total r name op =
  List.fold_left
    (fun acc s ->
      if s.name = name && s.op = op then acc +. (s.t1 -. s.t0) else acc)
    0.0 r.spans

(* Median, over the operations that have spans called [name], of their
   per-operation total, in ms. *)
let span_ms r name =
  List.filter_map (fun s -> if s.name = name then Some s.op else None) r.spans
  |> List.sort_uniq compare
  |> List.map (span_total r name)
  |> median
  |> ( *. ) 1000.0

(* Chrome trace-event JSON, loadable in chrome://tracing or Perfetto. *)
let write_spans r path =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity r.spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n\
         {\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"op\": %d, \"parent\": %S}}"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.op s.parent)
    (List.rev r.spans);
  output_string oc "\n]}\n";
  close_out oc

(* --- workloads ------------------------------------------------------------- *)

type query = {
  label : string;
  plan : Qplan.Plan.t;
  gen : unit -> Relation.t array;  (** the seeded inputs *)
}

(* One request of an operation: the query, the config it is compiled
   with and the placement it asks for. *)
type slot = { query : query; config : Config.t; mode : Runtime.mode }

(* How an operation is submitted: straight to the runtime, or as one
   batch through the service front end. *)
type via = Direct | Batch of Service.config

type workload = { name : string; via : via; slots : seed:int -> slot list }

let base = Config.with_jobs Config.default 1

let tpch (q : Tpch.Queries.query) ~seed ~lineitems =
  {
    label = q.Tpch.Queries.qname;
    plan = q.Tpch.Queries.plan;
    gen =
      (fun () -> q.Tpch.Queries.bind (Tpch.Datagen.generate ~seed ~lineitems));
  }

let pattern (w : Tpch.Patterns.workload) ~seed ~rows =
  {
    label = w.Tpch.Patterns.name;
    plan = w.Tpch.Patterns.plan;
    gen = (fun () -> w.Tpch.Patterns.gen ~seed ~rows);
  }

let clean ?(config = base) query = { query; config; mode = Runtime.Resident }

(* storm-streamed: one batch fills the service's admit capacity (the
   running request plus a full queue). Every request carries its own
   storm: alloc/launch/transfer traps at a seeded rate plus one bit flip
   on an early launch, which checkpointed recovery rolls back. The rate
   seed belongs to the request slot, not to the workload seed, so every
   seed meets the same recoverable storm: at a 5% rate with seed-derived
   flips, some seeds hit corruption no rollback could absorb, and a
   rollback vetoed under a hedge cap failed its request instead of
   hedging -- which is also why hedging stays off here. *)
let storm_batch = 9
let storm_rate = 0.03

let storm_slots ~seed =
  let queries =
    [|
      pattern (Tpch.Patterns.pattern_a ()) ~seed ~rows:2_000;
      pattern (Tpch.Patterns.pattern_b ()) ~seed ~rows:2_000;
      pattern (Tpch.Patterns.pattern_e ()) ~seed ~rows:2_000;
      tpch Tpch.Queries.q1 ~seed ~lineitems:2_000;
    |]
  in
  List.init storm_batch (fun rid ->
      let r = storm_rate in
      let faults =
        Printf.sprintf "rseed@%d,alloc%%%g,launch%%%g,transfer%%%g,launch@%d:flip"
          (rid + 1) r r r (2 + (rid mod 3))
      in
      {
        query = queries.(rid mod Array.length queries);
        config =
          {
            base with
            Config.faults = Some faults;
            checkpoint = true;
            retry_budget = Some 16;
            deadline_cycles = Some 1e7;
          };
        mode = Runtime.Streamed;
      })

let workloads =
  [
    {
      name = "q1-scan";
      via = Direct;
      slots =
        (fun ~seed -> [ clean (tpch Tpch.Queries.q1 ~seed ~lineitems:20_000) ]);
    };
    {
      name = "q21-repeat";
      via = Batch Service.default_config;
      slots =
        (* With the default join expansion of 2, half of seeds 1-20 took
           1 to 8 capacity retries per request, each re-running lowering
           and the gate, so latency followed the seed instead of the code.
           At 3 none of them retries. *)
        (fun ~seed ->
          [
            clean
              ~config:{ base with Config.join_expansion = 3 }
              (tpch Tpch.Queries.q21 ~seed ~lineitems:2_000);
          ]);
    };
    {
      name = "storm-streamed";
      via =
        Batch
          { Service.default_config with Service.queue_limit = storm_batch - 1 };
      slots = storm_slots;
    };
  ]

(* --- set-up ---------------------------------------------------------------- *)

type job = {
  slot : slot;
  program : Runtime.program;
  bases : Relation.t array;
  expect : (int * Relation.t) list;  (** the oracle's sinks *)
}

let prepare r ~op slots =
  let queries =
    List.sort_uniq
      (fun a b -> String.compare a.label b.label)
      (List.map (fun s -> s.query) slots)
  in
  let data =
    span r ~op "tpch.datagen" (fun () ->
        List.map (fun q -> (q.label, q.gen ())) queries)
  in
  let expect =
    span r ~op "reference.eval" (fun () ->
        List.map
          (fun q ->
            (q.label, Qplan.Reference.eval_sinks q.plan (List.assoc q.label data)))
          queries)
  in
  span r ~op "driver.compile" (fun () ->
      List.map
        (fun s ->
          {
            slot = s;
            program = Weaver.Driver.compile ~config:s.config s.query.plan;
            bases = List.assoc s.query.label data;
            expect = List.assoc s.query.label expect;
          })
        slots)

type verdict = Done of Runtime.result | Failed of Metrics.t | Rejected

(* A thunk that submits one operation and waits for all its verdicts. *)
let submitter via jobs =
  match via with
  | Direct ->
      fun () ->
        ( List.map
            (fun j ->
              match Runtime.run_result j.program j.bases ~mode:j.slot.mode with
              | Ok res -> Done res
              | Error f -> Failed f.Runtime.partial)
            jobs,
          None )
  | Batch config ->
      let requests =
        List.mapi
          (fun rid j -> Service.request ~rid ~mode:j.slot.mode j.program j.bases)
          jobs
      in
      fun () ->
        let responses, stats = Service.run_batch ~config requests in
        ( List.map
            (fun (resp : Service.response) ->
              match resp.Service.verdict with
              | Service.Completed res -> Done res
              | Service.Failed f -> Failed f.Runtime.partial
              | Service.Rejected _ -> Rejected)
            responses,
          Some stats )

(* --- simulated counters ---------------------------------------------------- *)

(* What one operation did in simulation, plus its verdict counts. The
   simulator is deterministic, so this repeats bit-exactly for every
   operation of a run and across runs of one seed. *)
type signature = {
  queries : int;
  completed : int;
  failed : int;
  rejected : int;
  wrong : int;  (** completed, but the oracle disagrees *)
  cycles : float;  (** kernel + PCIe, failed attempts and hedges included *)
  launches : int;  (** interpreted launches; modelled sorts excluded *)
  instr : int;  (** interpreted KIR instructions *)
  global_bytes : int;
  pcie_bytes : int;
  pcie_transfers : int;
  pcie_cycles : float;
  faults : int;
  faulted : int;  (** requests that saw an injected fault *)
  recovered : int;  (** faulted requests that still completed *)
  retries : int;
  fissions : int;
  demotions : int;
  rollbacks : int;
  replayed_cycles : float;
  queue_wait_p50 : float;
  pre_demotions : int;
  brownouts : int;
  hedges : int;
  hedge_wins : int;
}

let has_float rel =
  let s = Relation.schema rel in
  List.exists
    (fun j -> Relation_lib.Dtype.is_float (Schema.dtype s j))
    (List.init (Schema.arity s) Fun.id)

(* Exact multiset equality, or approximate for float schemas, as
   Driver.compare_fusion compares fused and unfused answers. *)
let agrees expect sinks =
  List.length expect = List.length sinks
  && List.for_all
       (fun (id, want) ->
         match List.assoc_opt id sinks with
         | Some got ->
             if has_float want then Relation.approx_equal want got
             else Relation.equal_multiset want got
         | None -> false)
       expect

let signature jobs verdicts (stats : Service.stats option) =
  let ms =
    List.filter_map
      (function
        | Done r -> Some r.Runtime.metrics | Failed m -> Some m | Rejected -> None)
      verdicts
  in
  let count p = List.length (List.filter p verdicts) in
  let isum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  let fsum f = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
  let launched =
    List.concat_map
      (fun (m : Metrics.t) ->
        List.filter
          (fun (r : Gpu_sim.Executor.launch_report) -> r.Gpu_sim.Executor.grid > 0)
          m.Metrics.reports)
      ms
  in
  let lsum f = List.fold_left (fun acc r -> acc + f r.Gpu_sim.Executor.stats) 0 launched in
  let svc f = match stats with Some s -> f s | None -> 0 in
  {
    queries = List.length verdicts;
    completed = count (function Done _ -> true | _ -> false);
    failed = count (function Failed _ -> true | _ -> false);
    rejected = count (function Rejected -> true | _ -> false);
    wrong =
      List.fold_left2
        (fun acc j v ->
          match v with
          | Done r when not (agrees j.expect r.Runtime.sinks) -> acc + 1
          | _ -> acc)
        0 jobs verdicts;
    cycles =
      (match stats with
      | Some s -> s.Service.total_cycles
      | None -> fsum Metrics.total_cycles);
    launches = List.length launched;
    instr = lsum (fun s -> s.Gpu_sim.Stats.instructions);
    global_bytes = lsum Gpu_sim.Stats.global_bytes;
    pcie_bytes = isum (fun m -> m.Metrics.pcie_bytes);
    pcie_transfers = isum (fun m -> m.Metrics.pcie_transfers);
    pcie_cycles = fsum (fun m -> m.Metrics.pcie_cycles);
    faults = isum (fun m -> m.Metrics.faults_injected);
    faulted = List.length (List.filter (fun m -> m.Metrics.faults_injected > 0) ms);
    recovered =
      count (function
        | Done r -> r.Runtime.metrics.Metrics.faults_injected > 0
        | _ -> false);
    retries = isum (fun m -> m.Metrics.retries);
    fissions = isum (fun m -> m.Metrics.fissions);
    demotions = isum (fun m -> m.Metrics.demotions);
    rollbacks = isum (fun m -> m.Metrics.rollbacks);
    replayed_cycles = fsum (fun m -> m.Metrics.replayed_cycles);
    queue_wait_p50 =
      median
        (List.filter_map
           (function
             | Done r -> Some r.Runtime.metrics.Metrics.queue_wait_cycles
             | _ -> None)
           verdicts);
    pre_demotions = svc (fun s -> s.Service.pre_demotions);
    brownouts = svc (fun s -> s.Service.brownout_entries);
    hedges = svc (fun s -> s.Service.hedges);
    hedge_wins = svc (fun s -> s.Service.hedge_wins);
  }

(* --- replicated lowering (traced pass only) -------------------------------- *)

(* The kernels the runtime generates for one unit on each attempt, built
   through the same public emitters; modelled sorts have none. *)
let lower (p : Runtime.program) unit_ =
  let cfg = p.Runtime.config in
  let input source = Qplan.Plan.schema_of p.Runtime.plan source in
  let partition ~name ~schema ~key_arity ~cap =
    Ra_lib.Partition_emit.emit ~name:(name ^ "_partition")
      ~inputs:[ (Ra_lib.Partition_emit.Even, schema) ]
      ~key_arity ~pivot:None ~cap
  in
  match unit_ with
  | Runtime.U_fused { name; ir } ->
      let ks =
        Weaver.Codegen.generate cfg ~name ir
          (Weaver.Layout.compute cfg p.Runtime.plan ir)
      in
      (ks.Weaver.Codegen.partition :: ks.Weaver.Codegen.compute
       :: Array.to_list ks.Weaver.Codegen.scans)
      @ Array.to_list ks.Weaver.Codegen.gathers
  | Runtime.U_sort _ -> []
  | Runtime.U_unique { op_id; key_arity; source } ->
      let name = Printf.sprintf "unique%d" op_id and schema = input source in
      let cap = cfg.Config.cap in
      [
        partition ~name ~schema ~key_arity ~cap;
        Ra_lib.Unique_emit.emit_compute ~op:op_id ~name:(name ^ "_compute")
          ~schema ~key_arity ~cap ~stage_cap:cap ();
        Ra_lib.Gather_emit.emit_scan_offsets ~name:(name ^ "_scan");
        Ra_lib.Gather_emit.emit_gather ~name:(name ^ "_gather") ~schema
          ~stage_cap:cap;
      ]
  | Runtime.U_aggregate { op_id; source; lay } ->
      let name = Printf.sprintf "aggregate%d" op_id in
      let g = cfg.Config.max_groups in
      [
        partition ~name ~schema:(input source) ~key_arity:1
          ~cap:(cfg.Config.cap * 8);
        Ra_lib.Aggregate_emit.emit_partial ~op:op_id ~name:(name ^ "_partial")
          lay ~max_groups:g ~stage_cap:g ();
        Ra_lib.Aggregate_emit.emit_final ~op:op_id ~name:(name ^ "_final") lay
          ~max_groups:g ~stage_cap:g ();
      ]

type static = {
  kernels : int;
  lowered_instr : int;
  o3_instr : int;
  gating_diags : int;
}

(* Re-run, outside the timed call, the lowering, analysis gate and -O3 the
   runtime performs once per attempt, for every job of operation [op],
   each in its own span. The gate runs without the fused layout's region
   list, which only adds one bounds comparison per region. *)
let replicate r ~op jobs =
  let instrs =
    List.fold_left (fun n k -> n + Weaver.Optimizer.static_instructions k) 0
  in
  List.fold_left
    (fun acc j ->
      let p = j.program in
      let ks =
        span r ~op "codegen.lower" (fun () ->
            List.concat_map (lower p) p.Runtime.units)
      in
      let reports =
        span r ~op "analysis.gate" (fun () ->
            List.map (fun k -> Runtime.analyze_kernel k) ks)
      in
      let optimized =
        span r ~op "optimizer.o3" (fun () ->
            List.map (Weaver.Optimizer.optimize p.Runtime.opt) ks)
      in
      {
        kernels = acc.kernels + List.length ks;
        lowered_instr = acc.lowered_instr + instrs ks;
        o3_instr = acc.o3_instr + instrs optimized;
        gating_diags =
          List.fold_left
            (fun n rep -> n + List.length (Weaver_analysis.Analysis.gating rep))
            acc.gating_diags reports;
      })
    { kernels = 0; lowered_instr = 0; o3_instr = 0; gating_diags = 0 }
    jobs

(* --- host speed probe -------------------------------------------------------- *)

(* Load from outside this process slows everything it runs, by up to 2x
   for seconds to minutes at a time on a shared machine, which swamps the
   differences the benchmark exists to show. So a fixed probe is timed
   before and after every operation and set-up, and every end-to-end host
   time is reported scaled to the probe's reference duration:
   [wall * probe_ref_s / mean(probe before, probe after)], the time the
   operation would take at the probe's reference speed. The probe shares
   no code with the system under test, so no change to the system can
   make it faster. It has two halves, interpreter-style dispatch over a
   512 KiB table and independent random loads from an 8 MiB one: in
   trials each half alone tracked the simulator's slowdowns well on some
   runs and poorly on others, and a compute-only probe tracked them worst. *)
let probe_ref_s = 0.002
let probe_steps = 50_000
let dispatch_mask = (1 lsl 16) - 1
let loads_mask = (1 lsl 20) - 1

let dispatch_table =
  Array.init (dispatch_mask + 1) (fun i -> i * 40503 land dispatch_mask)

let loads_table = Array.init (loads_mask + 1) (fun i -> i * 7)
let probe_sink = ref 0

let probe () =
  let t = dispatch_table and u = loads_table in
  let acc = ref 0 and pc = ref 0 and lcg = ref 99 in
  let t0 = now () in
  for i = 1 to probe_steps do
    let x = t.(!pc) in
    (match x land 3 with
    | 0 -> acc := !acc + x
    | 1 -> acc := !acc lxor (x lsl 1)
    | 2 -> acc := !acc - (x lsr 2)
    | _ -> acc := !acc + t.((x + i) land dispatch_mask));
    pc := (x + !acc + i) land dispatch_mask
  done;
  for _ = 1 to probe_steps do
    lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + u.(!lcg land loads_mask)
  done;
  probe_sink := !acc;
  now () -. t0

(* [f ()] with its wall time and the probe time around it. *)
let probed f =
  let before = probe () in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  (v, wall, (before +. probe ()) /. 2.0)

(* --- passes and metrics ---------------------------------------------------- *)

type sample = {
  id : int;
  wall : float;  (** raw host seconds, submit to verdict *)
  scaled : float;  (** [wall] at the probe's reference speed *)
  sg : signature;
}

(* Every pass runs at least this many operations, so the tail latency has
   ten samples beyond it. *)
let min_ops = 11

let pass r ~fire ~jobs ~first ~seconds ~hard_stop =
  let t_end = now () +. seconds in
  let rec loop id acc =
    let t = now () in
    if (t >= t_end && id - first >= min_ops) || t >= hard_stop then List.rev acc
    else begin
      (* Finish the previous operations' major GC work before timing, so
         each operation pays for the garbage it makes itself: without
         this, whether the tail landed on an operation that also ran a
         major cycle for earlier ones moved q1-scan's tail by 30%. *)
      Gc.full_major ();
      let (verdicts, stats), wall, p = probed (fun () -> span r ~op:id "submit" fire) in
      let sg = signature jobs verdicts stats in
      if r.on then ignore (replicate r ~op:id jobs);
      loop (id + 1) ({ id; wall; scaled = wall *. probe_ref_s /. p; sg } :: acc)
    end
  in
  loop first []

(* The latency with exactly ten samples above it, and its percentile. *)
let tail samples =
  let lat =
    Array.of_list (List.sort compare (List.map (fun s -> 1000.0 *. s.scaled) samples))
  in
  let n = Array.length lat in
  let k = max 0 (n - 11) in
  if n = 0 then (0.0, 0.0)
  else (lat.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let end_to_end ~setup_s ~heap_mb samples =
  let wall = sum (List.map (fun s -> s.scaled) samples) in
  let total f = float_of_int (List.fold_left (fun acc s -> acc + f s.sg) 0 samples) in
  let completed = total (fun g -> g.completed) in
  [
    ("latency_ms_p50", "ms", median (List.map (fun s -> 1000.0 *. s.scaled) samples));
    ("latency_ms_tail", "ms", fst (tail samples));
    ("queries_per_s", "1/s", completed /. wall);
    ("sim_instr_per_s", "1/s", total (fun g -> g.instr) /. wall);
    ( "sim_cycles_per_query",
      "cycles",
      median
        (List.map
           (fun s -> s.sg.cycles /. float_of_int (max 1 s.sg.completed))
           samples) );
    ( "success_frac",
      "ratio",
      (completed -. total (fun g -> g.wrong)) /. total (fun g -> g.queries) );
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", heap_mb);
  ]

let per_layer r ~jobs ~static ~sg samples =
  let self s =
    s.wall
    -. span_total r "codegen.lower" s.id
    -. span_total r "analysis.gate" s.id
    -. span_total r "optimizer.o3" s.id
  in
  let selfs = List.map self samples in
  let n = float_of_int in
  let frac a b = if b = 0 then 0.0 else n a /. n b in
  let groups = List.concat_map (fun j -> j.program.Runtime.groups) jobs in
  let fused = List.filter (fun g -> List.length g > 1) groups in
  [
    ("driver.compile_ms", "ms", span_ms r "driver.compile");
    ("driver.groups", "count", n (List.length groups));
    ("driver.fused_ops", "count", n (List.length (List.concat fused)));
    ("codegen.lower_ms", "ms", span_ms r "codegen.lower");
    ("codegen.kernels", "count", n static.kernels);
    ("codegen.static_instr", "count", n static.lowered_instr);
    ("optimizer.o3_ms", "ms", span_ms r "optimizer.o3");
    ("optimizer.static_instr", "count", n static.o3_instr);
    ("analysis.gate_ms", "ms", span_ms r "analysis.gate");
    ("analysis.kernels", "count", n static.kernels);
    ("analysis.gating_diags", "count", n static.gating_diags);
    ("interp.self_ms", "ms", 1000.0 *. median selfs);
    ("interp.wall_frac", "ratio", sum selfs /. sum (List.map (fun s -> s.wall) samples));
    ("interp.launches", "count", n sg.launches);
    ("interp.sim_instr", "count", n sg.instr);
    ( "interp.ns_per_instr",
      "ns",
      1e9 *. sum selfs /. Float.max 1.0 (n sg.instr *. n (List.length samples)) );
    ("interp.global_bytes", "bytes", n sg.global_bytes);
    ("pcie.bytes", "bytes", n sg.pcie_bytes);
    ("pcie.transfers", "count", n sg.pcie_transfers);
    ("pcie.sim_cycles", "cycles", sg.pcie_cycles);
    ("runtime.faults_injected", "count", n sg.faults);
    ("runtime.retries", "count", n sg.retries);
    ("runtime.fissions", "count", n sg.fissions);
    ("runtime.demotions", "count", n sg.demotions);
    ("runtime.rollbacks", "count", n sg.rollbacks);
    ("runtime.replayed_cycles", "cycles", sg.replayed_cycles);
    ("runtime.recovered_frac", "ratio", frac sg.recovered sg.faulted);
    ("service.queue_wait_cycles_p50", "cycles", sg.queue_wait_p50);
    ("service.rejected", "count", n sg.rejected);
    ("service.pre_demotions", "count", n sg.pre_demotions);
    ("service.brownout_entries", "count", n sg.brownouts);
    ("service.hedge_win_frac", "ratio", frac sg.hedge_wins sg.hedges);
    ("tpch.datagen_ms", "ms", span_ms r "tpch.datagen");
    ("reference.eval_ms", "ms", span_ms r "reference.eval");
  ]

(* --- environment and output ------------------------------------------------ *)

(* Digest of the library sources, naming the code under test when the
   checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  match files "lib" with
  | fs ->
      Digest.to_hex
        (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) fs)))
  | exception Sys_error _ -> "unavailable"

let getenv_or name default = Option.value (Sys.getenv_opt name) ~default

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let usage () =
  prerr_endline
    "usage: main.exe --workload (q1-scan|q21-repeat|storm-streamed) [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let started = now () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let traced = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> traced := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let slots = wl.slots ~seed:!seed in
  let off = recorder false and on = recorder true in
  (* one set-up: regenerate, re-solve, recompile, warm up *)
  let setup r i =
    let op = -1 - i in
    let (jobs, fire, sg), wall, p =
      probed (fun () ->
          span r ~op "setup" (fun () ->
              let jobs = prepare r ~op slots in
              let fire = submitter wl.via jobs in
              let verdicts, stats = span r ~op "warmup" fire in
              (jobs, fire, signature jobs verdicts stats)))
    in
    (r.on, wall *. probe_ref_s /. p, jobs, fire, sg)
  in
  let reps = if !traced then [ off; on; off; on; off; on ] else [ off; off; off ] in
  let setups = List.mapi (fun i r -> setup r i) reps in
  let _, _, jobs, fire, sg0 = List.nth setups (List.length setups - 1) in
  let setup_s on_ =
    median (List.filter_map (fun (o, s, _, _, _) -> if o = on_ then Some s else None) setups)
  in
  let hard_stop = started +. !seconds +. 90.0 in
  let run_pass r ~first ~seconds = pass r ~fire ~jobs ~first ~seconds ~hard_stop in
  let untraced, traced_samples, heap_off, heap_on =
    if !traced then begin
      let u = run_pass off ~first:0 ~seconds:(!seconds /. 2.0) in
      let heap_off = peak_heap_mb () in
      let t = run_pass on ~first:(List.length u) ~seconds:(!seconds /. 2.0) in
      (u, t, heap_off, peak_heap_mb ())
    end
    else
      let u = run_pass off ~first:0 ~seconds:!seconds in
      (u, [], peak_heap_mb (), 0.0)
  in
  let samples = untraced @ traced_samples in
  let drifted =
    List.exists (fun (_, _, _, _, g) -> g <> sg0) setups
    || List.exists (fun s -> s.sg <> sg0) samples
  in
  if drifted then prerr_endline "perfbench: simulated counters drifted between operations";
  let static = if !traced then Some (replicate off ~op:0 jobs) else None in
  let gating = match static with Some s -> s.gating_diags | None -> 0 in
  let wrong = sg0.wrong + List.fold_left (fun acc s -> acc + s.sg.wrong) 0 samples in
  if wrong > 0 then prerr_endline "perfbench: answers disagree with the oracle";
  if gating > 0 then prerr_endline "perfbench: the analysis gate reported diagnostics";
  let correct = wrong = 0 && (not drifted) && gating = 0 in
  let e2e on_ heap_mb s = end_to_end ~setup_s:(setup_s on_) ~heap_mb s in
  let metrics =
    match static with
    | Some static ->
        per_layer on ~jobs ~static ~sg:sg0 traced_samples
        @ List.map2
            (fun (name, u, a) (_, _, b) -> ("trace_overhead." ^ name, u, b -. a))
            (e2e false heap_off untraced)
            (e2e true heap_on traced_samples)
    | None -> e2e false heap_off untraced
  in
  let spans =
    if not !traced then ""
    else
      let dir = Filename.concat "_build" "perfbench" in
      let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" wl.name !seed) in
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        write_spans on path;
        path
      with Sys_error e ->
        prerr_endline ("perfbench: spans not written: " ^ e);
        ""
  in
  let count f = List.fold_left (fun acc s -> acc + f s.sg) 0 samples in
  let _, tail_pct = tail untraced in
  Printf.printf
    "{\"env\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"nproc\": %S, \"recommended_domains\": %d, \"jobs\": %d, \"ocaml\": %S, \
     \"commit\": %S, \"source_digest\": %S}, \"setup_reps\": %d, \"ops\": %d, \
     \"tail_percentile\": %.2f, \"tail_samples\": %d, \"raw_latency_ms_p50\": \
     %.3f, \"probe_speed\": %.3f, \"sim_digest\": %S, \"spans\": %S}\n"
    wl.name !seed !seconds !traced
    (getenv_or "PERFBENCH_NPROC" "unknown")
    (Domain.recommended_domain_count ())
    base.Config.jobs Sys.ocaml_version
    (getenv_or "PERFBENCH_COMMIT" "unknown")
    (source_digest ()) (List.length setups) (List.length samples) tail_pct
    (List.length untraced)
    (1000.0 *. median (List.map (fun s -> s.wall) untraced))
    (median (List.map (fun s -> s.scaled /. s.wall) untraced))
    (Digest.to_hex (Digest.string (Marshal.to_string sg0 [])))
    spans;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (count (fun g -> g.queries))
    (count (fun g -> g.failed + g.rejected + g.wrong))
    (String.concat ", "
       (List.map
          (fun (name, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
          metrics));
  exit (if correct then 0 else 1)
