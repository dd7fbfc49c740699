open Gpu_sim
open Relation_lib
open Qplan

type mode = Resident | Streamed

type unit_kind =
  | U_fused of { name : string; ir : Fusion.t }
  | U_sort of { op_id : int; key_arity : int; source : Plan.source }
  | U_unique of { op_id : int; key_arity : int; source : Plan.source }
  | U_aggregate of {
      op_id : int;
      source : Plan.source;
      lay : Ra_lib.Aggregate_emit.layout;
    }

type program = {
  plan : Plan.t;
  config : Config.t;
  opt : Optimizer.level;
  units : unit_kind list;
  groups : int list list;
}

type result = { sinks : (int * Relation.t) list; metrics : Metrics.t }

type failure = { fault : Fault.t; partial : Metrics.t; trail : string list }
(* what a failed run still owes its caller: the typed fault plus the
   metrics accumulated up to the failure point (cycles spent, faults
   injected, and — crucially for the service layer's isolation guarantee —
   the leak list, which must be empty even on the failure path) and the
   flight recorder's last events, so the one-line fault report carries
   context ([] when the caller passed no tracer) *)

exception Execution_error of Fault.t

let exec_error fmt =
  Printf.ksprintf (fun s -> raise (Execution_error (Fault.Host_error s))) fmt

(* --- per-run state -------------------------------------------------------- *)

type mat = {
  schema : Schema.t;
  rows : int;
  mutable buf : Memory.buffer option;
  mutable host : Relation.t option;
  mutable remaining : int;  (** consuming units left (Resident freeing) *)
}

(* The checkpoint ledger: verified segment outputs snapshotted host-side at
   publish time, so a recoverable fault can resume from the last verified
   boundary instead of restarting the whole fused chain. Entries survive
   failed attempts; that is the whole point. Bounded by a fraction of
   device memory (the admission footprint currency), oldest evicted
   first. *)
type ckpt = {
  ck_on : bool;
  ck_budget : int;  (** bytes; ledger high-water mark *)
  mutable ck_entries : (int * Relation.t * int) list;
      (** (op_id, host snapshot, bytes), oldest first *)
  mutable ck_bytes : int;
  mutable ck_taken : int;
  mutable ck_hits : int;
  mutable ck_evicted : int;
  mutable ck_last_spent : float;
      (** absolute spent cycles at the newest snapshot — the boundary the
          replay-savings accounting credits *)
}

(* What one [run_result] call shares across its attempts: one injector,
   one PCIe ledger and one checkpoint ledger, plus every counter a failed
   attempt's work stays charged to, so a restarted attempt keeps counting
   where the failed one stopped. *)
type run = {
  program : program;
  pcie : Pcie.t;
  faults : Fault_inject.t;
  cancel : Cancel.t;
  trace : Weaver_obs.Trace.t;
  ckpt : ckpt;
  mutable reports : Executor.launch_report list;  (** reversed *)
  mutable kernel_cycles : float;  (** running sum over [reports] *)
  mutable retries : int;
  mutable fissions : int;
  mutable budget_spent : int;  (** recovery tokens consumed (see below) *)
  mutable corruptions : int;
      (** certificate mismatches detected (swept per attempt) *)
  mutable counterfactuals : Weaver_obs.Attrib.counterfactual list;
      (** reversed; per executed fused group, keyed by group name with
          replace-on-same-name so restart replays never double-count *)
  mutable replayed : float;  (** cycles re-spent after restarts *)
  mutable replay_spared : float;  (** cycles the checkpoint ledger spared *)
}

(* one attempt: its own device memory and materializations *)
type st = {
  run : run;
  mem : Memory.t;
  mode : mode;
  restored : (int, unit) Hashtbl.t;
      (** op ids restored from the ledger this attempt; units whose every
          output is here are skipped (and must not count as consumers) *)
  base_mats : mat array;
  node_mats : mat option array;
  pending_extra : (int, int) Hashtbl.t;
      (** extra consumer credits for node outputs produced inside a split
          group (runtime re-selection), applied at publish time *)
}

let config st = st.run.program.config
let device st = (config st).Config.device
let spent_cycles run = run.kernel_cycles +. Pcie.total_cycles run.pcie

(* The per-query budget checkpoint: polls the cancellation token (client
   aborts, wall-clock watchdog) and compares simulated cycles spent so far
   against the deadline. Called after every launch, synthetic report and
   PCIe transfer — the same places simulated time advances — so the check
   is deterministic for cycle deadlines: it depends only on the cost
   model, never on the host clock. Strictly greater-than, so a budget of
   exactly the run's cost completes; a non-positive budget fires at the
   first checkpoint. *)
let check_budget run =
  Cancel.check run.cancel;
  match run.program.config.Config.deadline_cycles with
  | None -> ()
  | Some limit ->
      let spent = spent_cycles run in
      if spent > limit || limit <= 0.0 then
        Fault.raise_
          (Fault.Deadline_exceeded
             { kind = Fault.Deadline_cycles; limit; spent })

(* The recovery checkpoint, consulted before every recovery action (an
   alloc/transfer/capacity retry, a fission split, a rollback, a
   demotion). Three gates, in order:
   1. First-cancel-wins: a cancellation that has already landed on the
      token beats both the fault being recovered and any budget decision —
      recovery must never race past a client abort or watchdog.
   2. Token budget ([Config.retry_budget]): each action spends one token;
      an empty purse vetoes the action with a typed fault.
   3. Deadline-cost veto: with both a budget and a cycle deadline set, an
      action whose estimate (what the action is expected to re-spend)
      exceeds the remaining cycle budget is vetoed: fail fast instead of
      starting work that is doomed to miss.
   All three depend only on the cost model and the schedule, never on the
   host clock, so vetoes are bit-deterministic. *)
let spend_recovery_token run ~action ~estimate =
  (match Cancel.cancelled run.cancel with
  | Some f -> Fault.raise_ f
  | None -> ());
  match run.program.config.Config.retry_budget with
  | None -> ()
  | Some budget ->
      let veto reason =
        Weaver_obs.Trace.instant run.trace ~lane:Weaver_obs.Trace.Host
          "budget_veto"
          ~args:[ ("action", Weaver_obs.Trace.Str action) ];
        Fault.raise_ (Fault.Budget_vetoed { action; reason })
      in
      if run.budget_spent >= budget then
        veto (Fault.Tokens_exhausted { budget; spent = run.budget_spent });
      (match run.program.config.Config.deadline_cycles with
      | Some limit ->
          let spent = spent_cycles run in
          (* a failed transfer can carry the run past its deadline before
             the next checkpoint: that is the miss itself, not a veto *)
          if spent > limit then
            Fault.raise_
              (Fault.Deadline_exceeded
                 { kind = Fault.Deadline_cycles; limit; spent });
          if estimate > limit -. spent then
            veto
              (Fault.Deadline_too_close
                 { estimated = estimate; remaining = limit -. spent })
      | None -> ());
      run.budget_spent <- run.budget_spent + 1

(* An in-attempt retry: pass the recovery gate, count it, mark it on the
   trace. *)
let count_retry st ~action ~estimate ?args event =
  spend_recovery_token st.run ~action ~estimate;
  st.run.retries <- st.run.retries + 1;
  Weaver_obs.Trace.instant st.run.trace ~lane:Weaver_obs.Trace.Host event ?args

let launch st kernel ~params ~grid ~cta =
  let r =
    Executor.launch ~timing:(config st).Config.timing
      ~jobs:(config st).Config.jobs ~faults:st.run.faults ~cancel:st.run.cancel
      ~trace:st.run.trace
      ~attrib:(config st).Config.attrib
      (device st) st.mem kernel ~params ~grid ~cta
  in
  st.run.reports <- r :: st.run.reports;
  st.run.kernel_cycles <-
    st.run.kernel_cycles +. r.Executor.time.Timing.total_cycles;
  check_budget st.run;
  r

(* Policy: injected allocation and PCIe faults are transient — retry
   [transient_retries] times before escalating. A device OOM that survives
   its retries escalates to Resident->Streamed demotion in [run_result]. *)
let transient_retries = 3

let retry_transient st ~action ~event f =
  let rec go tries =
    try f ()
    with
    | Fault.Error
        ( Fault.Alloc_failure { injected = true; _ }
        | Fault.Transfer_failure { injected = true; _ } )
      when tries < transient_retries
    ->
      count_retry st ~action ~estimate:0.0 event;
      go (tries + 1)
  in
  go 0

let alloc_buf st ~label ~words ~bytes =
  retry_transient st ~action:"allocation retry" ~event:"alloc_retry"
    (fun () -> Memory.alloc ~label st.mem ~words ~bytes)

let transfer st dir ~bytes =
  retry_transient st ~action:"transfer retry" ~event:"transfer_retry"
    (fun () -> ignore (Pcie.transfer st.run.pcie dir ~bytes));
  check_budget st.run

let synth_report ?ops st name stats =
  let time =
    Timing.kernel_time ~params:(config st).Config.timing (device st)
      ~occupancy:1.0 stats
  in
  (* Synthesized launches have no per-pc profile; when the run attributes
     costs, credit the whole report's events to the owning operators
     (split evenly), so modelled sorts and fallbacks stay on the ledger's
     per-operator rows rather than leaking into overhead. *)
  let attrib =
    if not (config st).Config.attrib then None
    else
      match ops with
      | None | Some [] -> Some []
      | Some l ->
          let l = List.sort_uniq compare l in
          let n = List.length l in
          let split q i = (q / n) + if i < q mod n then 1 else 0 in
          Some
            (List.mapi
               (fun i op ->
                 ( op,
                   {
                     Weaver_obs.Attrib.c_instructions =
                       split stats.Stats.instructions i;
                     c_weight = 1.0;
                     c_global_bytes =
                       split
                         (stats.Stats.global_load_bytes
                        + stats.Stats.global_store_bytes)
                         i;
                     c_shared =
                       split
                         (stats.Stats.shared_loads + stats.Stats.shared_stores)
                         i;
                     c_atomics = split stats.Stats.atomics i;
                     c_barriers = split stats.Stats.barrier_waits i;
                   } ))
               l)
  in
  let r =
    {
      Executor.kernel_name = name;
      grid = 0;
      cta = 0;
      occupancy = 1.0;
      limiting_resource = "modelled";
      stats;
      time;
      attrib;
    }
  in
  st.run.reports <- r :: st.run.reports;
  st.run.kernel_cycles <- st.run.kernel_cycles +. time.Timing.total_cycles;
  (* modelled work (host-side sorts, fallbacks) gets a Kernel-lane span
     too; the runtime owns its clock advance since no executor ran *)
  let module T = Weaver_obs.Trace in
  (if T.active st.run.trace then begin
     let sp =
       T.span st.run.trace ~lane:T.Kernel name
         ~args:
           (if T.recording st.run.trace then [ ("modelled", T.Int 1) ] else [])
     in
     T.advance st.run.trace time.Timing.total_cycles;
     T.close st.run.trace sp
   end);
  check_budget st.run

let mat_of_source st = function
  | Plan.Base i -> st.base_mats.(i)
  | Plan.Node i -> (
      match st.node_mats.(i) with
      | Some m -> m
      | None -> exec_error "operator %d's result is not materialized yet" i)

let alloc_rel st ~label ~rows ~schema =
  alloc_buf st ~label
    ~words:(max 1 (rows * Schema.arity schema))
    ~bytes:(rows * Schema.tuple_bytes schema)

(* Integrity checkpoint: recompute a materialization's digest against its
   certificate. Certificates are recorded unconditionally (so injected
   corruption lands on the same buffers whether or not anyone is looking);
   only this verification is gated on [Config.integrity] — turning it off
   is the "silent corruption" control. *)
let check_mat st (m : mat) ~site =
  if (config st).Config.integrity then
    match m.buf with
    | Some b when Memory.is_live st.mem b -> Memory.verify st.mem b ~site
    | _ -> ()

let upload st (m : mat) =
  match m.buf with
  | Some b -> b
  | None ->
      let rel =
        match m.host with
        | Some r -> r
        | None -> exec_error "relation lost both device and host copies"
      in
      let b = alloc_rel st ~label:"input" ~rows:m.rows ~schema:m.schema in
      Array.blit (Relation.data rel) 0 (Memory.data st.mem b) 0
        (Array.length (Relation.data rel));
      m.buf <- Some b;
      transfer st Pcie.Host_to_device ~bytes:(Relation.bytes rel);
      (* certify at the PCIe boundary: from here until release, any bit
         that changes outside a recertified rewrite is corruption *)
      Memory.certify st.mem b;
      b

let device_view st (m : mat) =
  match m.buf with
  | None -> Option.get m.host
  | Some b ->
      let ar = Schema.arity m.schema in
      Relation.of_array m.schema
        (Array.sub (Memory.data st.mem b) 0 (m.rows * ar))

let download st (m : mat) =
  match m.host with
  | Some r -> r
  | None ->
      check_mat st m ~site:"download";
      let rel = device_view st m in
      transfer st Pcie.Device_to_host ~bytes:(Relation.bytes rel);
      m.host <- Some rel;
      rel

let free_device st (m : mat) =
  match m.buf with
  | Some b ->
      Memory.free st.mem b;
      m.buf <- None
  | None -> ()

(* Enforce the skeletons' sorted-input invariant; re-sorting is charged as
   a modelled SORT (the query planner would have inserted one). *)
let ensure_sorted st (m : mat) ~key_arity =
  (* verify first: a flip that landed since certification must not be
     laundered into a freshly recertified "sorted" rewrite *)
  check_mat st m ~site:"sort_invariant";
  let sorted_now =
    match m.buf with
    | Some b ->
        Relation.is_sorted_words m.schema ~key_arity ~rows:m.rows
          (Memory.data st.mem b)
    | None -> Relation.is_sorted ~key_arity (Option.get m.host)
  in
  if not sorted_now then begin
    let sorted = Relation.sort ~key_arity (device_view st m) in
    (match m.buf with
    | Some b ->
        Array.blit (Relation.data sorted) 0 (Memory.data st.mem b) 0
          (Array.length (Relation.data sorted));
        (* legitimate in-place rewrite: recertify *)
        Memory.certify st.mem b
    | None -> ());
    if m.host <> None then m.host <- Some sorted;
    List.iteri
      (fun i s -> synth_report st (Printf.sprintf "implicit_sort_pass%d" i) s)
      (Ra_lib.Sort_model.synthetic_stats ~rows:m.rows ~schema:m.schema)
  end

(* CTA-count ceiling per kernel *)
let max_grid = 4096
let clamp_grid ~rows ~cap = max 1 (min max_grid ((rows + cap - 1) / cap))

(* verify-before-free: a flip must be caught while its buffer is still
   live, or the release would silently retire the evidence. This is the
   last verification a buffer sees, so any corruption the launches missed
   (injected after the post-launch input check) is detected here. *)
let consume st sources =
  match st.mode with
  | Streamed ->
      List.iter
        (fun src ->
          let m = mat_of_source st src in
          check_mat st m ~site:"consume";
          ignore (download st m);
          free_device st m)
        sources
  | Resident ->
      List.iter
        (fun src ->
          let m = mat_of_source st src in
          m.remaining <- m.remaining - 1;
          if m.remaining <= 0 then begin
            check_mat st m ~site:"release";
            free_device st m
          end)
        sources

(* Fault-free checkpointing overhead cap: in Resident mode a snapshot
   charges a real D2H, so one is taken only when that cost is within this
   fraction of the progress made since the last snapshot. Summed over a
   run the telescoping bound keeps total snapshot traffic under the same
   fraction of total cycles — the "pays for itself" rule. *)
let ckpt_overhead_bound = 0.04

(* Snapshot a just-verified segment output into the checkpoint ledger: a
   host copy (via [download], so the D2H cost is charged honestly — and in
   Streamed mode, where publish downloads anyway, the snapshot is free)
   plus its byte footprint against the ledger budget. An entry larger than
   the whole budget is not taken; a Resident entry whose D2H would exceed
   [ckpt_overhead_bound] of the progress since the last snapshot is
   deferred (a later, larger prefix will absorb it); otherwise the oldest
   entries are evicted until the ledger fits. *)
let snapshot st op_id (m : mat) =
  let ck = st.run.ckpt in
  if ck.ck_on then begin
    let bytes = max 0 (m.rows * Schema.tuple_bytes m.schema) in
    let affordable =
      match st.mode with
      | Streamed -> true (* publish downloads anyway: the snapshot is free *)
      | Resident ->
          let d = device st in
          let d2h_cycles =
            ((d.Device.pcie_latency_us *. 1e-6)
            +. (float_of_int bytes /. (d.Device.pcie_bw_gbps *. 1e9)))
            *. d.Device.clock_ghz *. 1e9
          in
          d2h_cycles
          <= ckpt_overhead_bound *. (spent_cycles st.run -. ck.ck_last_spent)
    in
    if bytes <= ck.ck_budget && affordable then begin
      let rel = download st m in
      (match List.find_opt (fun (i, _, _) -> i = op_id) ck.ck_entries with
      | Some (_, _, b) ->
          ck.ck_entries <- List.filter (fun (i, _, _) -> i <> op_id) ck.ck_entries;
          ck.ck_bytes <- ck.ck_bytes - b
      | None -> ());
      ck.ck_entries <- ck.ck_entries @ [ (op_id, rel, bytes) ];
      ck.ck_bytes <- ck.ck_bytes + bytes;
      ck.ck_taken <- ck.ck_taken + 1;
      ck.ck_last_spent <- spent_cycles st.run;
      Weaver_obs.Trace.instant st.run.trace ~lane:Weaver_obs.Trace.Host
        "checkpoint"
        ~args:
          [
            ("op", Weaver_obs.Trace.Int op_id);
            ("bytes", Weaver_obs.Trace.Int bytes);
          ];
      while ck.ck_bytes > ck.ck_budget do
        match ck.ck_entries with
        | (_, _, b) :: rest ->
            ck.ck_entries <- rest;
            ck.ck_bytes <- ck.ck_bytes - b;
            ck.ck_evicted <- ck.ck_evicted + 1;
            Weaver_obs.Trace.instant st.run.trace ~lane:Weaver_obs.Trace.Host
              "checkpoint_evict"
        | [] -> ck.ck_bytes <- 0
      done
    end
  end

let unit_outputs = function
  | U_fused { ir; _ } -> List.map fst (Array.to_list ir.Fusion.outputs)
  | U_sort { op_id; _ } | U_unique { op_id; _ } | U_aggregate { op_id; _ } ->
      [ op_id ]

(* a unit whose every output was restored from the checkpoint ledger does
   not run on a replay attempt — and must not count as a consumer either *)
let unit_skipped st u =
  match unit_outputs u with
  | [] -> false
  | outs -> List.for_all (Hashtbl.mem st.restored) outs

let fused_inputs (ir : Fusion.t) =
  Array.to_list (Array.map (fun (i : Fusion.input_info) -> i.source) ir.inputs)

let unit_inputs = function
  | U_fused { ir; _ } -> fused_inputs ir
  | U_sort { source; _ } | U_unique { source; _ } | U_aggregate { source; _ }
    ->
      [ source ]

(* how many units of this attempt read [src] *)
let readers st src =
  List.fold_left
    (fun acc u ->
      if
        (not (unit_skipped st u))
        && List.exists (Plan.equal_source src) (unit_inputs u)
      then acc + 1
      else acc)
    0 st.run.program.units

(* how many units read a node's output (sinks get a sentinel so their
   buffers survive until the end of the run) *)
let consumer_units_of st op_id =
  readers st (Plan.Node op_id)
  + if List.mem op_id (Plan.sinks st.run.program.plan) then 1 else 0

(* adopt a unit's freshly produced device buffer as [op_id]'s result *)
let publish st op_id ~schema ~rows buf =
  let m =
    {
      schema;
      rows;
      buf = Some buf;
      host = None;
      remaining = consumer_units_of st op_id;
    }
  in
  (match Hashtbl.find_opt st.pending_extra op_id with
  | Some extra ->
      m.remaining <- m.remaining + extra;
      Hashtbl.remove st.pending_extra op_id
  | None -> ());
  (* segment-output adoption is a certification boundary *)
  Memory.certify st.mem buf;
  st.node_mats.(op_id) <- Some m;
  snapshot st op_id m;
  match st.mode with
  | Streamed ->
      ignore (download st m);
      free_device st m
  | Resident -> ()

(* --- kernels: woven KIR is certified before it runs ---------------------- *)

(* The shared-memory regions the layout budgeted for a fused compute
   kernel, so the analyzer can cross-check extents against the kernel's
   declared shared_words. The per-segment scratch regions overlay one
   arena; duplicate bases keep the widest extent. *)
let layout_regions (lay : Layout.t) ~n_in =
  let r base words = { Weaver_analysis.Analysis.base; words } in
  let tile (t : Ra_lib.Tile.t) =
    [ r t.Ra_lib.Tile.base (t.Ra_lib.Tile.cap * Ra_lib.Tile.arity t); r t.Ra_lib.Tile.cnt 1 ]
  in
  let seg = function
    | Layout.S_none -> []
    | Layout.S_pipe { flags; scratch; total } ->
        (r flags scratch.Ra_lib.Tile.cap :: tile scratch) @ [ r total 1 ]
    | Layout.S_counts { counts; curs; total } ->
        [ r counts (curs - counts); r curs (total - curs); r total 1 ]
    | Layout.S_union { counts_l; counts_r; total_l; total_r } ->
        [
          r counts_l (counts_r - counts_l);
          r counts_r (total_l - counts_r);
          r total_l 1;
          r total_r 1;
        ]
  in
  let all =
    List.concat_map tile (Array.to_list lay.Layout.tiles)
    @ List.concat_map seg (Array.to_list lay.Layout.seg_scratch)
    @ [ r lay.Layout.shared_words (2 * n_in) ]
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (reg : Weaver_analysis.Analysis.region) ->
      match Hashtbl.find_opt tbl reg.Weaver_analysis.Analysis.base with
      | Some w when w >= reg.Weaver_analysis.Analysis.words -> ()
      | _ ->
          Hashtbl.replace tbl reg.Weaver_analysis.Analysis.base
            reg.Weaver_analysis.Analysis.words)
    all;
  Hashtbl.fold (fun base words acc -> r base words :: acc) tbl []

let analyze_kernel ?(regions = []) ?trace (k : Kir.kernel) =
  Weaver_analysis.Analysis.analyze ?trace ~regions
    ~expected_regs:k.Kir.regs_per_thread k

(* rows one aggregate CTA reduces *)
let aggregate_slice cfg = cfg.Config.cap * 8

(* The raw (pre -O3) kernels one unit launches, each with the
   shared-memory regions the analysis gate checks it against: fused
   partition, compute, per-output scans then gathers; unique partition,
   compute, scan, gather; aggregate partition, partial, final; none for a
   modelled sort. [cfg] carries the unit's current capacities (a capacity
   retry grows [cap], [max_groups] or the fused layout [lay], which
   defaults to the one [cfg] computes). Execution, [kernels_source] and
   [analyze_program] all build kernels here, so static analysis certifies
   exactly what the gate certifies. *)
let unit_kernels ?pivot ?lay cfg plan u =
  let plain k = (k, []) in
  let partition ~name ~schema ~key_arity ~cap =
    Ra_lib.Partition_emit.emit ~name:(name ^ "_partition")
      ~inputs:[ (Ra_lib.Partition_emit.Even, schema) ]
      ~key_arity ~pivot:None ~cap
  in
  match u with
  | U_fused { name; ir } ->
      let lay =
        match lay with Some l -> l | None -> Layout.compute cfg plan ir
      in
      let ks = Codegen.generate ?pivot cfg ~name ir lay in
      plain ks.Codegen.partition
      :: ( ks.Codegen.compute,
           layout_regions lay ~n_in:(Array.length ir.Fusion.inputs) )
      :: List.map plain
           (Array.to_list ks.Codegen.scans @ Array.to_list ks.Codegen.gathers)
  | U_sort _ -> []
  | U_unique { op_id; key_arity; source } ->
      let name = Printf.sprintf "unique%d" op_id
      and schema = Plan.schema_of plan source
      and cap = cfg.Config.cap in
      List.map plain
        [
          partition ~name ~schema ~key_arity ~cap;
          Ra_lib.Unique_emit.emit_compute ~op:op_id ~name:(name ^ "_compute")
            ~schema ~key_arity ~cap ~stage_cap:cap ();
          Ra_lib.Gather_emit.emit_scan_offsets ~name:(name ^ "_scan");
          Ra_lib.Gather_emit.emit_gather ~name:(name ^ "_gather") ~schema
            ~stage_cap:cap;
        ]
  | U_aggregate { op_id; source; lay } ->
      let name = Printf.sprintf "aggregate%d" op_id
      and g = cfg.Config.max_groups in
      List.map plain
        [
          partition ~name ~schema:(Plan.schema_of plan source) ~key_arity:1
            ~cap:(aggregate_slice cfg);
          Ra_lib.Aggregate_emit.emit_partial ~op:op_id ~name:(name ^ "_partial")
            lay ~max_groups:g ~stage_cap:g ();
          Ra_lib.Aggregate_emit.emit_final ~op:op_id ~name:(name ^ "_final")
            lay ~max_groups:g ~stage_cap:g ();
        ]

(* Certify a unit's raw kernels through the gate, then optimize them.
   [op] retags a standalone unit's kernels: every kernel of it exists for
   its one operator, partition included. *)
let certify st ?op ks =
  let o = Optimizer.optimize st.run.program.opt in
  List.map
    (fun (k, regions) ->
      if (config st).Config.analyze then begin
        let report = analyze_kernel ~regions ~trace:st.run.trace k in
        match Weaver_analysis.Analysis.gating report with
        | [] -> ()
        | d :: _ as ds ->
            raise
              (Fault.Error
                 (Fault.Static_rejected
                    {
                      kernel = k.Kir.kname;
                      count = List.length ds;
                      first = Weaver_analysis.Diag.to_string d;
                    }))
      end;
      let k = o k in
      match op with Some op -> Kir.retag [ op ] k | None -> k)
    ks

(* One unit's capacity-retry loop. Each attempt runs [body] on the
   current sizing with [scratch] (registers a buffer freed when the
   attempt ends) and [keep] (registers an output handed to the caller on
   success, freed if the attempt fails), so retries never accumulate dead
   buffers and the failure path leaks nothing. A capacity trap asks
   [grow] for the next sizing — [grow] raises the unit's own escape
   (fission, host fallback) when it cannot grow — then passes the
   recovery gate with what the trapped attempt burned as its estimate. *)
let with_capacity_retries st ~grow init body =
  let rec attempt sizing tries =
    let t0 = spent_cycles st.run in
    let scratch = ref [] and kept = ref [] in
    let track l b =
      l := b :: !l;
      b
    in
    let release l = List.iter (Memory.free st.mem) !l in
    match body sizing ~scratch:(track scratch) ~keep:(track kept) with
    | r ->
        release scratch;
        r
    | exception e -> (
        release scratch;
        release kept;
        match e with
        | Interp.Runtime_error (Fault.Capacity_trap { which; segment; _ }) ->
            let next = grow sizing ~which ~segment ~tries in
            count_retry st ~action:"capacity retry"
              ~estimate:(spent_cycles st.run -. t0)
              ~args:
                [ ("which", Weaver_obs.Trace.Str (Fault.show_capacity which)) ]
              "capacity_retry";
            attempt next (tries + 1)
        | e -> raise e)
  in
  attempt init 0

(* --- fused groups --------------------------------------------------------- *)

(* Run the scan-then-gather tail for one output; returns the dense buffer
   and its row count. The scratch offsets (and, when a launch faults
   mid-way, the partially-written output) are released on every path so
   retries never accumulate dead buffers. *)
let scan_and_gather st ~name ~scan_k ~gather_k ~staging ~counts ~grid ~schema =
  let offsets =
    alloc_buf st ~label:(name ^ "_offsets") ~words:(grid + 1)
      ~bytes:(4 * (grid + 1))
  in
  match
    ignore (launch st scan_k ~params:[| counts; offsets; grid |] ~grid:1 ~cta:1);
    let total = (Memory.data st.mem offsets).(grid) in
    let out = alloc_rel st ~label:(name ^ "_out") ~rows:total ~schema in
    (try
       ignore
         (launch st gather_k
            ~params:[| staging; counts; offsets; out |]
            ~grid ~cta:(config st).Config.cta_threads)
     with e ->
       Memory.free st.mem out;
       raise e);
    (out, total)
  with
  | res ->
      Memory.free st.mem offsets;
      res
  | exception e ->
      Memory.free st.mem offsets;
      raise e

exception Needs_split of Config.t
(* a capacity retry outgrew the shared budget: re-select with the grown
   estimate (the JIT re-planning the paper's runtime design anticipates) *)

exception Fallback_needed
(* a lone operator whose key runs cannot fit shared memory at all *)

(* Degenerate-data fallback: when one operator cannot execute on the
   device at all (a key run larger than shared memory defeats the CTA
   skeleton; an aggregation with more groups than a CTA table can hold),
   it executes host-side and is charged one full streaming pass, like the
   modelled SORT — a real system would switch algorithms there. *)
let exec_fallback_node st ~name ~op_id ~consumed_sources =
  Weaver_obs.Trace.instant st.run.trace ~lane:Weaver_obs.Trace.Host
    "host_fallback"
    ~args:[ ("unit", Weaver_obs.Trace.Str name) ];
  let plan = st.run.program.plan in
  let node = Plan.node plan op_id in
  let rels =
    List.map
      (fun src ->
        let m = mat_of_source st src in
        check_mat st m ~site:(name ^ "_fallback");
        device_view st m)
      node.Plan.inputs
  in
  let out = Reference.eval_kind node.Plan.kind rels in
  let stats = Stats.create () in
  let add_rel (r : Relation.t) =
    stats.Stats.global_loads <-
      stats.Stats.global_loads + (Relation.count r * Relation.arity r);
    stats.Stats.global_load_bytes <-
      stats.Stats.global_load_bytes + Relation.bytes r
  in
  List.iter add_rel rels;
  stats.Stats.global_stores <- Relation.count out * Relation.arity out;
  stats.Stats.global_store_bytes <- Relation.bytes out;
  let work_rows =
    List.fold_left (fun a r -> a + Relation.count r) (Relation.count out) rels
  in
  stats.Stats.instructions <- work_rows * 40;
  stats.Stats.alu_ops <- work_rows * 30;
  synth_report ~ops:[ op_id ] st (name ^ "_skew_fallback") stats;
  let buf =
    alloc_rel st ~label:(name ^ "_fallback_out") ~rows:(Relation.count out)
      ~schema:(Relation.schema out)
  in
  Array.blit (Relation.data out) 0 (Memory.data st.mem buf) 0
    (Array.length (Relation.data out));
  publish st op_id ~schema:(Relation.schema out) ~rows:(Relation.count out)
    buf;
  consume st consumed_sources

(* Fig. 18 accounting: what materializing this group's internal edges
   would have cost an unfused plan. Static upper bounds: a segment's
   output rows are estimated from its input rows (pipelines only shrink
   or keep their input; binary kinds use their worst-case shape). Each
   erased edge would have been written once and read back once, and — in
   a streamed plan — shipped over PCIe both ways. *)
let counterfactual_of ~plan ~name ~in_rows (ir : Fusion.t) =
  let tile_rows = Array.make (Array.length ir.tiles) 0 in
  let place_rows = function
    | Fusion.From_input i -> in_rows.(i)
    | Fusion.From_tile t -> tile_rows.(t)
  in
  let edges = ref 0 and rows = ref 0 and bytes = ref 0 in
  let edge ~out ~schema (dest : Fusion.dest) =
    match dest.to_tile with
    | Some t ->
        tile_rows.(t) <- out;
        incr edges;
        rows := !rows + out;
        bytes := !bytes + (2 * out * Schema.tuple_bytes schema)
    | None -> ()
  in
  List.iter
    (fun seg ->
      match seg with
      | Fusion.Load { input; tile } -> tile_rows.(tile) <- in_rows.(input)
      | Fusion.Pipe { op_ids; input; out_schema; dest; _ } ->
          let seg_in = place_rows input in
          (* intra-pipe edges: every non-terminal step's output would
             have been a materialized relation in the unfused plan; the
             steps are unary and never grow their input, so the
             segment's input rows bound each edge *)
          let rec intra = function
            | [] | [ _ ] -> ()
            | op :: rest ->
                incr edges;
                rows := !rows + seg_in;
                bytes :=
                  !bytes
                  + 2 * seg_in
                    * Schema.tuple_bytes (Plan.node plan op).Plan.schema;
                intra rest
          in
          intra op_ids;
          edge ~out:seg_in ~schema:out_schema dest
      | Fusion.Bin { kind; left; right; out_schema; dest; _ } ->
          let l = place_rows left and r = place_rows right in
          let out =
            match kind with
            | Fusion.B_product -> l * r
            | Fusion.B_union _ -> l + r
            | Fusion.B_join _ -> max l r
            | Fusion.B_semijoin _ | Fusion.B_antijoin _ | Fusion.B_intersect _
            | Fusion.B_difference _ ->
                l
          in
          edge ~out ~schema:out_schema dest)
    ir.segments;
  {
    Weaver_obs.Attrib.cf_group = name;
    cf_ops = ir.op_ids;
    cf_edges = !edges;
    cf_rows = !rows;
    cf_bytes = !bytes;
    cf_round_trips = 2 * !edges;
  }

(* replace-on-same-name: a restart replay (demotion, rollback) re-executes
   a group under the same name; its counterfactual must not double-count *)
let record_counterfactual st (cf : Weaver_obs.Attrib.counterfactual) =
  if (config st).Config.attrib then begin
    st.run.counterfactuals <-
      cf
      :: List.filter
           (fun (c : Weaver_obs.Attrib.counterfactual) ->
             c.cf_group <> cf.cf_group)
           st.run.counterfactuals;
    let module T = Weaver_obs.Trace in
    if T.recording st.run.trace then
      T.instant st.run.trace ~lane:T.Attrib ("counterfactual:" ^ cf.cf_group)
        ~args:
          [
            ("edges", T.Int cf.cf_edges);
            ("rows", T.Int cf.cf_rows);
            ("bytes", T.Int cf.cf_bytes);
            ("round_trips", T.Int cf.cf_round_trips);
          ]
  end

let exec_fallback st ~name (ir : Fusion.t) =
  exec_fallback_node st ~name ~op_id:(List.hd ir.op_ids)
    ~consumed_sources:(fused_inputs ir)

let rec exec_fused st ~name (ir : Fusion.t) =
  Weaver_obs.Trace.with_span st.run.trace ~lane:Weaver_obs.Trace.Host
    ("weave:" ^ name)
  @@ fun () ->
  let plan = st.run.program.plan in
  let n_in = Array.length ir.inputs in
  let n_out = Array.length ir.outputs in
  (* per-segment join-expansion overrides accumulated across retries *)
  let seg_exp : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let in_mats = Array.map (fun (i : Fusion.input_info) -> mat_of_source st i.source) ir.inputs in
  (* upload + sorted-invariant checks *)
  Array.iteri
    (fun i (info : Fusion.input_info) ->
      ignore (upload st in_mats.(i));
      if info.spec <> Ra_lib.Partition_emit.Even || info.sort_arity > 1 then
        ensure_sorted st in_mats.(i) ~key_arity:info.sort_arity)
    ir.inputs;
  (* cycles at unit entry: the fission estimate is everything this unit
     burned across its failed attempts *)
  let unit_t0 = spent_cycles st.run in
  let give_up cfg =
    if List.length ir.op_ids >= 2 then raise (Needs_split cfg)
    else raise Fallback_needed
  in
  (* the tile capacity of the latest attempt's layout, which a retry pins *)
  let cap = ref 0 in
  let grow (_, cfg) ~which ~segment ~tries =
    if tries >= (config st).Config.max_retries then give_up cfg;
    (* scale the capacity the trap names *)
    match (which : Fault.capacity) with
    | Fault.Cap_groups ->
        (Some !cap, { cfg with Config.max_groups = cfg.Config.max_groups * 2 })
    | Fault.Cap_input_tile ->
        (* a key range outgrew its tile: the binding constraint is the
           longest key run, which is independent of the slice size — so
           grow the slack factor faster than the capacity shrinks, keeping
           total shared memory roughly flat while the absolute tile
           capacity doubles each retry *)
        ( Some (max 8 (!cap / 2)),
          {
            cfg with
            Config.aux_factor = cfg.Config.aux_factor * 4;
            broadcast_cap = cfg.Config.broadcast_cap * 2;
          } )
    | Fault.Cap_staging -> (
        (* join/staging overflow: fan-out exceeded the expansion budget;
           grow only the overflowing segment when the trap names one *)
        match segment with
        | Some si ->
            let cur =
              Option.value (Hashtbl.find_opt seg_exp si)
                ~default:cfg.Config.join_expansion
            in
            Hashtbl.replace seg_exp si (cur * 2);
            (Some !cap, cfg)
        | None ->
            ( Some !cap,
              { cfg with Config.join_expansion = cfg.Config.join_expansion * 2 }
            ))
  in
  let attempt (fixed_cap, cfg) ~scratch ~keep =
    let seg_expansion si =
      Option.value (Hashtbl.find_opt seg_exp si)
        ~default:cfg.Config.join_expansion
    in
    let lay =
      (* a pinned capacity that no longer fits falls back to the search *)
      match Layout.compute ?fixed_cap ~seg_expansion cfg plan ir with
      | lay -> lay
      | exception Fusion.Infeasible _ when fixed_cap <> None -> (
          match Layout.compute ~seg_expansion cfg plan ir with
          | lay -> lay
          | exception Fusion.Infeasible _ -> give_up cfg)
      | exception Fusion.Infeasible _ -> give_up cfg
    in
    cap := lay.Layout.cap;
    (* the pivot must be the largest keyed input so slice boundaries cut
       the big side into even cap-sized pieces *)
    let pivot =
      match ir.pivot with
      | None -> None
      | Some _ ->
          let best = ref (-1) in
          Array.iteri
            (fun i (info : Fusion.input_info) ->
              if
                info.spec = Ra_lib.Partition_emit.Keyed
                && (!best < 0 || in_mats.(i).rows > in_mats.(!best).rows)
              then best := i)
            ir.inputs;
          Some !best
    in
    (* launch order: partition, compute, then output o's scan [2 + o] and
       gather [2 + n_out + o] *)
    let ks =
      Array.of_list
        (certify st (unit_kernels ?pivot ~lay cfg plan (U_fused { name; ir })))
    in
    let driving_rows =
      (* enough CTAs that the pivot's slices AND every even input's slices
         fit their capacities *)
      let even_max =
        Array.to_list ir.inputs
        |> List.mapi (fun i (info : Fusion.input_info) ->
               if info.spec = Ra_lib.Partition_emit.Even then in_mats.(i).rows
               else 0)
        |> List.fold_left max 0
      in
      match pivot with
      | Some p -> max in_mats.(p).rows even_max
      | None -> even_max
    in
    let grid = clamp_grid ~rows:driving_rows ~cap:lay.Layout.cap in
    let bounds =
      Array.init n_in (fun i ->
          scratch
            (alloc_buf st ~label:(Printf.sprintf "%s_bounds%d" name i)
               ~words:(grid + 1) ~bytes:(4 * (grid + 1))))
    in
    let stagings =
      Array.init n_out (fun o ->
          let schema = snd ir.outputs.(o) in
          let rows = grid * lay.Layout.out_caps.(o) in
          scratch
            (alloc_buf st ~label:(Printf.sprintf "%s_staging%d" name o)
               ~words:(max 1 (rows * Schema.arity schema))
               ~bytes:(rows * Schema.tuple_bytes schema)))
    in
    let counts =
      Array.init n_out (fun o ->
          scratch
            (alloc_buf st ~label:(Printf.sprintf "%s_counts%d" name o)
               ~words:grid ~bytes:(4 * grid)))
    in
    let part_params =
      Array.concat
        [
          Array.concat
            (Array.to_list
               (Array.map (fun (m : mat) -> [| Option.get m.buf; m.rows |]) in_mats));
          bounds;
        ]
    in
    ignore (launch st ks.(0) ~params:part_params ~grid ~cta:32);
    let comp_params =
      Array.concat
        [
          Array.map (fun (m : mat) -> Option.get m.buf) in_mats;
          bounds;
          stagings;
          counts;
        ]
    in
    ignore
      (launch st ks.(1) ~params:comp_params ~grid
         ~cta:(config st).Config.cta_threads);
    (* per-output gather *)
    let outs =
      Array.init n_out (fun o ->
          let op_id, schema = ir.outputs.(o) in
          let buf, rows =
            scan_and_gather st
              ~name:(Printf.sprintf "%s_out%d" name o)
              ~scan_k:ks.(2 + o) ~gather_k:ks.(2 + n_out + o)
              ~staging:stagings.(o) ~counts:counts.(o) ~grid ~schema
          in
          (op_id, schema, keep buf, rows))
    in
    (* post-launch input verification: injection hooks fire before the
       interpreter reads, so inputs that verify clean here were clean for
       every kernel of this unit — a corrupted input means the attempt's
       outputs cannot be trusted and must not be published *)
    Array.iter
      (fun (mm : mat) -> check_mat st mm ~site:(name ^ "_inputs"))
      in_mats;
    outs
  in
  match with_capacity_retries st ~grow (None, config st) attempt with
  | outs -> (
      (* the group's kernels ran: its fusion counterfactual is evidence
         now, whatever publishing does *)
      if (config st).Config.attrib then
        record_counterfactual st
          (counterfactual_of ~plan:st.run.program.plan ~name
             ~in_rows:(Array.map (fun (m : mat) -> m.rows) in_mats)
             ir);
      (* publish outputs, then release inputs. If publishing itself fails
         (a Streamed download's transfer fault, a deadline at a transfer
         checkpoint), outputs not yet adopted by a mat are freed here —
         published ones are the run-level cleanup's responsibility. *)
      try
        Array.iter
          (fun (op_id, schema, buf, rows) -> publish st op_id ~schema ~rows buf)
          outs;
        consume st (fused_inputs ir)
      with e ->
        Array.iter
          (fun (op_id, _, buf, _) ->
            if st.node_mats.(op_id) = None then Memory.free st.mem buf)
          outs;
        raise e)
  | exception Fallback_needed -> exec_fallback st ~name ir
  | exception Needs_split grown_cfg ->
      (* fission fallback: split the group under the grown resource
         estimate and execute the pieces; each piece retries (and may
         split again) independently *)
      spend_recovery_token st.run ~action:"fission"
        ~estimate:(spent_cycles st.run -. unit_t0);
      st.run.fissions <- st.run.fissions + 1;
      Weaver_obs.Trace.instant st.run.trace ~lane:Weaver_obs.Trace.Host
        "fission"
        ~args:[ ("group", Weaver_obs.Trace.Str name) ];
      let subgroups =
        Selection.select ~plan
          ~estimate:(Layout.estimate grown_cfg plan)
          ~budget:(Config.budget grown_cfg) ir.op_ids
      in
      (* if re-selection keeps the group whole (its estimate was optimistic
         where the observed data was not), halve it — binary fission walks
         down to singletons only as far as the data demands *)
      let halves ids =
        let n = List.length ids in
        let half = n / 2 in
        [
          List.filteri (fun i _ -> i < half) ids;
          List.filteri (fun i _ -> i >= half) ids;
        ]
      in
      let subgroups =
        if List.length subgroups <= 1 then halves ir.op_ids else subgroups
      in
      (* consumer accounting: the static plan budgeted ONE consumption of
         each original input by this unit, and NONE of the intermediates
         now materialized between subgroups — credit the difference *)
      let build_all groups =
        try Some (List.map (fun g -> Fusion.build plan g) groups)
        with Fusion.Infeasible _ -> None
      in
      let sub_irs =
        match build_all subgroups with
        | Some irs -> irs
        | None -> (
            (* a half that cannot be woven on its own: fall to singletons *)
            match build_all (List.map (fun id -> [ id ]) ir.op_ids) with
            | Some irs -> irs
            | None -> exec_error "group %s cannot be split further" name)
      in
      let reads : (Plan.source, int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (sub : Fusion.t) ->
          Array.iter
            (fun (i : Fusion.input_info) ->
              Hashtbl.replace reads i.source
                (1 + Option.value (Hashtbl.find_opt reads i.source) ~default:0))
            sub.inputs)
        sub_irs;
      let original_input src =
        Array.exists
          (fun (i : Fusion.input_info) -> Plan.equal_source i.source src)
          ir.inputs
      in
      Hashtbl.iter
        (fun src cnt ->
          if original_input src then begin
            let m = mat_of_source st src in
            m.remaining <- m.remaining + cnt - 1
          end
          else
            match src with
            | Plan.Node j ->
                Hashtbl.replace st.pending_extra j
                  (cnt
                  + Option.value (Hashtbl.find_opt st.pending_extra j) ~default:0)
            | Plan.Base _ -> ())
        reads;
      List.iteri
        (fun i sub_ir ->
          exec_fused st ~name:(Printf.sprintf "%s_s%d" name i) sub_ir)
        sub_irs

(* --- kernel-dependence units ---------------------------------------------- *)

let exec_sort st ~op_id ~key_arity ~source =
  Weaver_obs.Trace.with_span st.run.trace ~lane:Weaver_obs.Trace.Host
    (Printf.sprintf "sort%d" op_id)
  @@ fun () ->
  let m = mat_of_source st source in
  ignore (upload st m);
  let out = alloc_rel st ~label:"sort_out" ~rows:m.rows ~schema:m.schema in
  (* the synthetic passes hit budget checkpoints; release [out] if one
     fires before the result is adopted by a mat *)
  (try
     (* the [out] allocation was an injection point: verify the input just
        before its bits are copied host-side *)
     check_mat st m ~site:(Printf.sprintf "sort%d_input" op_id);
     Array.blit
       (Memory.data st.mem (Option.get m.buf))
       0 (Memory.data st.mem out) 0
       (m.rows * Schema.arity m.schema);
     Ra_lib.Sort_model.sort_host st.mem ~buf:out ~rows:m.rows ~schema:m.schema
       ~key_arity;
     List.iteri
       (fun i s ->
         synth_report ~ops:[ op_id ] st
           (Printf.sprintf "sort%d_pass%d" op_id i)
           s)
       (Ra_lib.Sort_model.synthetic_stats ~rows:m.rows ~schema:m.schema)
   with e ->
     Memory.free st.mem out;
     raise e);
  publish st op_id ~schema:m.schema ~rows:m.rows out;
  consume st [ source ]

let exec_unique st ~op_id ~key_arity ~source =
  Weaver_obs.Trace.with_span st.run.trace ~lane:Weaver_obs.Trace.Host
    (Printf.sprintf "unique%d" op_id)
  @@ fun () ->
  let m = mat_of_source st source in
  ignore (upload st m);
  ensure_sorted st m ~key_arity;
  let cfg = config st in
  let name = Printf.sprintf "unique%d" op_id in
  let u = U_unique { op_id; key_arity; source } in
  (* the flags scratch (one shared word per row) bounds how far the slice
     capacity can grow on retries *)
  let max_cap =
    max cfg.Config.cap (cfg.Config.device.Device.max_shared_mem_per_cta / 8)
  in
  (* a key run outgrew the slice: double the slice until the flags
     scratch no longer fits shared memory, then run host-side *)
  let grow (c : Config.t) ~which:_ ~segment:_ ~tries =
    let next = min (c.Config.cap * 2) max_cap in
    if next <= c.Config.cap || tries >= cfg.Config.max_retries then
      raise Fallback_needed;
    { c with Config.cap = next }
  in
  let attempt (c : Config.t) ~scratch ~keep =
    let cap = c.Config.cap in
    let grid = clamp_grid ~rows:m.rows ~cap in
    let partition, compute, scan_k, gather_k =
      match certify st ~op:op_id (unit_kernels c st.run.program.plan u) with
      | [ p; c; s; g ] -> (p, c, s, g)
      | _ -> assert false
    in
    let bounds =
      scratch
        (alloc_buf st ~label:(name ^ "_bounds") ~words:(grid + 1)
           ~bytes:(4 * (grid + 1)))
    in
    let staging =
      scratch
        (alloc_buf st ~label:(name ^ "_staging")
           ~words:(max 1 (grid * cap * Schema.arity m.schema))
           ~bytes:(grid * cap * Schema.tuple_bytes m.schema))
    in
    let counts =
      scratch
        (alloc_buf st ~label:(name ^ "_counts") ~words:grid ~bytes:(4 * grid))
    in
    let buf = Option.get m.buf in
    ignore (launch st partition ~params:[| buf; m.rows; bounds |] ~grid ~cta:32);
    ignore
      (launch st compute
         ~params:[| buf; bounds; staging; counts |]
         ~grid ~cta:cfg.Config.cta_threads);
    let out, rows =
      scan_and_gather st ~name ~scan_k ~gather_k ~staging ~counts ~grid
        ~schema:m.schema
    in
    ignore (keep out);
    (* post-launch input verification (see exec_fused) *)
    check_mat st m ~site:(name ^ "_input");
    (out, rows)
  in
  match with_capacity_retries st ~grow cfg attempt with
  | exception Fallback_needed ->
      exec_fallback_node st ~name ~op_id ~consumed_sources:[ source ]
  | out, rows ->
      publish st op_id ~schema:m.schema ~rows out;
      consume st [ source ]

let exec_aggregate st ~op_id ~source ~(lay : Ra_lib.Aggregate_emit.layout) =
  Weaver_obs.Trace.with_span st.run.trace ~lane:Weaver_obs.Trace.Host
    (Printf.sprintf "aggregate%d" op_id)
  @@ fun () ->
  let m = mat_of_source st source in
  ignore (upload st m);
  let cfg = config st in
  let name = Printf.sprintf "aggregate%d" op_id in
  let u = U_aggregate { op_id; source; lay } in
  (* the CTA table must fit shared memory; leave room for rounding *)
  let fit_cap =
    max 1
      (cfg.Config.device.Device.max_shared_mem_per_cta * 3 / 4
      / max 1 (Schema.tuple_bytes lay.Ra_lib.Aggregate_emit.partial_schema))
  in
  let grow (c : Config.t) ~which:_ ~segment:_ ~tries =
    let next = min (c.Config.max_groups * 2) fit_cap in
    if next <= c.Config.max_groups || tries >= cfg.Config.max_retries then
      raise Fallback_needed;
    { c with Config.max_groups = next }
  in
  let out_schema = lay.Ra_lib.Aggregate_emit.out_schema in
  let attempt (c : Config.t) ~scratch ~keep =
    let max_groups = c.Config.max_groups in
    let grid = clamp_grid ~rows:m.rows ~cap:(aggregate_slice cfg) in
    let partition, partial, final =
      match certify st ~op:op_id (unit_kernels c st.run.program.plan u) with
      | [ p; q; f ] -> (p, q, f)
      | _ -> assert false
    in
    let bounds =
      scratch
        (alloc_buf st ~label:(name ^ "_bounds") ~words:(grid + 1)
           ~bytes:(4 * (grid + 1)))
    in
    let staging =
      scratch
        (alloc_buf st ~label:(name ^ "_staging")
           ~words:
             (max 1
                (grid * max_groups
                * Schema.arity lay.Ra_lib.Aggregate_emit.partial_schema))
           ~bytes:
             (grid * max_groups
             * Schema.tuple_bytes lay.Ra_lib.Aggregate_emit.partial_schema))
    in
    let counts =
      scratch
        (alloc_buf st ~label:(name ^ "_counts") ~words:grid ~bytes:(4 * grid))
    in
    let out =
      keep
        (alloc_rel st ~label:(name ^ "_out") ~rows:max_groups
           ~schema:out_schema)
    in
    let out_count =
      scratch (alloc_buf st ~label:(name ^ "_outcount") ~words:1 ~bytes:4)
    in
    let buf = Option.get m.buf in
    ignore (launch st partition ~params:[| buf; m.rows; bounds |] ~grid ~cta:32);
    ignore
      (launch st partial
         ~params:[| buf; bounds; staging; counts |]
         ~grid ~cta:32);
    ignore
      (launch st final
         ~params:[| staging; counts; grid; out; out_count |]
         ~grid:1 ~cta:1);
    let rows = (Memory.data st.mem out_count).(0) in
    (* post-launch input verification (see exec_fused) *)
    check_mat st m ~site:(name ^ "_input");
    (out, rows)
  in
  match
    with_capacity_retries st ~grow
      { cfg with Config.max_groups = min cfg.Config.max_groups fit_cap }
      attempt
  with
  | exception Fallback_needed ->
      exec_fallback_node st ~name ~op_id ~consumed_sources:[ source ]
  | out, rows ->
  (* shrink the result to its actual size; [out] is unowned until the
     dense copy exists, so free it if the shrink allocation fails *)
  let dense =
    try alloc_rel st ~label:(name ^ "_dense") ~rows ~schema:out_schema
    with e ->
      Memory.free st.mem out;
      raise e
  in
  Array.blit (Memory.data st.mem out) 0 (Memory.data st.mem dense) 0
    (rows * Schema.arity out_schema);
  Memory.free st.mem out;
  publish st op_id ~schema:out_schema ~rows dense;
  consume st [ source ]

(* --- top level ------------------------------------------------------------ *)

(* End an attempt, on success and failure alike. First sweep every
   outstanding certificate mismatch while the buffers are still live: a
   flip that landed after its buffer's last verification — the one that
   killed the attempt, or a concurrent one — is counted exactly once,
   here (a completed run's outputs no longer depend on the device copy,
   so it stands rather than raising). Then release every device
   materialization, so a failed, cancelled or deadline-missed attempt
   leaves the simulated device empty. *)
let release st =
  if (config st).Config.integrity then
    st.run.corruptions <-
      st.run.corruptions + List.length (Memory.mismatches st.mem);
  Array.iter (free_device st) st.base_mats;
  Array.iter (Option.iter (free_device st)) st.node_mats

(* the run's metrics as of a released attempt; whatever is still live in
   its memory manager is a lifetime bug, surfaced as a leak *)
let collect st ~demotions ~rollbacks =
  let run = st.run and ck = st.run.ckpt in
  Metrics.collect ~reports:(List.rev run.reports) ~pcie:run.pcie
    ~peak_global_bytes:(Memory.peak_bytes st.mem) ~retries:run.retries
    ~fissions:run.fissions ~demotions
    ~faults_injected:(Fault_inject.injected run.faults)
    ~leaks:
      (List.map
         (fun (b, l) -> (l, Memory.bytes st.mem b))
         (Memory.live_buffers st.mem))
    ~corruptions:run.corruptions ~rollbacks ~checkpoints:ck.ck_taken
    ~checkpoint_hits:ck.ck_hits ~checkpoints_evicted:ck.ck_evicted
    ~replayed_cycles:run.replayed ~saved_replay_cycles:run.replay_spared
    ~counterfactuals:(List.rev run.counterfactuals) ()

(* One attempt on fresh device memory: restore what the checkpoint ledger
   holds, run every remaining unit, download the sinks. A fault comes back
   with the released attempt, whose memory the failure's metrics read. *)
let attempt run bases ~mode ~demotions ~rollbacks =
  let program = run.program and trace = run.trace and ckpt = run.ckpt in
  let st =
    {
      run;
      mem =
        Memory.create ~faults:run.faults ~trace program.config.Config.device;
      mode;
      restored = Hashtbl.create 8;
      base_mats =
        Array.map
          (fun r ->
            {
              schema = Relation.schema r;
              rows = Relation.count r;
              buf = None;
              host = Some r;
              remaining = 0;
            })
          bases;
      node_mats = Array.make (Plan.node_count program.plan) None;
      pending_extra = Hashtbl.create 8;
    }
  in
  let module T = Weaver_obs.Trace in
  let run_sp =
    if T.active trace then
      T.span trace ~lane:T.Host "run"
        ~args:
          [
            ( "mode",
              T.Str
                (match mode with
                | Resident -> "resident"
                | Streamed -> "streamed") );
          ]
    else T.no_span
  in
  match
    (* a non-positive deadline (or an already-fired token) fails the run
       before any work, including the base uploads *)
    check_budget run;
    (* Restore from the checkpoint ledger: a unit whose every output has
       a verified snapshot is skipped this attempt; its results come
       back as host-only mats, re-uploaded on demand. The two-pass shape
       matters: every restored op must be marked before any consumer
       count is computed, since counts filter skipped units. *)
    let ledgered = Hashtbl.create 8 in
    List.iter
      (fun (op_id, rel, _) -> Hashtbl.replace ledgered op_id rel)
      ckpt.ck_entries;
    List.iter
      (fun u ->
        let outs = unit_outputs u in
        if outs <> [] && List.for_all (Hashtbl.mem ledgered) outs then
          List.iter (fun op_id -> Hashtbl.replace st.restored op_id ()) outs)
      program.units;
    Hashtbl.iter
      (fun op_id () ->
        let rel = Hashtbl.find ledgered op_id in
        st.node_mats.(op_id) <-
          Some
            {
              schema = Relation.schema rel;
              rows = Relation.count rel;
              buf = None;
              host = Some rel;
              remaining = consumer_units_of st op_id;
            };
        ckpt.ck_hits <- ckpt.ck_hits + 1;
        T.instant trace ~lane:T.Host "checkpoint_hit"
          ~args:[ ("op", T.Int op_id) ])
      st.restored;
    (* base consumer counts (skip-aware: a restored unit reads nothing) *)
    Array.iteri
      (fun i (m : mat) -> m.remaining <- readers st (Plan.Base i))
      st.base_mats;
    (* In Resident mode, upload every base once up front (the paper's
       small-input protocol); Streamed uploads on demand. *)
    (match mode with
    | Resident -> Array.iter (fun m -> ignore (upload st m)) st.base_mats
    | Streamed -> ());
    List.iter
      (fun u ->
        if not (unit_skipped st u) then
          match u with
          | U_fused { name; ir } -> exec_fused st ~name ir
          | U_sort { op_id; key_arity; source } ->
              exec_sort st ~op_id ~key_arity ~source
          | U_unique { op_id; key_arity; source } ->
              exec_unique st ~op_id ~key_arity ~source
          | U_aggregate { op_id; source; lay } ->
              exec_aggregate st ~op_id ~source ~lay)
      program.units;
    List.map
      (fun id ->
        match st.node_mats.(id) with
        | Some m -> (id, download st m)
        | None -> exec_error "sink %d was never computed" id)
      (Plan.sinks program.plan)
  with
  | sinks ->
      release st;
      let metrics = collect st ~demotions ~rollbacks in
      (* per-operator ledger summary on its own trace lane, so the Chrome
         export carries the EXPLAIN ANALYZE view *)
      (if T.recording trace && program.config.Config.attrib then begin
         let module A = Weaver_obs.Attrib in
         let ledger = Metrics.attribution metrics in
         List.iter
           (fun (r : A.row) ->
             T.instant trace ~lane:T.Attrib
               (if r.A.op = A.overhead_op then "op:overhead"
                else Printf.sprintf "op:%d" r.A.op)
               ~args:
                 [
                   ("cycles", T.Float (A.cycles_of_units r.A.units));
                   ("roofline", T.Str (A.roofline_name (A.classify r)));
                   ("global_bytes", T.Int r.A.global_bytes);
                   ("launches", T.Int r.A.launches);
                 ])
           (A.rows ledger)
       end);
      T.close trace run_sp;
      Ok { sinks; metrics }
  | exception e -> (
      T.close trace run_sp;
      release st;
      match e with Fault.Error f -> Error (f, st) | e -> raise e)

let run_result ?(cancel = Cancel.none) ?(trace = Weaver_obs.Trace.none) program
    bases ~mode =
  if Array.length bases <> Plan.base_count program.plan then
    invalid_arg "Runtime.run: wrong number of base relations";
  Array.iteri
    (fun i r ->
      if not (Schema.equal (Relation.schema r) (Plan.base_schema program.plan i))
      then invalid_arg (Printf.sprintf "Runtime.run: base %d schema mismatch" i))
    bases;
  (* The wall-clock watchdog rides on the cancellation token so it is
     polled per CTA too, not only at host checkpoints. An explicit token
     from the caller is reused; otherwise deadline-bearing configs get a
     private one. The weaver layer owns the clock — gpu_sim stays free of
     Unix. *)
  let cancel =
    match program.config.Config.wall_deadline_s with
    | None -> cancel
    | Some limit ->
        let t = if cancel == Cancel.none then Cancel.create () else cancel in
        let t0 = Unix.gettimeofday () in
        Cancel.add_watchdog t (fun () ->
            let spent = Unix.gettimeofday () -. t0 in
            if spent > limit || limit <= 0.0 then
              Some
                (Fault.Deadline_exceeded
                   { kind = Fault.Deadline_wall; limit; spent })
            else None);
        t
  in
  let faults =
    match program.config.Config.faults with
    | Some spec -> Fault_inject.of_spec spec
    | None -> Fault_inject.of_env ()
  in
  (* One injector and one PCIe ledger span the whole run, demotion
     included: one-shot injected events do not refire on the demoted
     attempt, and every attempt's traffic stays charged. *)
  let run =
    {
      program;
      pcie = Pcie.create ~faults ~trace program.config.Config.device;
      faults;
      cancel;
      trace;
      ckpt =
        {
          ck_on = program.config.Config.checkpoint;
          ck_budget =
            int_of_float
              (program.config.Config.checkpoint_budget_frac
              *. float_of_int
                   program.config.Config.device.Device.global_mem_bytes);
          ck_entries = [];
          ck_bytes = 0;
          ck_taken = 0;
          ck_hits = 0;
          ck_evicted = 0;
          ck_last_spent = 0.0;
        };
      reports = [];
      kernel_cycles = 0.0;
      retries = 0;
      fissions = 0;
      budget_spent = 0;
      corruptions = 0;
      counterfactuals = [];
      replayed = 0.0;
      replay_spared = 0.0;
    }
  in
  let ckpt = run.ckpt in
  (* Policy order (see DESIGN.md "Fault model & recovery"): retries and
     fission already happened inside the attempt; what escapes here is a
     device OOM (demote a Resident run to Streamed and restart) or a
     genuinely unrecoverable fault (fail with a typed payload). *)
  let wrap ~attempts = function
    | ( Fault.Alloc_failure _ | Fault.Transfer_failure _
      | Fault.Capacity_trap _ | Fault.Data_corrupted _ ) as f ->
        Fault.Recovery_exhausted { attempts; last = f }
    | f -> f
  in
  (* First-cancel-wins (the documented race rule, see DESIGN.md §13): a
     cancellation that landed on the token before a fault surfaces here
     wins — the batch/CLI boundary reports Cancelled (exit 3), not the
     fault (exit 1). Only the already-set cell is consulted (no watchdog
     poll), so the decision is deterministic: it depends on what the run
     itself observed, never on a last-moment host-clock read. *)
  let surface f =
    match f with
    | Fault.Cancelled _ | Fault.Deadline_exceeded _ -> f
    | f -> ( match Cancel.cancelled cancel with Some c -> c | None -> f)
  in
  (* the faults the rollback rung is willing to absorb: transient
     infrastructure faults plus detected corruption. Deadline_exceeded,
     Cancelled and Budget_vetoed stay terminal by construction. *)
  let recoverable = function
    | Fault.Alloc_failure _ | Fault.Transfer_failure _ | Fault.Capacity_trap _
    | Fault.Data_corrupted _ ->
        true
    | _ -> false
  in
  (* The recovery drive loop. Ladder order per attempt outcome:
     1. rollback — resume from the checkpoint ledger (checkpointing on, the
        fault recoverable, and progress: past the free first rollback, the
        ledger must have grown since the last one, or replaying the same
        suffix would fail the same way forever);
     2. demotion — a Resident device OOM restarts Streamed (and still
        restores whatever the ledger holds);
     3. fail with a typed, attempt-counted fault.
     A restart passes the same recovery gate as an in-attempt retry; its
     estimate is what it is expected to re-spend — for a demotion the
     whole query so far, for a rollback only the suffix after the last
     verified checkpoint, which is the point of checkpointing. A veto or
     cancellation the gate raises fails the run as it is.
     Replay accounting: of the cycles the failed attempt burned, the part
     before the newest checkpoint is charged to [replay_spared] (the ledger
     saved re-spending it), the rest to [replayed]. *)
  let rec drive ~mode ~demotions ~rollbacks ~last_taken =
    let t0 = spent_cycles run in
    match attempt run bases ~mode ~demotions ~rollbacks with
    | Ok r -> Ok r
    | Error (f, st) -> (
        let lost = Float.max 0.0 (spent_cycles run -. t0) in
        let fail fault =
          Error
            {
              fault;
              partial = collect st ~demotions ~rollbacks;
              trail = Weaver_obs.Trace.trail trace;
            }
        in
        let restart ~action ~estimate k =
          match spend_recovery_token run ~action ~estimate with
          | () -> k ()
          | exception Fault.Error veto -> fail veto
        in
        let can_rollback =
          ckpt.ck_on && recoverable f
          && rollbacks < program.config.Config.max_retries
          && (rollbacks = 0 || ckpt.ck_taken > last_taken)
        in
        if can_rollback then begin
          let covered =
            Float.max 0.0 (Float.min lost (ckpt.ck_last_spent -. t0))
          in
          let suffix = lost -. covered in
          restart ~action:"rollback" ~estimate:suffix @@ fun () ->
          run.replayed <- run.replayed +. suffix;
          run.replay_spared <- run.replay_spared +. covered;
          Weaver_obs.Trace.instant trace ~lane:Weaver_obs.Trace.Host "rollback"
            ~args:
              [
                ( "restored",
                  Weaver_obs.Trace.Int (List.length ckpt.ck_entries) );
              ];
          drive ~mode ~demotions ~rollbacks:(rollbacks + 1)
            ~last_taken:ckpt.ck_taken
        end
        else
          match f with
          | Fault.Alloc_failure _ when mode = Resident ->
              restart ~action:"demotion" ~estimate:(spent_cycles run)
              @@ fun () ->
              run.replayed <- run.replayed +. lost;
              Weaver_obs.Trace.instant trace ~lane:Weaver_obs.Trace.Host
                "demotion";
              drive ~mode:Streamed ~demotions:(demotions + 1) ~rollbacks
                ~last_taken:ckpt.ck_taken
          | f -> fail (wrap ~attempts:(1 + demotions + rollbacks) (surface f)))
  in
  drive ~mode ~demotions:0 ~rollbacks:0 ~last_taken:0

let run ?cancel ?trace program bases ~mode =
  match run_result ?cancel ?trace program bases ~mode with
  | Ok r -> r
  | Error { fault; _ } -> raise (Execution_error fault)

let kernels_source program =
  let o = Optimizer.optimize program.opt in
  String.concat ""
    (List.concat_map
       (function
         | U_sort { op_id; _ } ->
             [
               Printf.sprintf "/* sort%d: modelled multi-pass merge sort */\n"
                 op_id;
             ]
         | u ->
             List.map
               (fun (k, _) -> Cuda_emit.kernel_source (o k))
               (unit_kernels program.config program.plan u))
       program.units)

let analyze_program program =
  List.concat_map
    (fun u ->
      List.map
        (fun (k, regions) -> analyze_kernel ~regions k)
        (unit_kernels program.config program.plan u))
    program.units
