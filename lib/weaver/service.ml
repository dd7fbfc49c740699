open Gpu_sim
open Relation_lib
open Qplan

(* --- requests ------------------------------------------------------------- *)

type deadline = { cycles : float option; wall_s : float option }

type request = {
  rid : int;
  program : Runtime.program;
  bases : Relation.t array;
  mode : Runtime.mode;
  deadline : deadline;
  cancel : Cancel.t option;
}

let request ?deadline_cycles ?wall_deadline_s ?cancel ?(mode = Runtime.Resident)
    ~rid program bases =
  {
    rid;
    program;
    bases;
    mode;
    deadline = { cycles = deadline_cycles; wall_s = wall_deadline_s };
    cancel;
  }

(* --- verdicts ------------------------------------------------------------- *)

type rejection =
  | Queue_full of { limit : int }
  | Over_capacity of { footprint_bytes : int; capacity_bytes : int }
  | Overloaded of { level : string }

type verdict =
  | Completed of Runtime.result
  | Failed of Runtime.failure
  | Rejected of rejection

type response = {
  rid : int;
  verdict : verdict;
  mode_used : Runtime.mode;
  pre_demoted : bool;
  hedged : bool;
  footprint_bytes : int;
  latency_cycles : float;
}

type config = {
  queue_limit : int;
  hedge_quantile : float option;
}

let default_config = { queue_limit = 16; hedge_quantile = None }

(* Fixed policy (DESIGN.md §9, §13): the Resident admission budget as a
   fraction of device memory, the completed executions the hedge quantile
   needs, and the degradation ladder's window, thresholds and hysteresis. *)
let admit_fraction = 0.5
let hedge_min_samples = 4
let brownout_window = 8
let brownout_threshold = 3
let shed_threshold = 6
let brownout_cooldown = 3

type stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  queue_rejections : int;
  capacity_rejections : int;
  shed_rejections : int;
  completed : int;
  failed : int;
  deadline_misses : int;
  cancelled : int;
  budget_vetoes : int;
  pre_demotions : int;
  runtime_demotions : int;
  hedges : int;
  hedge_wins : int;
  hedge_losses : int;
  brownout_entries : int;
  shed_entries : int;
  corruptions_detected : int;
  rollbacks : int;
  checkpoints_taken : int;
  p50_latency_cycles : float;
  p95_latency_cycles : float;
  total_cycles : float;
  throughput_qps : float;
  wall_seconds : float;
}

(* --- admission: footprint estimation --------------------------------------

   The admission gate reuses the planner's cardinality assumptions (the
   same join_expansion / max_groups knobs Layout budgets with) to bound a
   query's device-memory demand BEFORE running it. It deliberately
   over-approximates: joins are budgeted at full expansion, filters at
   unit selectivity — admission must be safe, not tight. *)

let estimate_node_rows cfg plan bases =
  let base_rows = Array.map Relation.count bases in
  let node_rows = Array.make (Plan.node_count plan) 0 in
  let rows_of = function
    | Plan.Base i -> base_rows.(i)
    | Plan.Node i -> node_rows.(i)
  in
  List.iter
    (fun (n : Plan.node) ->
      let r =
        match (n.Plan.kind, n.Plan.inputs) with
        | ( ( Op.Select _ | Op.Project _ | Op.Arith _ | Op.Sort _
            | Op.Unique _ ),
            [ s ] ) ->
            rows_of s
        | Op.Join _, [ l; r ] ->
            max (rows_of l) (rows_of r) * cfg.Config.join_expansion
        | (Op.Semijoin _ | Op.Antijoin _), [ l; _ ] -> rows_of l
        | (Op.Intersect _ | Op.Difference _), [ l; _ ] -> rows_of l
        | Op.Product, [ l; r ] -> rows_of l * rows_of r
        | Op.Union _, [ l; r ] -> rows_of l + rows_of r
        | Op.Aggregate _, [ s ] -> min (rows_of s) cfg.Config.max_groups
        | _, inputs -> List.fold_left (fun a s -> a + rows_of s) 0 inputs
      in
      node_rows.(n.Plan.id) <- max 1 r)
    (Plan.nodes plan);
  (base_rows, node_rows)

let bytes_of_source plan base_rows node_rows src =
  let rows =
    match src with
    | Plan.Base i -> base_rows.(i)
    | Plan.Node i -> node_rows.(i)
  in
  rows * Schema.tuple_bytes (Plan.schema_of plan src)

(* Resident: every base and every intermediate may be live at once (the
   runtime frees aggressively, but admission budgets the worst case).
   Streamed: only one unit's inputs and outputs are device-resident at a
   time — the footprint is the largest working set. *)
let footprints (program : Runtime.program) bases =
  let cfg = program.Runtime.config in
  let plan = program.Runtime.plan in
  let base_rows, node_rows = estimate_node_rows cfg plan bases in
  let bos = bytes_of_source plan base_rows node_rows in
  let resident =
    Array.to_list (Array.mapi (fun i _ -> bos (Plan.Base i)) bases)
    @ List.map (fun (n : Plan.node) -> bos (Plan.Node n.Plan.id)) (Plan.nodes plan)
    |> List.fold_left ( + ) 0
  in
  let unit_io u =
    List.fold_left (fun a s -> a + bos s) 0 (Runtime.unit_inputs u)
    + List.fold_left
        (fun a id -> a + bos (Plan.Node id))
        0 (Runtime.unit_outputs u)
  in
  let streamed =
    List.fold_left (fun a u -> max a (unit_io u)) 0 program.Runtime.units
  in
  (resident, streamed)

(* --- the brownout degradation ladder ---------------------------------------
   (DESIGN.md §13)

   A three-level controller watches system-wide pressure: a sliding
   window of the last [brownout_window] pressure marks, one per execution
   outcome (bad for a failure or a completion that only survived by
   demoting itself) plus one per deep-queue admission. Escalation is
   immediate; de-escalation has hysteresis, so the ladder never flaps:

     Normal   -- marks >= brownout_threshold --> Brownout
     any      -- marks >= shed_threshold     --> Shed

     Brownout -- brownout_cooldown consecutive within-deadline
                 completions --> Normal
     Shed     -- after brownout_cooldown shed admissions --> Brownout
                 (duty-cycle shedding: reject a burst, then probe again
                 in the degraded Brownout mode)

   Brownout forces every admitted query to Streamed (minimum-footprint
   execution), disables hedging (no speculative extra load) and turns
   checkpointing off. Shed rejects new work outright with a typed
   [Overloaded] verdict that costs zero device cycles — backpressure is
   an answer, not an error. *)

type level = Normal | Brownout | Shed

let level_name = function
  | Normal -> "normal"
  | Brownout -> "brownout"
  | Shed -> "shed"

let level_index = function Normal -> 0 | Brownout -> 1 | Shed -> 2

type controller = {
  mutable level : level;
  mutable marks : bool list;  (** newest first; [true] = pressure *)
  mutable good_streak : int;  (** consecutive clean completions *)
  mutable shed_left : int;  (** Shed: admissions left before probing *)
  mutable brownout_entries : int;
  mutable shed_entries : int;
  mutable transitions : int;  (** level changes in either direction *)
}

(* --- the ledger: statistics and the registry, from the responses ---------- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

(* the per-run metrics of an executed request, stamped by [run_batch] *)
let run_metrics (r : response) =
  match r.verdict with
  | Completed { Runtime.metrics = m; _ } | Failed { Runtime.partial = m; _ } ->
      Some m
  | Rejected _ -> None

let rejection_name = function
  | Queue_full _ -> "queue_full"
  | Over_capacity _ -> "over_capacity"
  | Overloaded _ -> "shed"

let no_stats =
  { submitted = 0; admitted = 0; rejected = 0; queue_rejections = 0;
    capacity_rejections = 0; shed_rejections = 0; completed = 0; failed = 0;
    deadline_misses = 0; cancelled = 0; budget_vetoes = 0; pre_demotions = 0;
    runtime_demotions = 0; hedges = 0; hedge_wins = 0; hedge_losses = 0;
    brownout_entries = 0; shed_entries = 0; corruptions_detected = 0;
    rollbacks = 0; checkpoints_taken = 0; p50_latency_cycles = 0.0;
    p95_latency_cycles = 0.0; total_cycles = 0.0; throughput_qps = 0.0;
    wall_seconds = 0.0 }

let tally s (r : response) =
  let b2i b = if b then 1 else 0 in
  let s = { s with submitted = s.submitted + 1 } in
  let executed (m : Metrics.t) =
    {
      s with
      admitted = s.admitted + 1;
      pre_demotions = s.pre_demotions + b2i r.pre_demoted;
      hedges = s.hedges + b2i r.hedged;
      runtime_demotions = s.runtime_demotions + m.Metrics.demotions;
      corruptions_detected = s.corruptions_detected + m.Metrics.corruptions;
      rollbacks = s.rollbacks + m.Metrics.rollbacks;
      checkpoints_taken = s.checkpoints_taken + m.Metrics.checkpoints;
    }
  in
  match r.verdict with
  | Rejected (Queue_full _) ->
      { s with rejected = s.rejected + 1; queue_rejections = s.queue_rejections + 1 }
  | Rejected (Over_capacity _) ->
      { s with rejected = s.rejected + 1; capacity_rejections = s.capacity_rejections + 1 }
  | Rejected (Overloaded _) ->
      { s with rejected = s.rejected + 1; shed_rejections = s.shed_rejections + 1 }
  | Completed res ->
      let s = executed res.Runtime.metrics in
      { s with completed = s.completed + 1; hedge_wins = s.hedge_wins + b2i r.hedged }
  | Failed f ->
      let s = executed f.Runtime.partial in
      (* a deadline-cost veto IS a deadline miss, just discovered before
         burning the cycles: it counts as both *)
      let miss, cancel, veto =
        match f.Runtime.fault with
        | Fault.Deadline_exceeded _ -> (1, 0, 0)
        | Fault.Cancelled _ -> (0, 1, 0)
        | Fault.Budget_vetoed { reason = Fault.Deadline_too_close _; _ } ->
            (1, 0, 1)
        | Fault.Budget_vetoed _ -> (0, 0, 1)
        | _ -> (0, 0, 0)
      in
      {
        s with
        failed = s.failed + 1;
        hedge_losses = s.hedge_losses + b2i r.hedged;
        deadline_misses = s.deadline_misses + miss;
        cancelled = s.cancelled + cancel;
        budget_vetoes = s.budget_vetoes + veto;
      }

(* One write of the batch into [reg]: every service counter (present even
   at zero, dashboards alert on absent series), the histograms sampled in
   execution order, and the gauges at their final values. *)
let fill_registry reg requests responses (s : stats) ctl =
  let module R = Weaver_obs.Registry in
  let module A = Weaver_obs.Attrib in
  R.pre_register reg;
  List.iter
    (fun (name, v) ->
      R.inc ~by:(float_of_int v) reg ("weaver_service_" ^ name ^ "_total"))
    [
      ("submitted", s.submitted);
      ("admitted", s.admitted);
      ("rejected", s.rejected);
      ("rejected_queue_full", s.queue_rejections);
      ("rejected_over_capacity", s.capacity_rejections);
      ("rejected_shed", s.shed_rejections);
      ("completed", s.completed);
      ("failed", s.failed);
      ("deadline_misses", s.deadline_misses);
      ("cancelled", s.cancelled);
      ("budget_vetoes", s.budget_vetoes);
      ("pre_demotions", s.pre_demotions);
      ("hedges", s.hedges);
      ("hedge_wins", s.hedge_wins);
      ("hedge_losses", s.hedge_losses);
      ("brownout_transitions", ctl.transitions);
      ("corruptions_detected", s.corruptions_detected);
      ("rollbacks", s.rollbacks);
      ("checkpoints", s.checkpoints_taken);
    ];
  (* one attribution series per plan operator (plus the overhead row),
     declared for every request so the scrape schema does not depend on
     which requests ran; each executed request lands one sample each *)
  let op_series op =
    R.labeled "weaver_op_cycles"
      [ ("op", if op = A.overhead_op then "overhead" else string_of_int op) ]
  in
  R.declare_histogram reg (op_series A.overhead_op);
  List.iter
    (fun (req : request) ->
      List.iter
        (fun (n : Plan.node) -> R.declare_histogram reg (op_series n.Plan.id))
        (Plan.nodes req.program.Runtime.plan))
    requests;
  List.iter
    (fun (r : response) ->
      Option.iter
        (fun (m : Metrics.t) ->
          R.observe reg "weaver_service_queue_wait_cycles"
            m.Metrics.queue_wait_cycles;
          (match r.verdict with
          | Completed _ ->
              R.observe reg "weaver_service_exec_cycles" (Metrics.total_cycles m);
              R.observe reg "weaver_service_latency_cycles" r.latency_cycles
          | Failed _ | Rejected _ -> ());
          List.iter
            (fun (row : A.row) ->
              R.observe reg (op_series row.A.op) (A.cycles_of_units row.A.units))
            (A.rows (Metrics.attribution m)))
        (run_metrics r))
    responses;
  let last_admitted =
    List.mapi (fun i r -> if Option.is_some (run_metrics r) then i else 0) responses
    |> List.fold_left max 0
  in
  R.set_gauge reg "weaver_service_queue_depth" (float_of_int last_admitted);
  R.set_gauge reg "weaver_service_brownout_level"
    (float_of_int (level_index ctl.level));
  R.set_gauge reg "weaver_service_throughput_qps" s.throughput_qps

(* --- the batch front end --------------------------------------------------- *)

let run_batch ?(config = default_config) ?(trace = Weaver_obs.Trace.none)
    ?registry requests =
  let module T = Weaver_obs.Trace in
  let t_wall0 = Unix.gettimeofday () in
  (* arrival time of the whole batch on the tracer's simulated clock; the
     runtime advances that clock as queries execute, so a request's
     Queue-lane span stretches from here to the moment it starts *)
  let t_arrival = T.cycles trace in
  (* the service clock: cumulative simulated cycles across the batch (one
     device, queries run back to back; arrival is t=0 for the whole batch,
     so a query's latency is the clock when it finishes). Hedge losers are
     charged here although no response carries their cycles. *)
  let clock = ref 0.0 in
  let sim_seconds = ref 0.0 in
  (* per-request execution costs of completed queries, for the hedging
     threshold: kept exactly so the hedge decision is bit-deterministic *)
  let exec_history = ref [] in
  let ctl =
    {
      level = Normal;
      marks = [];
      good_streak = 0;
      shed_left = 0;
      brownout_entries = 0;
      shed_entries = 0;
      transitions = 0;
    }
  in
  let set_level newl ~why =
    if newl <> ctl.level then begin
      (match newl with
      | Brownout -> ctl.brownout_entries <- ctl.brownout_entries + 1
      | Shed -> ctl.shed_entries <- ctl.shed_entries + 1
      | Normal -> ());
      ctl.transitions <- ctl.transitions + 1;
      T.instant trace ~lane:T.Service "brownout_level"
        ~args:
          [
            ("from", T.Str (level_name ctl.level));
            ("to", T.Str (level_name newl));
            ("why", T.Str why);
          ];
      ctl.level <- newl
    end
  in
  (* push one pressure mark and run the escalation rules *)
  let mark ~why bad =
    ctl.marks <-
      List.filteri (fun i _ -> i < brownout_window - 1) ctl.marks
      |> List.cons bad;
    if bad then ctl.good_streak <- 0
    else ctl.good_streak <- ctl.good_streak + 1;
    let score = List.length (List.filter Fun.id ctl.marks) in
    match ctl.level with
    | Shed -> ()
    | _ when score >= shed_threshold ->
        set_level Shed ~why;
        ctl.shed_left <- brownout_cooldown;
        ctl.marks <- []
    | Normal when score >= brownout_threshold -> set_level Brownout ~why
    | Brownout when (not bad) && ctl.good_streak >= brownout_cooldown ->
        set_level Normal ~why:"recovered";
        ctl.marks <- []
    | _ -> ()
  in
  let total_requests = List.length requests in
  let respond (r : request) verdict ~mode_used ~pre_demoted ~hedged
      ~footprint_bytes =
    {
      rid = r.rid;
      verdict;
      mode_used;
      pre_demoted;
      hedged;
      footprint_bytes;
      latency_cycles = !clock;
    }
  in
  let reject (r : request) why ~mode_used ~pre_demoted ~footprint_bytes =
    T.instant trace ~lane:T.Service "reject"
      ~args:[ ("rid", T.Int r.rid); ("why", T.Str (rejection_name why)) ];
    respond r (Rejected why) ~mode_used ~pre_demoted ~hedged:false
      ~footprint_bytes
  in
  let run_admitted (r : request) ~mode ~pre_demoted ~footprint_bytes =
    if pre_demoted then
      T.instant trace ~lane:T.Service "pre_demotion"
        ~args:[ ("rid", T.Int r.rid) ];
    (* per-request deadline overrides ride on the program config; a
       request without its own deadline keeps the program's *)
    let cfg0 = r.program.Runtime.config in
    let cfg1 =
      {
        cfg0 with
        Config.deadline_cycles =
          (if r.deadline.cycles = None then cfg0.Config.deadline_cycles
           else r.deadline.cycles);
        wall_deadline_s =
          (if r.deadline.wall_s = None then cfg0.Config.wall_deadline_s
           else r.deadline.wall_s);
        (* the degradation ladder sheds the checkpoint ledger's host-memory
           and PCIe cost before it sheds work *)
        checkpoint = ctl.level = Normal && cfg0.Config.checkpoint;
        (* the per-operator histograms need the attribution ledger; it is
           host-side bookkeeping only, so simulated cycles — and every
           admission/hedging decision derived from them — are unchanged
           with or without a registry *)
        attrib = cfg0.Config.attrib || Option.is_some registry;
      }
    in
    let cancel = Option.value r.cancel ~default:Cancel.none in
    let device = cfg1.Config.device in
    let charge cycles =
      clock := !clock +. cycles;
      sim_seconds := !sim_seconds +. Timing.cycles_to_seconds device cycles
    in
    (* Hedging (DESIGN.md §13): once enough completions exist, cap the
       primary attempt at the configured quantile of observed execution
       costs. A primary that outlives the cap is declared the loser — its
       token is cancelled (first-completion-wins bookkeeping on the
       existing Cancel machinery) — and a backup is issued as the
       minimum-footprint Streamed variant with whatever deadline budget
       remains. Deterministic: the cap compares simulated cycles, never
       the host clock. Disabled outside Normal (speculative extra load is
       the last thing a browned-out service needs). *)
    let dl = cfg1.Config.deadline_cycles in
    let hedge_cap =
      match (config.hedge_quantile, ctl.level) with
      | Some q, Normal when List.length !exec_history >= hedge_min_samples -> (
          let sorted = Array.of_list !exec_history in
          Array.sort Float.compare sorted;
          let h = percentile sorted (q *. 100.0) in
          if h <= 0.0 then None
          else
            match dl with
            | Some d when h >= d -> None (* real deadline fires first *)
            | _ -> Some h)
      | _ -> None
    in
    (* everything before this point was waiting behind earlier queries:
       one Queue-lane span from batch arrival to start *)
    let queue_wait_cycles = !clock in
    T.close trace
      (T.span trace ~lane:T.Queue ~start:t_arrival
         (Printf.sprintf "wait:rid%d" r.rid));
    (* even when the caller passed no tracer, run each query over a
       recorder-only tracer so a failure still carries its trail *)
    let rtrace = if T.active trace then trace else T.create ~events:false () in
    let ss = T.span trace ~lane:T.Service (Printf.sprintf "rid%d" r.rid) in
    let close_service verdict =
      let mode_name = if mode = Runtime.Resident then "resident" else "streamed" in
      T.close trace ss
        ~args:
          (if T.recording trace then
             [ ("verdict", T.Str verdict); ("mode", T.Str mode_name) ]
           else [])
    in
    let stamp (m : Metrics.t) =
      { m with Metrics.queue_wait_cycles; service = true }
    in
    let run_with ~cancel cfg mode =
      Runtime.run_result ~cancel ~trace:rtrace
        { r.program with Runtime.config = cfg }
        r.bases ~mode
    in
    (* the primary gets its own token when hedging is armed, so the loser
       can be cancelled without aborting the backup; the client's token is
       forwarded through a watchdog *)
    let pcancel =
      match hedge_cap with
      | None -> cancel
      | Some _ ->
          let t = Cancel.create () in
          Option.iter
            (fun client ->
              Cancel.add_watchdog t (fun () -> Cancel.cancelled client))
            r.cancel;
          t
    in
    let primary_cfg =
      match hedge_cap with
      | Some h -> { cfg1 with Config.deadline_cycles = Some h }
      | None -> cfg1
    in
    (* the primary outlived the hedge cap (not the real deadline — the cap
       is strictly smaller), or a recovery action it needed could not
       finish inside the cap *)
    let outlived h = function
      | Fault.Deadline_exceeded { kind = Fault.Deadline_cycles; limit; _ } ->
          limit = h
      | Fault.Budget_vetoed { reason = Fault.Deadline_too_close _; _ } -> true
      | _ -> false
    in
    let outcome =
      match (run_with ~cancel:pcancel primary_cfg mode, hedge_cap) with
      | Ok res, _ -> Ok (res, false)
      | Error pf, Some h when outlived h pf.Runtime.fault -> (
          (* declare the primary the loser, charge its cycles, issue the
             backup *)
          T.instant trace ~lane:T.Service "hedge_issue"
            ~args:[ ("rid", T.Int r.rid); ("cap_cycles", T.Float h) ];
          Cancel.cancel pcancel (Fault.Cancelled { reason = "hedge loser" });
          let spent = Metrics.total_cycles pf.Runtime.partial in
          charge spent;
          let backup_cfg =
            {
              cfg1 with
              Config.deadline_cycles = Option.map (fun d -> d -. spent) dl;
            }
          in
          match run_with ~cancel backup_cfg Runtime.Streamed with
          | Ok res ->
              T.instant trace ~lane:T.Service "hedge_win"
                ~args:[ ("rid", T.Int r.rid) ];
              Ok (res, true)
          | Error bf ->
              T.instant trace ~lane:T.Service "hedge_loss"
                ~args:[ ("rid", T.Int r.rid) ];
              Error (bf, true))
      | Error pf, _ -> Error (pf, false)
    in
    match outcome with
    | Ok (res, hedged) ->
        let res = { res with Runtime.metrics = stamp res.Runtime.metrics } in
        let cycles = Metrics.total_cycles res.Runtime.metrics in
        charge cycles;
        exec_history := cycles :: !exec_history;
        (* a run that only survived by demoting itself is memory pressure
           too *)
        if res.Runtime.metrics.Metrics.demotions > 0 then
          mark ~why:"demoted" true
        else mark ~why:"completed" false;
        close_service "completed";
        respond r (Completed res) ~mode_used:mode ~pre_demoted ~hedged
          ~footprint_bytes
    | Error (f, hedged) ->
        let f = { f with Runtime.partial = stamp f.Runtime.partial } in
        charge (Metrics.total_cycles f.Runtime.partial);
        (match f.Runtime.fault with
        | Fault.Deadline_exceeded _ ->
            T.instant trace ~lane:T.Service "deadline_miss"
              ~args:[ ("rid", T.Int r.rid) ]
        | Fault.Cancelled _ ->
            T.instant trace ~lane:T.Service "cancelled"
              ~args:[ ("rid", T.Int r.rid) ]
        | Fault.Budget_vetoed { action; _ } ->
            T.instant trace ~lane:T.Service "budget_veto"
              ~args:[ ("rid", T.Int r.rid); ("action", T.Str action) ]
        | _ -> ());
        mark ~why:"failed" true;
        close_service "failed";
        respond r (Failed f) ~mode_used:mode ~pre_demoted ~hedged
          ~footprint_bytes
  in
  let execute queue_index (r : request) =
    (* backpressure: one query is running, at most [queue_limit] wait *)
    if queue_index > config.queue_limit then
      reject r
        (Queue_full { limit = config.queue_limit })
        ~mode_used:r.mode ~pre_demoted:false ~footprint_bytes:0
    else begin
      (* a deep queue is pressure even before anything fails: feed the
         controller so sustained backlog browns the service out early *)
      let waiting = total_requests - queue_index - 1 in
      if waiting > config.queue_limit * 3 / 4 then mark ~why:"queue_depth" true;
      if ctl.level = Shed then begin
        (* the ladder's top rung: reject outright, zero cycles spent *)
        let resp =
          reject r
            (Overloaded { level = level_name Shed })
            ~mode_used:r.mode ~pre_demoted:false ~footprint_bytes:0
        in
        ctl.shed_left <- ctl.shed_left - 1;
        if ctl.shed_left <= 0 then begin
          (* probe again at the Brownout rung with a clean window *)
          ctl.marks <- [];
          ctl.good_streak <- 0;
          set_level Brownout ~why:"shed_probe"
        end;
        resp
      end
      else
        let resident_b, streamed_b = footprints r.program r.bases in
        let capacity =
          r.program.Runtime.config.Config.device.Device.global_mem_bytes
        in
        let budget = int_of_float (admit_fraction *. float_of_int capacity) in
        let mode, pre_demoted =
          match r.mode with
          | Runtime.Streamed -> (Runtime.Streamed, false)
          (* Brownout: every admission runs at minimum footprint *)
          | Runtime.Resident when resident_b > budget || ctl.level = Brownout ->
              (Runtime.Streamed, true)
          | Runtime.Resident -> (Runtime.Resident, false)
        in
        let footprint_bytes =
          match mode with
          | Runtime.Resident -> resident_b
          | Runtime.Streamed -> streamed_b
        in
        if streamed_b > capacity then
          (* not even one working set fits: no mode can run this *)
          reject r
            (Over_capacity
               { footprint_bytes = streamed_b; capacity_bytes = capacity })
            ~mode_used:mode ~pre_demoted ~footprint_bytes
        else run_admitted r ~mode ~pre_demoted ~footprint_bytes
    end
  in
  let responses = List.mapi execute requests in
  let latencies =
    Array.of_list
      (List.filter_map
         (fun r -> match r.verdict with Completed _ -> Some r.latency_cycles | _ -> None)
         responses)
  in
  Array.sort Float.compare latencies;
  let s = List.fold_left tally no_stats responses in
  let stats =
    {
      s with
      brownout_entries = ctl.brownout_entries;
      shed_entries = ctl.shed_entries;
      p50_latency_cycles = percentile latencies 50.0;
      p95_latency_cycles = percentile latencies 95.0;
      total_cycles = !clock;
      throughput_qps =
        (if !sim_seconds > 0.0 then float_of_int s.completed /. !sim_seconds
         else 0.0);
      wall_seconds = Unix.gettimeofday () -. t_wall0;
    }
  in
  Option.iter (fun reg -> fill_registry reg requests responses stats ctl) registry;
  (responses, stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>submitted %d: %d admitted (%d pre-demoted), %d rejected (%d queue, \
     %d capacity, %d shed)@ completed %d, failed %d (%d deadline misses, %d \
     cancelled, %d budget vetoes)@ demotions at run time: %d@ hedges: %d \
     issued, %d won, %d lost; brownouts: %d, sheds: %d@ \
     integrity: %d corruptions detected, %d rollbacks, %d checkpoints@ \
     latency cycles: p50 %.0f, p95 %.0f@ throughput: %.1f q/s over %.3e \
     simulated cycles (%.3f s wall)@]"
    s.submitted s.admitted s.pre_demotions s.rejected s.queue_rejections
    s.capacity_rejections s.shed_rejections s.completed s.failed
    s.deadline_misses s.cancelled s.budget_vetoes s.runtime_demotions
    s.hedges s.hedge_wins s.hedge_losses s.brownout_entries
    s.shed_entries s.corruptions_detected s.rollbacks s.checkpoints_taken
    s.p50_latency_cycles s.p95_latency_cycles s.throughput_qps
    s.total_cycles s.wall_seconds
