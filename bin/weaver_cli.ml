(* weaver-cli: drive Kernel Weaver from the command line.

   Subcommands:
     plan    <query.dl>             show the query plan and fusion groups
     source  <query.dl>             emit CUDA-style source of all kernels
     exec    <query.dl> [opts]      run a Datalog query (CSV or random data)
     profile <query.dl> [opts]      per-kernel time/traffic breakdown
     trace   [target ...] [opts]    run workloads under the tracer, emit
                                    Chrome trace JSON / Prometheus metrics
     bench   [experiment ...]       regenerate the paper's tables/figures *)

open Cmdliner
open Relation_lib

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- CSV relations --------------------------------------------------------- *)

let split_csv_line line =
  String.split_on_char ',' line |> List.map String.trim

let parse_value dt s =
  match (dt : Dtype.t) with
  | Dtype.I32 | Dtype.I64 | Dtype.Date -> int_of_string s
  | Dtype.F32 -> Value.of_f32 (float_of_string s)
  | Dtype.Bool -> Value.of_bool (bool_of_string s)

let load_csv schema path =
  let content = read_file path in
  let lines =
    String.split_on_char '\n' content
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Relation.empty schema
  | header :: rows ->
      let ar = Schema.arity schema in
      (* accept a header naming the attributes, or treat it as data *)
      let is_header =
        List.exists
          (fun cell -> match int_of_string_opt cell with None -> true | Some _ -> (
            match float_of_string_opt cell with None -> true | Some _ -> false))
          (split_csv_line header)
        && (try
              List.for_all2
                (fun cell i -> String.lowercase_ascii cell = String.lowercase_ascii (Schema.name schema i))
                (split_csv_line header)
                (List.init ar Fun.id)
            with Invalid_argument _ -> false)
      in
      let data_rows = if is_header then rows else header :: rows in
      let tuples =
        List.map
          (fun line ->
            let cells = split_csv_line line in
            if List.length cells <> ar then
              failwith (Printf.sprintf "%s: row with %d cells, expected %d" path (List.length cells) ar);
            Array.of_list
              (List.mapi (fun i c -> parse_value (Schema.dtype schema i) c) cells))
          data_rows
      in
      Relation.create schema tuples

let print_csv rel =
  let schema = Relation.schema rel in
  let ar = Schema.arity schema in
  print_endline
    (String.concat "," (List.init ar (fun i -> Schema.name schema i)));
  Relation.iter
    (fun tup ->
      print_endline
        (String.concat ","
           (List.init ar (fun i -> Value.to_string (Schema.dtype schema i) tup.(i)))))
    rel

(* --- shared arguments ------------------------------------------------------ *)

let query_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.dl"
         ~doc:"Datalog query file")

let rows_arg =
  Arg.(value & opt int 10_000 & info [ "rows" ] ~docv:"N"
         ~doc:"Rows generated for relations without CSV input")

let inputs_arg =
  Arg.(value & opt_all (pair ~sep:'=' string file) []
       & info [ "input"; "i" ] ~docv:"REL=FILE.csv"
           ~doc:"Bind a relation to a CSV file (repeatable)")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random data seed")

let fuse_arg =
  Arg.(value & flag & info [ "no-fuse" ] ~doc:"Disable kernel fusion")

let opt_arg =
  Arg.(value & flag & info [ "O0" ] ~doc:"Disable KIR optimization")

let no_analyze_arg =
  Arg.(value & flag & info [ "no-analyze" ]
         ~doc:"Skip the static-analysis gate on woven kernels")

let rewrite_arg =
  Arg.(value & flag & info [ "rewrite" ]
         ~doc:"Apply the plan rewriter (operator rescheduling) first")

let streamed_arg =
  Arg.(value & flag & info [ "streamed" ]
         ~doc:"Stream every operator's data over PCIe (large-input mode)")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains interpreting CTAs per kernel launch (1 = \
               sequential, 0 = one per recommended core). Results are \
               identical for any value; wall-clock is not.")

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault-injection schedule for the simulated device, e.g. \
                 $(b,alloc@2,launch@4) or $(b,seed@7x3) (see \
                 Gpu_sim.Fault_inject). Overrides the WEAVER_FAULTS \
                 environment variable.")

let no_integrity_arg =
  Arg.(value & flag & info [ "no-integrity" ]
         ~doc:"Disable integrity-certificate verification. Certificates \
               are still recorded at PCIe boundaries and segment outputs, \
               but mismatches (e.g. injected bit flips) go undetected.")

let checkpoint_arg =
  Arg.(value & flag & info [ "checkpoint" ]
         ~doc:"Snapshot verified segment outputs into a host-side ledger \
               so recovery can roll back to the last checkpoint and replay \
               only the suffix instead of restarting the whole query")

let ckpt_frac_arg =
  Arg.(value
       & opt float Weaver.Config.default.Weaver.Config.checkpoint_budget_frac
       & info [ "checkpoint-budget-frac" ] ~docv:"F"
           ~doc:"Checkpoint-ledger budget as a fraction of device memory; \
                 the oldest entries are evicted once the ledger outgrows it")

let flight_ring_arg =
  Arg.(value & opt int 32
       & info [ "flight-ring" ] ~docv:"N"
           ~doc:"Flight-recorder ring size: how many recent spans/instants \
                 a fault report can replay (0 disables the recorder)")

let config_of_jobs jobs = Weaver.Config.with_jobs Weaver.Config.default jobs

(* Exit codes (documented in README "Exit codes"):
     0  success (including service rejections: backpressure is an answer)
     1  unrecoverable runtime fault (recovery exhausted, compiler bug)
     2  usage or parse error (bad flags, malformed --faults spec, bad CSV)
     3  deadline miss or cancellation
     4  data corruption (an integrity certificate mismatched and recovery
        could not mask it) *)
let exit_fault = 1
let exit_usage = 2
let exit_deadline = 3
let exit_corrupt = 4

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "weaver-cli: %s\n" msg;
      exit exit_usage)
    fmt

let faults_usage =
  "usage: site@N[xC][:KIND], site@N..M[:KIND], site%P[@N..M][:KIND], \
   rseed@S or seed@S[xC], comma-separated — sites alloc|launch|transfer, \
   kinds staging|input|groups|flip, 0 < P <= 1 (e.g. \
   'launch@3x2:groups,alloc@5' or 'rseed@7,launch%0.05:flip')"

let is_faults_spec_error msg =
  String.length msg >= 13 && String.sub msg 0 13 = "WEAVER_FAULTS"

let config_of jobs faults =
  (* validate the injection spec at the CLI boundary: a typo should be a
     one-line usage error (exit 2), not a backtrace from deep inside a run *)
  (match faults with
  | Some spec -> (
      try ignore (Gpu_sim.Fault_inject.of_spec spec)
      with Invalid_argument msg -> usage_error "%s\n  %s" msg faults_usage)
  | None -> ());
  { (config_of_jobs jobs) with Weaver.Config.faults }

let with_integrity cfg ~no_integrity ~checkpoint ~ckpt_frac =
  if ckpt_frac <= 0.0 || ckpt_frac > 1.0 then
    usage_error "bad --checkpoint-budget-frac %g (want 0 < F <= 1)" ckpt_frac;
  {
    cfg with
    Weaver.Config.integrity = not no_integrity;
    checkpoint;
    checkpoint_budget_frac = ckpt_frac;
  }

let trail_suffix = function
  | [] -> ""
  | t -> Printf.sprintf " (recent: %s)" (String.concat "; " t)

(* Which exit code a surfaced fault maps to. A deadline-cost veto is a
   deadline miss discovered early; a corruption that recovery could not
   mask — bare or as the last fault of an exhausted recovery — gets its
   own code so storm harnesses can tell silent-data-corruption defenses
   fired from ordinary hard faults. *)
let fault_exit = function
  | Gpu_sim.Fault.Deadline_exceeded _ | Gpu_sim.Fault.Cancelled _
  | Gpu_sim.Fault.Budget_vetoed
      { reason = Gpu_sim.Fault.Deadline_too_close _; _ } ->
      exit_deadline
  | Gpu_sim.Fault.Data_corrupted _
  | Gpu_sim.Fault.Recovery_exhausted
      { last = Gpu_sim.Fault.Data_corrupted _; _ } ->
      exit_corrupt
  | _ -> exit_fault

(* Command boundary: anything the recovery policies could not absorb
   surfaces here as a typed fault; render it once — with the flight
   recorder's last few spans when a tracer saw the run — and exit
   nonzero. *)
let guard ?recorder f =
  try f () with
  | Weaver.Runtime.Execution_error fault | Gpu_sim.Fault.Error fault ->
      let trail =
        match recorder with
        | Some tr -> (
            match Weaver_obs.Trace.trail tr with
            | [] -> ""
            | ts ->
                Printf.sprintf " (recent, flight ring %d: %s)"
                  (Weaver_obs.Trace.ring_capacity tr)
                  (String.concat "; " ts))
        | None -> ""
      in
      Printf.eprintf "weaver-cli: %s%s\n" (Gpu_sim.Fault.render fault) trail;
      exit (fault_exit fault)
  | Invalid_argument msg when is_faults_spec_error msg ->
      (* a malformed WEAVER_FAULTS environment spec parsed mid-run *)
      usage_error "%s\n  %s" msg faults_usage
  | Invalid_argument msg | Failure msg -> usage_error "%s" msg

let compile_query path = Datalog.compile (read_file path)

let bind_data q ~rows ~seed inputs =
  List.mapi
    (fun i name ->
      let schema = Qplan.Plan.base_schema q.Datalog.plan i in
      match List.assoc_opt name inputs with
      | Some csv -> (name, load_csv schema csv)
      | None ->
          let st = Generator.make_state (seed + i) in
          ( name,
            Generator.random_relation ~sorted_key_arity:1 st schema ~count:rows
          ))
    q.Datalog.base_names

(* --- plan ------------------------------------------------------------------ *)

let maybe_rewrite rw plan = if rw then Qplan.Rewrite.optimize plan else plan

let plan_cmd =
  let run path rw =
    guard (fun () ->
        let q = compile_query path in
        let plan = maybe_rewrite rw q.Datalog.plan in
        Format.printf "%a@." Qplan.Plan.pp plan;
        let program = Weaver.Driver.compile plan in
        print_string (Weaver.Driver.group_summary program);
        `Ok ())
  in
  Cmd.v (Cmd.info "plan" ~doc:"Show the query plan and chosen fusion groups")
    Term.(ret (const run $ query_arg $ rewrite_arg))

(* --- source ---------------------------------------------------------------- *)

let source_cmd =
  let run path no_fuse o0 =
    guard (fun () ->
        let q = compile_query path in
        let program =
          Weaver.Driver.compile ~fuse:(not no_fuse)
            ~opt:(if o0 then Weaver.Optimizer.O0 else Weaver.Optimizer.O3)
            q.Datalog.plan
        in
        print_string (Weaver.Runtime.kernels_source program);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Emit CUDA-style source for all generated kernels")
    Term.(ret (const run $ query_arg $ fuse_arg $ opt_arg))

(* --- exec ------------------------------------------------------------------ *)

let exec_cmd =
  let run path rows inputs seed no_fuse o0 no_analyze streamed jobs faults
      no_integrity checkpoint ckpt_frac flight_ring =
    if flight_ring < 0 then
      usage_error "bad --flight-ring %d (want N >= 0)" flight_ring;
    (* a recorder-only tracer (no event retention) so an unrecoverable
       fault's report carries the last few things the runtime did *)
    let recorder = Weaver_obs.Trace.create ~ring:flight_ring ~events:false () in
    guard ~recorder (fun () ->
        let q = compile_query path in
        let named = bind_data q ~rows ~seed inputs in
        let bases = Datalog.bind q named in
        let config =
          with_integrity ~no_integrity ~checkpoint ~ckpt_frac
            { (config_of jobs faults) with
              Weaver.Config.analyze = not no_analyze
            }
        in
        let program =
          Weaver.Driver.compile ~config ~fuse:(not no_fuse)
            ~opt:(if o0 then Weaver.Optimizer.O0 else Weaver.Optimizer.O3)
            q.Datalog.plan
        in
        let mode =
          if streamed then Weaver.Runtime.Streamed else Weaver.Runtime.Resident
        in
        let result = Weaver.Driver.run ~trace:recorder program bases ~mode in
        let outputs = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
        List.iter
          (fun (name, rel) ->
            Printf.printf "-- %s (%d tuples)\n" name (Relation.count rel);
            print_csv rel)
          outputs;
        Format.printf "@.%a@." Weaver.Metrics.pp result.Weaver.Runtime.metrics;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Execute a Datalog query on the simulated GPU and print results")
    Term.(
      ret
        (const run $ query_arg $ rows_arg $ inputs_arg $ seed_arg $ fuse_arg
       $ opt_arg $ no_analyze_arg $ streamed_arg $ jobs_arg $ faults_arg
       $ no_integrity_arg $ checkpoint_arg $ ckpt_frac_arg $ flight_ring_arg))

(* --- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let run path rows inputs seed no_fuse o0 jobs faults flight_ring =
    if flight_ring < 0 then
      usage_error "bad --flight-ring %d (want N >= 0)" flight_ring;
    let recorder = Weaver_obs.Trace.create ~ring:flight_ring ~events:false () in
    guard ~recorder (fun () ->
        let q = compile_query path in
        let named = bind_data q ~rows ~seed inputs in
        let bases = Datalog.bind q named in
        let program =
          Weaver.Driver.compile ~config:(config_of jobs faults)
            ~fuse:(not no_fuse)
            ~opt:(if o0 then Weaver.Optimizer.O0 else Weaver.Optimizer.O3)
            q.Datalog.plan
        in
        let result =
          Weaver.Driver.run ~trace:recorder program bases
            ~mode:Weaver.Runtime.Resident
        in
        let m = result.Weaver.Runtime.metrics in
        let total = m.Weaver.Metrics.kernel_cycles in
        Printf.printf "%-32s %8s %12s %7s %12s %12s\n" "kernel" "launches"
          "cycles" "share" "instructions" "global bytes";
        List.iter
          (fun (name, n, cycles, (s : Gpu_sim.Stats.t)) ->
            Printf.printf "%-32s %8d %12.3e %6.1f%% %12d %12d\n" name n cycles
              (100.0 *. cycles /. total)
              s.Gpu_sim.Stats.instructions
              (Gpu_sim.Stats.global_bytes s))
          (Weaver.Metrics.by_kernel m);
        Printf.printf
          "\ntotal: %.3e cycles over %d launches (%d retries, %d fissions, \
           %d demotions)\n"
          total m.Weaver.Metrics.launches m.Weaver.Metrics.retries
          m.Weaver.Metrics.fissions m.Weaver.Metrics.demotions;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a query and print a per-kernel time/traffic breakdown")
    Term.(
      ret
        (const run $ query_arg $ rows_arg $ inputs_arg $ seed_arg $ fuse_arg
       $ opt_arg $ jobs_arg $ faults_arg $ flight_ring_arg))

(* --- bench ------------------------------------------------------------------ *)

let bench_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:
             "table2 fig4 fig16 fig17 fig18 fig19 fig20 fig21 table3 q1 q21 \
              analysis")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced problem sizes")
  in
  let run names quick jobs =
    guard (fun () ->
        let jobs = (config_of_jobs jobs).Weaver.Config.jobs in
        let wanted =
          match Harness.Experiments.select ~quick ~jobs names with
          | Ok wanted -> wanted
          | Error msg -> usage_error "%s" msg
        in
        List.iter
          (fun (name, o) ->
            Printf.printf "[%s]\n" name;
            Harness.Report.print (o ()))
          wanted;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(ret (const run $ names_arg $ quick_arg $ jobs_arg))

(* --- golden workloads -------------------------------------------------------
   The fusion-pattern goldens plus the two TPC-H queries, each with its
   input generator: analyze reads the plans, trace and explain run them. *)

let golden_workloads name =
  let pat (w : Tpch.Patterns.workload) =
    [ (w.name, w.plan, fun ~rows ~seed -> w.gen ~seed ~rows) ]
  in
  let query (q : Tpch.Queries.query) =
    let gen ~rows ~seed =
      q.bind (Tpch.Datagen.generate ~seed ~lineitems:rows)
    in
    [ (q.qname, q.plan, gen) ]
  in
  match name with
  | "a" -> Some (pat (Tpch.Patterns.pattern_a ()))
  | "b" -> Some (pat (Tpch.Patterns.pattern_b ()))
  | "c" -> Some (pat (Tpch.Patterns.pattern_c ()))
  | "d" -> Some (pat (Tpch.Patterns.pattern_d ()))
  | "e" -> Some (pat (Tpch.Patterns.pattern_e ()))
  | "ab" -> Some (pat (Tpch.Patterns.pattern_ab ()))
  | "q1" -> Some (query Tpch.Queries.q1)
  | "q21" -> Some (query Tpch.Queries.q21)
  | "all" ->
      Some
        (List.concat_map pat
           (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
        @ query Tpch.Queries.q1 @ query Tpch.Queries.q21)
  | _ -> None

(* --- analyze ---------------------------------------------------------------- *)

let analyze_cmd =
  let targets_arg =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"TARGET"
           ~doc:"Datalog query files (*.dl) or built-in golden workloads: \
                 $(b,a b c d e ab q1 q21), or $(b,all) for the whole golden \
                 set (the default)")
  in
  let run targets no_fuse =
    guard (fun () ->
        let plans =
          List.concat_map
            (fun t ->
              match golden_workloads t with
              | Some ws -> List.map (fun (name, plan, _) -> (name, plan)) ws
              | None when Sys.file_exists t ->
                  [ (Filename.basename t, (compile_query t).Datalog.plan) ]
              | None ->
                  usage_error
                    "unknown target '%s' (not a built-in workload or an \
                     existing .dl file)"
                    t)
            targets
        in
        let gating = ref 0 in
        print_endline "[";
        List.iteri
          (fun i (name, plan) ->
            if i > 0 then print_endline "  ,";
            let program = Weaver.Driver.compile ~fuse:(not no_fuse) plan in
            let reports = Weaver.Runtime.analyze_program program in
            Printf.printf "  {\"query\": \"%s\", \"kernels\": [\n" name;
            List.iteri
              (fun j r ->
                gating :=
                  !gating + List.length (Weaver_analysis.Analysis.gating r);
                Printf.printf "    %s%s\n"
                  (Weaver_analysis.Analysis.report_json r)
                  (if j < List.length reports - 1 then "," else ""))
              reports;
            print_endline "  ]}")
          plans;
        print_endline "]";
        if !gating > 0 then begin
          Printf.eprintf
            "weaver-cli: static analysis found %d gating diagnostic%s\n"
            !gating
            (if !gating = 1 then "" else "s");
          exit exit_fault
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static-analysis suite (barrier divergence, shared-memory \
          races, resource certification, def-use hygiene) over every woven \
          kernel and print JSON diagnostics; exits 1 on any error or warning")
    Term.(ret (const run $ targets_arg $ fuse_arg))

let resolve_workloads ~rows ~seed ~inputs targets =
  List.concat_map
    (fun t ->
      match golden_workloads t with
      | Some ws ->
          List.map (fun (name, plan, gen) -> (name, plan, gen ~rows ~seed)) ws
      | None when Sys.file_exists t ->
          let q = compile_query t in
          let named = bind_data q ~rows ~seed inputs in
          [ (Filename.basename t, q.Datalog.plan, Datalog.bind q named) ]
      | None ->
          usage_error
            "unknown target '%s' (not a built-in workload or an existing \
             .dl file)"
            t)
    targets

(* --- explain ----------------------------------------------------------------

   EXPLAIN ANALYZE for the simulated device: run the workload with the
   attribution ledger on, then render the plan tree and a per-operator
   table — attributed cycles, share, roofline class, memory traffic —
   plus the fusion counterfactual (what materializing each fused group's
   internal edges would have cost). *)

let json_str s = "\"" ^ Weaver_obs.Json.escape s ^ "\""

let explain_cmd =
  let module A = Weaver_obs.Attrib in
  let targets_arg =
    Arg.(value & pos_all string [ "q1" ] & info [] ~docv:"TARGET"
           ~doc:"Datalog query files (*.dl) or built-in golden workloads: \
                 $(b,a b c d e ab q1 q21), or $(b,all) (default: $(b,q1))")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the per-operator attribution report as JSON")
  in
  let op_name plan op =
    if op = A.overhead_op then "overhead"
    else if op >= 0 && op < Qplan.Plan.node_count plan then
      Qplan.Op.name (Qplan.Plan.node plan op).Qplan.Plan.kind
    else string_of_int op
  in
  let render_text name plan (m : Weaver.Metrics.t) =
    let a = Weaver.Metrics.attribution m in
    let rows = A.rows a in
    let total = A.fold_cycles a in
    Printf.printf "-- %s\n" name;
    Format.printf "%a@." Qplan.Plan.pp plan;
    Printf.printf "%4s  %-12s %8s %12s %7s  %-15s %12s\n" "op" "operator"
      "launches" "cycles" "share" "roofline" "global bytes";
    List.iter
      (fun (r : A.row) ->
        let cycles = A.cycles_of_units r.A.units in
        Printf.printf "%4s  %-12s %8d %12.3e %6.1f%%  %-15s %12d\n"
          (if r.A.op = A.overhead_op then "-" else string_of_int r.A.op)
          (op_name plan r.A.op) r.A.launches cycles
          (if total > 0.0 then 100.0 *. cycles /. total else 0.0)
          (A.roofline_name (A.classify r))
          r.A.global_bytes)
      rows;
    Printf.printf
      "attributed %.6e of %.6e kernel cycles (conservation: %s)\n" total
      m.Weaver.Metrics.kernel_cycles
      (if A.conserved a && total = m.Weaver.Metrics.kernel_cycles then
         "exact"
       else "VIOLATED");
    (match m.Weaver.Metrics.counterfactuals with
    | [] -> ()
    | cfs ->
        print_endline "fusion counterfactual (unfused materialization):";
        List.iter
          (fun (cf : A.counterfactual) ->
            Printf.printf
              "  group %s (ops %s): %d internal edges, ~%d rows, %d \
               intermediate bytes, %d PCIe round-trips avoided\n"
              cf.A.cf_group
              (String.concat "," (List.map string_of_int cf.A.cf_ops))
              cf.A.cf_edges cf.A.cf_rows cf.A.cf_bytes cf.A.cf_round_trips)
          cfs;
        Printf.printf "  total avoided: %d intermediate bytes, %d PCIe \
                       round-trips\n"
          (List.fold_left (fun acc (cf : A.counterfactual) ->
               acc + cf.A.cf_bytes) 0 cfs)
          (List.fold_left (fun acc (cf : A.counterfactual) ->
               acc + cf.A.cf_round_trips) 0 cfs));
    print_newline ()
  in
  let render_json name plan (m : Weaver.Metrics.t) =
    let a = Weaver.Metrics.attribution m in
    let total = A.fold_cycles a in
    let op_obj (r : A.row) =
      let cycles = A.cycles_of_units r.A.units in
      Printf.sprintf
        "{\"op\": %d, \"operator\": %s, \"launches\": %d, \"cycles\": \
         %.6e, \"share\": %.6f, \"roofline\": %s, \"instructions\": %d, \
         \"global_bytes\": %d, \"shared_accesses\": %d, \"atomics\": %d, \
         \"barriers\": %d}"
        r.A.op
        (json_str (op_name plan r.A.op))
        r.A.launches cycles
        (if total > 0.0 then cycles /. total else 0.0)
        (json_str (A.roofline_name (A.classify r)))
        r.A.instructions r.A.global_bytes r.A.shared_accesses r.A.atomics
        r.A.barriers
    in
    let cf_obj (cf : A.counterfactual) =
      Printf.sprintf
        "{\"group\": %s, \"ops\": [%s], \"edges\": %d, \"rows\": %d, \
         \"intermediate_bytes\": %d, \"pcie_round_trips\": %d}"
        (json_str cf.A.cf_group)
        (String.concat ", " (List.map string_of_int cf.A.cf_ops))
        cf.A.cf_edges cf.A.cf_rows cf.A.cf_bytes cf.A.cf_round_trips
    in
    let cfs = m.Weaver.Metrics.counterfactuals in
    Printf.sprintf
      "{\"query\": %s,\n   \"kernel_cycles\": %.6e,\n   \
       \"attributed_cycles\": %.6e,\n   \"conserved\": %b,\n   \
       \"operators\": [\n     %s\n   ],\n   \"counterfactuals\": [\n     \
       %s\n   ],\n   \"avoided_intermediate_bytes\": %d,\n   \
       \"avoided_pcie_round_trips\": %d}"
      (json_str name) m.Weaver.Metrics.kernel_cycles total
      (A.conserved a && total = m.Weaver.Metrics.kernel_cycles)
      (String.concat ",\n     " (List.map op_obj (A.rows a)))
      (String.concat ",\n     " (List.map cf_obj cfs))
      (List.fold_left (fun acc (cf : A.counterfactual) -> acc + cf.A.cf_bytes)
         0 cfs)
      (List.fold_left (fun acc (cf : A.counterfactual) ->
           acc + cf.A.cf_round_trips)
         0 cfs)
  in
  let run targets rows inputs seed no_fuse o0 streamed jobs faults json =
    guard (fun () ->
        let workloads = resolve_workloads ~rows ~seed ~inputs targets in
        let config =
          { (config_of jobs faults) with Weaver.Config.attrib = true }
        in
        let mode =
          if streamed then Weaver.Runtime.Streamed else Weaver.Runtime.Resident
        in
        let reports =
          List.map
            (fun (name, plan, bases) ->
              let program =
                Weaver.Driver.compile ~config ~fuse:(not no_fuse)
                  ~opt:(if o0 then Weaver.Optimizer.O0 else Weaver.Optimizer.O3)
                  plan
              in
              let result = Weaver.Driver.run program bases ~mode in
              (name, plan, result.Weaver.Runtime.metrics))
            workloads
        in
        if json then begin
          print_endline "[";
          List.iteri
            (fun i (name, plan, m) ->
              Printf.printf "  %s%s\n" (render_json name plan m)
                (if i < List.length reports - 1 then "," else ""))
            reports;
          print_endline "]"
        end
        else
          List.iter (fun (name, plan, m) -> render_text name plan m) reports;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "EXPLAIN ANALYZE: run a workload with operator-level cost \
          attribution and print the plan plus per-operator cycles, \
          roofline class, memory traffic and the fusion counterfactual \
          (intermediate bytes and PCIe round-trips fusion avoided)")
    Term.(
      ret
        (const run $ targets_arg $ rows_arg $ inputs_arg $ seed_arg $ fuse_arg
       $ opt_arg $ streamed_arg $ jobs_arg $ faults_arg $ json_arg))

(* --- trace ------------------------------------------------------------------ *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the Chrome trace-event JSON here (load it in \
                 chrome://tracing or https://ui.perfetto.dev). Default: \
                 standard output.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a Prometheus text-exposition metrics dump here")

(* Lane filtering: the CSV names match Trace.lane_name; "worker" selects
   every per-worker wall lane at once. *)
let known_lanes =
  [ "driver"; "analysis"; "runtime"; "kernel"; "pcie"; "memory"; "queue";
    "service"; "attrib"; "worker" ]

let lanes_arg =
  Arg.(value & opt (some string) None
       & info [ "lanes" ] ~docv:"CSV"
           ~doc:"Keep only these timeline lanes in the export \
                 (comma-separated): $(b,driver analysis runtime kernel pcie \
                 memory queue service attrib worker)")

let lane_filter spec =
  match spec with
  | None -> fun _ -> true
  | Some s ->
      let wanted =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun w -> w <> "")
      in
      if wanted = [] then usage_error "empty --lanes filter";
      List.iter
        (fun w ->
          if not (List.mem w known_lanes) then
            usage_error "unknown lane '%s' (want one of: %s)" w
              (String.concat " " known_lanes))
        wanted;
      fun lane ->
        let n = Weaver_obs.Trace.lane_name lane in
        List.exists
          (fun w ->
            w = n
            || (w = "worker" && String.length n > 6
                && String.sub n 0 6 = "worker"))
          wanted

(* Per-lane span/instant counts of the (filtered) trace, one stderr line
   per lane in lane order, so --lanes users can see what each lane holds
   before opening the JSON in a viewer. *)
let lane_summary trace keep =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (e : Weaver_obs.Trace.event) ->
      if keep e.Weaver_obs.Trace.lane then begin
        let key = Weaver_obs.Trace.lane_name e.Weaver_obs.Trace.lane in
        (* a lane whose first event is a counter still gets its line *)
        if not (Hashtbl.mem tbl key) then begin
          order := key :: !order;
          Hashtbl.replace tbl key (0, 0)
        end;
        let spans, instants =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key)
        in
        match e.Weaver_obs.Trace.kind with
        | Weaver_obs.Trace.Span | Weaver_obs.Trace.Wall ->
            Hashtbl.replace tbl key (spans + 1, instants)
        | Weaver_obs.Trace.Instant ->
            Hashtbl.replace tbl key (spans, instants + 1)
        | Weaver_obs.Trace.Counter -> ()
      end)
    (Weaver_obs.Trace.events trace);
  List.iter
    (fun key ->
      let spans, instants = Hashtbl.find tbl key in
      Printf.eprintf "weaver-cli: lane %-8s %5d spans, %5d instants\n" key
        spans instants)
    (List.rev !order)

let trace_cmd =
  let targets_arg =
    Arg.(value & pos_all string [ "q1" ] & info [] ~docv:"TARGET"
           ~doc:"Datalog query files (*.dl) or built-in golden workloads: \
                 $(b,a b c d e ab q1 q21), or $(b,all) (default: $(b,q1))")
  in
  let wall_arg =
    Arg.(value & flag & info [ "wall" ]
           ~doc:"Include wall-clock worker lanes in the export (these are \
                 scheduling-dependent, so the JSON is no longer \
                 byte-reproducible across --jobs settings)")
  in
  let run targets rows inputs seed no_fuse o0 streamed jobs faults
      no_integrity checkpoint ckpt_frac wall trace_out metrics_out lanes
      flight_ring =
    if flight_ring < 0 then
      usage_error "bad --flight-ring %d (want N >= 0)" flight_ring;
    let keep = lane_filter lanes in
    (* the full tracer: events retained for export, wall clock attached so
       worker lanes exist when --wall asks for them *)
    let trace =
      Weaver_obs.Trace.create ~clock:Unix.gettimeofday ~ring:flight_ring ()
    in
    guard ~recorder:trace (fun () ->
        let workloads = resolve_workloads ~rows ~seed ~inputs targets in
        let config =
          with_integrity ~no_integrity ~checkpoint ~ckpt_frac
            (config_of jobs faults)
        in
        let mode =
          if streamed then Weaver.Runtime.Streamed else Weaver.Runtime.Resident
        in
        let failures = ref [] in
        List.iter
          (fun (name, plan, bases) ->
            let program =
              Weaver.Driver.compile ~config ~fuse:(not no_fuse)
                ~opt:(if o0 then Weaver.Optimizer.O0 else Weaver.Optimizer.O3)
                ~trace plan
            in
            match Weaver.Runtime.run_result ~trace program bases ~mode with
            | Ok res ->
                Printf.eprintf "weaver-cli: %s: ok, %.3e cycles\n" name
                  (Weaver.Metrics.total_cycles res.Weaver.Runtime.metrics)
            | Error f ->
                failures := f.Weaver.Runtime.fault :: !failures;
                Printf.eprintf "weaver-cli: %s: %s%s\n" name
                  (Gpu_sim.Fault.render f.Weaver.Runtime.fault)
                  (trail_suffix f.Weaver.Runtime.trail))
          workloads;
        (* the trace is written even when a workload faulted: a trace of
           the failure is exactly what the flight recorder is for *)
        let json = Weaver_obs.Chrome.export ~wall ~lanes:keep trace in
        (match trace_out with
        | Some path -> write_file path json
        | None -> print_string json);
        lane_summary trace keep;
        (match metrics_out with
        | Some path ->
            let reg = Weaver_obs.Registry.create () in
            Weaver_obs.Registry.observe_trace reg trace;
            write_file path (Weaver_obs.Registry.prometheus reg)
        | None -> ());
        (* severity across workloads: any ordinary hard fault dominates,
           then corruption, then deadline misses/cancellations *)
        let codes = List.map fault_exit !failures in
        match !failures with
        | [] -> `Ok ()
        | _ ->
            exit
              (if List.mem exit_fault codes then exit_fault
               else if List.mem exit_corrupt codes then exit_corrupt
               else exit_deadline))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run workloads under the span tracer and export a Chrome \
          trace-event JSON timeline (compile, analysis gate, kernel \
          launches, PCIe transfers, recovery events) plus an optional \
          Prometheus metrics dump")
    Term.(
      ret
        (const run $ targets_arg $ rows_arg $ inputs_arg $ seed_arg $ fuse_arg
       $ opt_arg $ streamed_arg $ jobs_arg $ faults_arg $ no_integrity_arg
       $ checkpoint_arg $ ckpt_frac_arg $ wall_arg $ trace_out_arg
       $ metrics_out_arg $ lanes_arg $ flight_ring_arg))

(* --- serve ------------------------------------------------------------------ *)

let verdict_line (r : Weaver.Service.response) =
  let mode =
    match r.Weaver.Service.mode_used with
    | Weaver.Runtime.Resident -> "resident"
    | Weaver.Runtime.Streamed -> "streamed"
  in
  let placement =
    if r.Weaver.Service.pre_demoted then mode ^ " (pre-demoted)" else mode
  in
  let placement =
    if r.Weaver.Service.hedged then placement ^ ", hedged" else placement
  in
  match r.Weaver.Service.verdict with
  | Weaver.Service.Completed res ->
      let rows =
        List.fold_left
          (fun a (_, rel) -> a + Relation.count rel)
          0 res.Weaver.Runtime.sinks
      in
      Printf.sprintf "completed [%s]: %d sink rows, %.3e cycles" placement rows
        (Weaver.Metrics.total_cycles res.Weaver.Runtime.metrics)
  | Weaver.Service.Failed f ->
      Printf.sprintf "failed [%s]: %s%s" placement
        (Gpu_sim.Fault.render f.Weaver.Runtime.fault)
        (trail_suffix f.Weaver.Runtime.trail)
  | Weaver.Service.Rejected (Weaver.Service.Queue_full { limit }) ->
      Printf.sprintf "rejected: queue full (limit %d)" limit
  | Weaver.Service.Rejected
      (Weaver.Service.Over_capacity { footprint_bytes; capacity_bytes }) ->
      Printf.sprintf "rejected: estimated footprint %d B exceeds device \
                      memory %d B" footprint_bytes capacity_bytes
  | Weaver.Service.Rejected (Weaver.Service.Overloaded { level }) ->
      Printf.sprintf "rejected: service overloaded (%s)" level

let stats_json (s : Weaver.Service.stats) =
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"submitted\": %d,\n" s.Weaver.Service.submitted;
      Printf.sprintf "  \"admitted\": %d,\n" s.Weaver.Service.admitted;
      Printf.sprintf "  \"rejected\": %d,\n" s.Weaver.Service.rejected;
      Printf.sprintf "  \"queue_rejections\": %d,\n"
        s.Weaver.Service.queue_rejections;
      Printf.sprintf "  \"capacity_rejections\": %d,\n"
        s.Weaver.Service.capacity_rejections;
      Printf.sprintf "  \"shed_rejections\": %d,\n"
        s.Weaver.Service.shed_rejections;
      Printf.sprintf "  \"completed\": %d,\n" s.Weaver.Service.completed;
      Printf.sprintf "  \"failed\": %d,\n" s.Weaver.Service.failed;
      Printf.sprintf "  \"deadline_misses\": %d,\n"
        s.Weaver.Service.deadline_misses;
      Printf.sprintf "  \"cancelled\": %d,\n" s.Weaver.Service.cancelled;
      Printf.sprintf "  \"budget_vetoes\": %d,\n" s.Weaver.Service.budget_vetoes;
      Printf.sprintf "  \"pre_demotions\": %d,\n" s.Weaver.Service.pre_demotions;
      Printf.sprintf "  \"runtime_demotions\": %d,\n"
        s.Weaver.Service.runtime_demotions;
      Printf.sprintf "  \"hedges\": %d,\n" s.Weaver.Service.hedges;
      Printf.sprintf "  \"hedge_wins\": %d,\n" s.Weaver.Service.hedge_wins;
      Printf.sprintf "  \"hedge_losses\": %d,\n" s.Weaver.Service.hedge_losses;
      Printf.sprintf "  \"brownout_entries\": %d,\n"
        s.Weaver.Service.brownout_entries;
      Printf.sprintf "  \"shed_entries\": %d,\n" s.Weaver.Service.shed_entries;
      Printf.sprintf "  \"corruptions_detected\": %d,\n"
        s.Weaver.Service.corruptions_detected;
      Printf.sprintf "  \"rollbacks\": %d,\n" s.Weaver.Service.rollbacks;
      Printf.sprintf "  \"checkpoints_taken\": %d,\n"
        s.Weaver.Service.checkpoints_taken;
      Printf.sprintf "  \"p50_latency_cycles\": %.6e,\n"
        s.Weaver.Service.p50_latency_cycles;
      Printf.sprintf "  \"p95_latency_cycles\": %.6e,\n"
        s.Weaver.Service.p95_latency_cycles;
      Printf.sprintf "  \"total_cycles\": %.6e,\n" s.Weaver.Service.total_cycles;
      Printf.sprintf "  \"throughput_qps\": %.6e,\n"
        s.Weaver.Service.throughput_qps;
      Printf.sprintf "  \"wall_seconds\": %.6f\n" s.Weaver.Service.wall_seconds;
      "}";
    ]

let serve name ~doc =
  let queries_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"QUERY.dl"
           ~doc:"Datalog query files; each becomes one request (repeatable \
                 via --repeat)")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Submit each query N times")
  in
  let deadline_cycles_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-cycles" ] ~docv:"CYCLES"
             ~doc:"Per-query budget in simulated cycles (kernel + PCIe); a \
                   query over budget fails with a typed deadline fault")
  in
  let deadline_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-query wall-clock watchdog in milliseconds")
  in
  let queue_arg =
    Arg.(value
         & opt int Weaver.Service.default_config.Weaver.Service.queue_limit
         & info [ "queue-limit" ] ~docv:"N"
             ~doc:"Bounded wait queue: submissions beyond the running query \
                   plus N waiters are rejected (backpressure)")
  in
  let retry_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "retry-budget" ] ~docv:"N"
             ~doc:"Per-request recovery token budget: every retry, fission \
                   split or demotion spends one token; exhaustion (or an \
                   action that cannot finish before the deadline) fails the \
                   query fast with a typed budget-veto fault")
  in
  let hedge_arg =
    Arg.(value & opt (some float) None
         & info [ "hedge-quantile" ] ~docv:"Q"
             ~doc:"Hedged launches: cancel a primary execution that overruns \
                   this latency quantile (e.g. 0.95) of completed \
                   executions and issue a speculative Streamed backup; \
                   first completion wins")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the service statistics as JSON (per-request lines are \
                 suppressed)")
  in
  let run files rows inputs seed repeat streamed jobs faults no_integrity
      checkpoint ckpt_frac dcycles dms queue_limit retry_budget hedge_quantile
      json trace_out metrics_out flight_ring =
    if flight_ring < 0 then
      usage_error "bad --flight-ring %d (want N >= 0)" flight_ring;
    guard (fun () ->
        let base_cfg =
          with_integrity ~no_integrity ~checkpoint ~ckpt_frac
            { (config_of jobs faults) with Weaver.Config.retry_budget }
        in
        let mode =
          if streamed then Weaver.Runtime.Streamed else Weaver.Runtime.Resident
        in
        let requests =
          List.concat_map
            (fun path ->
              let q = compile_query path in
              let named = bind_data q ~rows ~seed inputs in
              let bases = Datalog.bind q named in
              let program =
                Weaver.Driver.compile ~config:base_cfg q.Datalog.plan
              in
              List.init (max 1 repeat) (fun _ -> (path, program, bases)))
            files
          |> List.mapi (fun rid (path, program, bases) ->
                 ( path,
                   Weaver.Service.request ~rid ~mode
                     ?deadline_cycles:dcycles
                     ?wall_deadline_s:
                       (Option.map (fun ms -> ms /. 1000.0) dms)
                     program bases ))
        in
        (match hedge_quantile with
        | Some q when q <= 0.0 || q >= 1.0 ->
            usage_error "bad --hedge-quantile %g (want 0 < Q < 1)" q
        | _ -> ());
        let config = { Weaver.Service.queue_limit; hedge_quantile } in
        (* the run-level weaver_* families are folded from the trace, so
           --metrics-out records events even when no trace is exported *)
        let trace =
          if Option.is_some trace_out || Option.is_some metrics_out then
            Weaver_obs.Trace.create ~clock:Unix.gettimeofday ~ring:flight_ring
              ()
          else Weaver_obs.Trace.none
        in
        let registry =
          Option.map (fun _ -> Weaver_obs.Registry.create ()) metrics_out
        in
        let responses, stats =
          Weaver.Service.run_batch ~config ~trace ?registry
            (List.map snd requests)
        in
        (match trace_out with
        | Some path -> write_file path (Weaver_obs.Chrome.export trace)
        | None -> ());
        (match (metrics_out, registry) with
        | Some path, Some reg ->
            Weaver_obs.Registry.observe_trace reg trace;
            write_file path (Weaver_obs.Registry.prometheus reg)
        | _ -> ());
        if json then print_endline (stats_json stats)
        else begin
          List.iter2
            (fun (path, _) (r : Weaver.Service.response) ->
              Printf.printf "request %d %s: %s\n" r.Weaver.Service.rid path
                (verdict_line r))
            requests responses;
          Format.printf "%a@." Weaver.Service.pp_stats stats
        end;
        (* deadline misses and cancellations dominate rejections;
           unmasked corruption dominates those; any other hard failure
           dominates everything *)
        let corrupt_failures =
          List.length
            (List.filter
               (fun (r : Weaver.Service.response) ->
                 match r.Weaver.Service.verdict with
                 | Weaver.Service.Failed f ->
                     fault_exit f.Weaver.Runtime.fault = exit_corrupt
                 | _ -> false)
               responses)
        in
        let hard_failures =
          stats.Weaver.Service.failed
          - stats.Weaver.Service.deadline_misses
          - stats.Weaver.Service.cancelled
          - corrupt_failures
        in
        if hard_failures > 0 then exit exit_fault
        else if corrupt_failures > 0 then exit exit_corrupt
        else if
          stats.Weaver.Service.deadline_misses
          + stats.Weaver.Service.cancelled > 0
        then exit exit_deadline
        else `Ok ())
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const run $ queries_arg $ rows_arg $ inputs_arg $ seed_arg
       $ repeat_arg $ streamed_arg $ jobs_arg $ faults_arg $ no_integrity_arg
       $ checkpoint_arg $ ckpt_frac_arg
       $ deadline_cycles_arg $ deadline_ms_arg $ queue_arg $ retry_budget_arg
       $ hedge_arg $ json_arg $ trace_out_arg $ metrics_out_arg
       $ flight_ring_arg))

let serve_cmd =
  serve "serve"
    ~doc:
      "Run a batch of queries through the multi-query service (deadlines, \
       admission control, overload shedding)"

let batch_cmd =
  serve "batch" ~doc:"Alias of serve: execute a batch of query requests"

let () =
  let doc = "Kernel Weaver: fused relational-algebra kernels on a simulated GPU" in
  let info = Cmd.info "weaver-cli" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           plan_cmd;
           source_cmd;
           exec_cmd;
           profile_cmd;
           explain_cmd;
           analyze_cmd;
           trace_cmd;
           bench_cmd;
           serve_cmd;
           batch_cmd;
         ])
  in
  (* cmdliner reports its own parse errors as Cmd.Exit.cli_error (124);
     fold them into the documented usage exit code *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
