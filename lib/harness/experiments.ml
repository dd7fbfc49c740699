open Gpu_sim

let device = Weaver.Config.default.Weaver.Config.device

let avg = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Every experiment takes ?jobs (default 1, i.e. sequential simulation):
   the worker-domain count for CTA interpretation. Results are identical
   for any value (asserted by the differential tests); only the harness's
   wall-clock changes. *)
let base_config ~jobs = Weaver.Config.with_jobs Weaver.Config.default jobs

let run_workload ?config ?(jobs = 1) ?opt (w : Tpch.Patterns.workload) ~rows
    ~mode ~seed =
  let config =
    match config with Some c -> c | None -> base_config ~jobs
  in
  let bases = w.Tpch.Patterns.gen ~seed ~rows in
  Weaver.Driver.compare_fusion ~config ?opt w.Tpch.Patterns.plan bases ~mode

let kernel_speedup (cmp : Weaver.Driver.comparison) =
  cmp.Weaver.Driver.unfused.Weaver.Runtime.metrics.Weaver.Metrics.kernel_cycles
  /. cmp.Weaver.Driver.fused.Weaver.Runtime.metrics.Weaver.Metrics.kernel_cycles

let metrics_of (r : Weaver.Runtime.result) = r.Weaver.Runtime.metrics

(* --- Fig. 4 -------------------------------------------------------------- *)

let fig4 ?(sizes = [ 65_536; 131_072; 262_144; 524_288 ]) ?(jobs = 1) () =
  let run selects =
    let w = Tpch.Patterns.back_to_back_selects ~selects ~ratio:0.5 in
    List.map
      (fun rows ->
        let cmp =
          run_workload ~jobs w ~rows ~mode:Weaver.Runtime.Resident ~seed:4
        in
        (rows, kernel_speedup cmp))
      sizes
  in
  let two = run 2 and three = run 3 in
  let rows =
    List.map2
      (fun (n, s2) (_, s3) ->
        [ string_of_int n; Report.fx s2; Report.fx s3 ])
      two three
  in
  let avg2 = avg (List.map snd two) and avg3 = avg (List.map snd three) in
  {
    Report.table =
      {
        title = "Fig. 4 — back-to-back SELECT throughput gain from fusion";
        header = [ "rows"; "2 SELECTs"; "3 SELECTs" ];
        rows =
          rows @ [ [ "average"; Report.fx avg2; Report.fx avg3 ] ];
        notes = [ "paper: 1.80x (2 SELECTs) and 2.35x (3 SELECTs) on average" ];
      };
    headline = [ ("avg 2-select speedup", avg2); ("avg 3-select speedup", avg3) ];
  }

(* --- Table 2 -------------------------------------------------------------- *)

let table2 () =
  let c = Weaver.Config.default in
  let d = device in
  let rows =
    [
      [ "GPU"; d.Device.name ];
      [ "SMs x clock"; Printf.sprintf "%d x %.2f GHz" d.Device.sm_count d.Device.clock_ghz ];
      [ "registers / SM"; string_of_int d.Device.registers_per_sm ];
      [ "shared memory / SM"; Report.bytes_human d.Device.shared_mem_per_sm ];
      [ "global memory"; Report.bytes_human d.Device.global_mem_bytes ];
      [ "memory bandwidth"; Printf.sprintf "%.0f GB/s" d.Device.global_bw_gbps ];
      [ "PCIe bandwidth"; Printf.sprintf "%.1f GB/s effective" d.Device.pcie_bw_gbps ];
      [ "execution"; "KIR interpreter + calibrated cost model" ];
      [ "compiler"; "Kernel Weaver (OCaml), -O3 KIR passes" ];
      [ "kernel config"; Printf.sprintf "%d threads/CTA, %d-row tiles"
          c.Weaver.Config.cta_threads c.Weaver.Config.cap ];
    ]
  in
  {
    Report.table =
      { title = "Table 2 — experimental environment"; header = [ "item"; "value" ]; rows; notes = [] };
    headline = [];
  }

(* --- Figs. 16/17/18: small inputs, patterns (a)-(e) ----------------------- *)

let pattern_runs ?config ?jobs ?opt ~rows ~mode () =
  List.map
    (fun w -> (w, run_workload ?config ?jobs ?opt w ~rows ~mode ~seed:16))
    (Tpch.Patterns.all ())

let fig16 ?(rows = 200_000) ?(jobs = 1) () =
  (* the paper averages each pattern over a sweep of problem sizes *)
  let sizes = [ rows / 2; rows ] in
  let per_size =
    List.map
      (fun r -> pattern_runs ~jobs ~rows:r ~mode:Weaver.Runtime.Resident ())
      sizes
  in
  let runs = List.hd per_size in
  let speedups =
    List.mapi
      (fun i _ ->
        avg (List.map (fun rs -> kernel_speedup (snd (List.nth rs i))) per_size))
      runs
  in
  let table_rows =
    List.map2
      (fun ((w : Tpch.Patterns.workload), _) s ->
        [ w.Tpch.Patterns.name; Report.fx s ])
      runs speedups
    @ [ [ "average"; Report.fx (avg speedups) ] ]
  in
  {
    Report.table =
      {
        title = "Fig. 16 — GPU computation speedup from fusion (small inputs)";
        header = [ "pattern"; "speedup" ];
        rows = table_rows;
        notes = [ "paper: 2.89x average; (a),(e) largest, (d) smallest" ];
      };
    headline =
      ("avg speedup", avg speedups)
      :: List.map2
           (fun ((w : Tpch.Patterns.workload), _) s -> (w.Tpch.Patterns.name, s))
           runs speedups;
  }

let fig17 ?(rows = 200_000) ?(jobs = 1) () =
  let runs = pattern_runs ~jobs ~rows ~mode:Weaver.Runtime.Resident () in
  let rows_t, reductions =
    List.split
      (List.map
         (fun ((w : Tpch.Patterns.workload), cmp) ->
           let f =
             (metrics_of cmp.Weaver.Driver.fused).Weaver.Metrics.peak_global_bytes
           in
           let u =
             (metrics_of cmp.Weaver.Driver.unfused).Weaver.Metrics.peak_global_bytes
           in
           let delta = float_of_int (f - u) /. float_of_int u in
           ( [
               w.Tpch.Patterns.name;
               Report.bytes_human u;
               Report.bytes_human f;
               Report.pct delta;
             ],
             delta ))
         runs)
  in
  {
    Report.table =
      {
        title = "Fig. 17 — peak GPU global memory allocated";
        header = [ "pattern"; "unfused"; "fused"; "change" ];
        rows = rows_t;
        notes =
          [ "paper: fusion allocates less everywhere except (d) (slightly more)" ];
      };
    headline = [ ("avg change", avg reductions) ];
  }

let fig18 ?(rows = 200_000) ?(jobs = 1) () =
  let runs = pattern_runs ~jobs ~rows ~mode:Weaver.Runtime.Resident () in
  let rows_t, reductions =
    List.split
      (List.map
         (fun ((w : Tpch.Patterns.workload), cmp) ->
           let f = (metrics_of cmp.Weaver.Driver.fused).Weaver.Metrics.memory_cycles in
           let u = (metrics_of cmp.Weaver.Driver.unfused).Weaver.Metrics.memory_cycles in
           let delta = (f -. u) /. u in
           ( [ w.Tpch.Patterns.name; Printf.sprintf "%.3e" u;
               Printf.sprintf "%.3e" f; Report.pct delta ],
             delta ))
         runs)
  in
  {
    Report.table =
      {
        title = "Fig. 18 — global-memory access cycles";
        header = [ "pattern"; "unfused"; "fused"; "change" ];
        rows = rows_t;
        notes = [ "paper: 59% average reduction" ];
      };
    headline = [ ("avg change", avg reductions) ];
  }

(* --- Fig. 19: optimizer impact -------------------------------------------- *)

let fig19 ?(rows = 200_000) ?(jobs = 1) () =
  let one (w : Tpch.Patterns.workload) =
    let bases = w.Tpch.Patterns.gen ~seed:19 ~rows in
    let cycles ~fuse ~opt =
      let p =
        Weaver.Driver.compile ~config:(base_config ~jobs) ~fuse ~opt
          w.Tpch.Patterns.plan
      in
      (metrics_of (Weaver.Driver.run p bases ~mode:Weaver.Runtime.Resident))
        .Weaver.Metrics.kernel_cycles
    in
    let u0 = cycles ~fuse:false ~opt:Weaver.Optimizer.O0 in
    let u3 = cycles ~fuse:false ~opt:Weaver.Optimizer.O3 in
    let f0 = cycles ~fuse:true ~opt:Weaver.Optimizer.O0 in
    let f3 = cycles ~fuse:true ~opt:Weaver.Optimizer.O3 in
    (u0 /. u3, f0 /. f3)
  in
  let results = List.map (fun w -> (w, one w)) (Tpch.Patterns.all ()) in
  let rows_t =
    List.map
      (fun ((w : Tpch.Patterns.workload), (su, sf)) ->
        [ w.Tpch.Patterns.name; Report.fx su; Report.fx sf ])
      results
  in
  let avg_u = avg (List.map (fun (_, (s, _)) -> s) results) in
  let avg_f = avg (List.map (fun (_, (_, s)) -> s) results) in
  {
    Report.table =
      {
        title = "Fig. 19 — compiler optimization impact (-O3 over -O0)";
        header = [ "pattern"; "unfused"; "fused" ];
        rows = rows_t @ [ [ "average"; Report.fx avg_u; Report.fx avg_f ] ];
        notes =
          [ "paper: fusion enlarges optimization scope, so -O3 helps fused \
             kernels more" ];
      };
    headline = [ ("avg O3 gain unfused", avg_u); ("avg O3 gain fused", avg_f) ];
  }

(* --- Fig. 20: selectivity sweep ------------------------------------------- *)

let fig20 ?(rows = 300_000) ?(ratios = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]) ?(jobs = 1)
    () =
  let results =
    List.map
      (fun ratio ->
        let w = Tpch.Patterns.back_to_back_selects ~selects:2 ~ratio in
        let cmp =
          run_workload ~jobs w ~rows ~mode:Weaver.Runtime.Resident ~seed:20
        in
        (ratio, kernel_speedup cmp))
      ratios
  in
  let rows_t =
    List.map
      (fun (r, s) -> [ Printf.sprintf "%.0f%%" (100.0 *. r); Report.fx s ])
      results
  in
  {
    Report.table =
      {
        title = "Fig. 20 — fusing two SELECTs vs selection ratio";
        header = [ "selection ratio"; "speedup" ];
        rows = rows_t;
        notes = [ "paper: 1.28x at 10%, 2.01x at 90%" ];
      };
    headline =
      List.map (fun (r, s) -> (Printf.sprintf "speedup@%.0f%%" (100.0 *. r), s)) results;
  }

(* --- Fig. 21: large inputs over PCIe -------------------------------------- *)

let fig21 ?(rows = 200_000) ?(jobs = 1) () =
  let runs = pattern_runs ~jobs ~rows ~mode:Weaver.Runtime.Streamed () in
  let per_pattern =
    List.map
      (fun ((w : Tpch.Patterns.workload), cmp) ->
        let f = metrics_of cmp.Weaver.Driver.fused in
        let u = metrics_of cmp.Weaver.Driver.unfused in
        let compute = u.Weaver.Metrics.kernel_cycles /. f.Weaver.Metrics.kernel_cycles in
        let pcie = u.Weaver.Metrics.pcie_cycles /. f.Weaver.Metrics.pcie_cycles in
        let overall =
          Weaver.Metrics.total_cycles u /. Weaver.Metrics.total_cycles f
        in
        (w.Tpch.Patterns.name, compute, pcie, overall))
      runs
  in
  let rows_t =
    List.map
      (fun (n, c, p, o) -> [ n; Report.fx c; Report.fx p; Report.fx o ])
      per_pattern
    @ [
        [
          "average";
          Report.fx (avg (List.map (fun (_, c, _, _) -> c) per_pattern));
          Report.fx (avg (List.map (fun (_, _, p, _) -> p) per_pattern));
          Report.fx (avg (List.map (fun (_, _, _, o) -> o) per_pattern));
        ];
      ]
  in
  let pc_only =
    List.filter (fun (n, _, _, _) -> n <> "d:shared-input-selects") per_pattern
  in
  {
    Report.table =
      {
        title = "Fig. 21 — large inputs: computation, PCIe and overall speedups";
        header = [ "pattern"; "computation"; "PCIe"; "overall" ];
        rows = rows_t;
        notes =
          [
            "paper: 2.91x computation, 2.08x PCIe, 1.98x overall on average";
            "paper: (d) gets no PCIe benefit; producer-consumer-only PCIe avg 2.35x";
          ];
      };
    headline =
      [
        ("avg compute speedup", avg (List.map (fun (_, c, _, _) -> c) per_pattern));
        ("avg pcie speedup", avg (List.map (fun (_, _, p, _) -> p) per_pattern));
        ("avg overall speedup", avg (List.map (fun (_, _, _, o) -> o) per_pattern));
        ( "producer-consumer pcie speedup",
          avg (List.map (fun (_, _, p, _) -> p) pc_only) );
      ];
  }

(* --- Table 3: resource usage and occupancy -------------------------------- *)

let table3 () =
  let config = Weaver.Config.default in
  let occupancy_of shared regs =
    Occupancy.occupancy device ~cta_threads:config.Weaver.Config.cta_threads
      ~shared_bytes:shared ~regs_per_thread:regs
  in
  let row_of_group name plan group =
    match Weaver.Fusion.build plan group with
    | exception Weaver.Fusion.Infeasible m -> [ name; "-"; "-"; "infeasible: " ^ m ]
    | ir ->
        let l = Weaver.Layout.compute config plan ir in
        [
          name;
          string_of_int l.Weaver.Layout.regs_per_thread;
          Report.bytes_human l.Weaver.Layout.shared_bytes;
          Report.f2 (occupancy_of l.Weaver.Layout.shared_bytes l.Weaver.Layout.regs_per_thread);
        ]
  in
  (* individual operators, each as a singleton group on a representative plan *)
  let single name (w : Tpch.Patterns.workload) op_index =
    row_of_group name w.Tpch.Patterns.plan [ op_index ]
  in
  let pa = Tpch.Patterns.pattern_a () in
  let pb = Tpch.Patterns.pattern_b () in
  let pd = Tpch.Patterns.pattern_d () in
  let pe = Tpch.Patterns.pattern_e () in
  let singles =
    [
      single "SELECT" pa 0;
      single "PROJECT" pa 3;
      single "JOIN" pb 0;
      single "ARITH" pe 0;
    ]
  in
  let fused =
    List.map
      (fun (w : Tpch.Patterns.workload) ->
        let all_ops =
          List.map (fun (n : Qplan.Plan.node) -> n.Qplan.Plan.id)
            (Qplan.Plan.nodes w.Tpch.Patterns.plan)
        in
        row_of_group ("fused " ^ w.Tpch.Patterns.name) w.Tpch.Patterns.plan all_ops)
      [ pa; pb; Tpch.Patterns.pattern_c (); pd; pe ]
  in
  {
    Report.table =
      {
        title = "Table 3 — resource usage and occupancy";
        header = [ "kernel"; "registers"; "shared memory"; "occupancy" ];
        rows = singles @ fused;
        notes =
          [
            "paper: fusion raises register/shared usage and can lower \
             occupancy (its Table 3: SELECT 17 regs, PROJECT 11, JOIN 47; \
             fused (b) 55 regs / ~23 KB)";
          ];
      };
    headline = [];
  }

(* --- TPC-H queries --------------------------------------------------------- *)

let sort_cycles (m : Weaver.Metrics.t) =
  List.fold_left
    (fun acc (r : Executor.launch_report) ->
      let is_sort =
        String.length r.Executor.kernel_name >= 4
        && (String.sub r.Executor.kernel_name 0 4 = "sort"
           || String.length r.Executor.kernel_name >= 8
              && String.sub r.Executor.kernel_name 0 8 = "implicit")
      in
      if is_sort then acc +. r.Executor.time.Timing.total_cycles else acc)
    0.0 m.Weaver.Metrics.reports

let run_query ?config (q : Tpch.Queries.query) ~lineitems =
  let db = Tpch.Datagen.generate ~seed:21 ~lineitems in
  let bases = q.Tpch.Queries.bind db in
  Weaver.Driver.compare_fusion ?config q.Tpch.Queries.plan bases
    ~mode:Weaver.Runtime.Resident

let query_outcome ?config (q : Tpch.Queries.query) ~lineitems ~paper_note =
  let cmp = run_query ?config q ~lineitems in
  let f = metrics_of cmp.Weaver.Driver.fused in
  let u = metrics_of cmp.Weaver.Driver.unfused in
  let overall = u.Weaver.Metrics.kernel_cycles /. f.Weaver.Metrics.kernel_cycles in
  let u_sort = sort_cycles u and f_sort = sort_cycles f in
  let sort_share = u_sort /. u.Weaver.Metrics.kernel_cycles in
  let nonsort =
    (u.Weaver.Metrics.kernel_cycles -. u_sort)
    /. (f.Weaver.Metrics.kernel_cycles -. f_sort)
  in
  {
    Report.table =
      {
        title = Printf.sprintf "TPC-H %s (%d lineitems)" q.Tpch.Queries.qname lineitems;
        header = [ "metric"; "value" ];
        rows =
          [
            [ "overall speedup"; Report.fx overall ];
            [ "SORT share of unfused time"; Printf.sprintf "%.0f%%" (100.0 *. sort_share) ];
            [ "speedup excluding SORT"; Report.fx nonsort ];
            [ "unfused launches"; string_of_int u.Weaver.Metrics.launches ];
            [ "fused launches"; string_of_int f.Weaver.Metrics.launches ];
          ];
        notes = [ paper_note ];
      };
    headline =
      [
        ("overall speedup", overall);
        ("sort share", sort_share);
        ("non-sort speedup", nonsort);
      ];
  }

let q1 ?(lineitems = 200_000) ?(jobs = 1) () =
  query_outcome ~config:(base_config ~jobs) Tpch.Queries.q1 ~lineitems
    ~paper_note:"paper: 1.25x overall; SORT ~71% of time; 3.18x excluding SORT"

let q21 ?(lineitems = 10_000) ?(jobs = 1) () =
  (* Q21's one fan-out join needs a larger output budget; the runtime's
     per-segment retries discover it, and a deployment would provision it
     from fan-out statistics — either way only that join's tiles grow *)
  let config =
    { (base_config ~jobs) with Weaver.Config.join_expansion = 4 }
  in
  query_outcome ~config Tpch.Queries.q21 ~lineitems
    ~paper_note:"paper: 1.22x overall (relational-centric)"

(* --- static-analysis gate ------------------------------------------------ *)

let analysis () =
  let targets =
    List.map
      (fun (w : Tpch.Patterns.workload) -> (w.Tpch.Patterns.name, w.Tpch.Patterns.plan))
      (Tpch.Patterns.all ())
    @ [
        ("q1", Tpch.Queries.q1.Tpch.Queries.plan);
        ("q21", Tpch.Queries.q21.Tpch.Queries.plan);
      ]
  in
  let per =
    List.map
      (fun (name, plan) ->
        let program = Weaver.Driver.compile plan in
        let t0 = Sys.time () in
        let reports = Weaver.Runtime.analyze_program program in
        let ms = (Sys.time () -. t0) *. 1000.0 in
        let count sev =
          List.fold_left
            (fun acc (r : Weaver_analysis.Analysis.report) ->
              acc
              + List.length
                  (List.filter
                     (fun (d : Weaver_analysis.Diag.t) ->
                       d.Weaver_analysis.Diag.severity = sev)
                     r.Weaver_analysis.Analysis.diags))
            0 reports
        in
        let instrs =
          List.fold_left
            (fun acc (r : Weaver_analysis.Analysis.report) ->
              acc + r.Weaver_analysis.Analysis.instrs)
            0 reports
        in
        ( name,
          List.length reports,
          instrs,
          count Weaver_analysis.Diag.Error,
          count Weaver_analysis.Diag.Warn,
          count Weaver_analysis.Diag.Hint,
          ms ))
      targets
  in
  let tot f = List.fold_left (fun a r -> a + f r) 0 per in
  let errors = tot (fun (_, _, _, e, _, _, _) -> e)
  and warns = tot (fun (_, _, _, _, w, _, _) -> w)
  and total_ms =
    List.fold_left (fun a (_, _, _, _, _, _, ms) -> a +. ms) 0.0 per
  in
  {
    Report.table =
      {
        title =
          "Static analysis — gate diagnostics and pass runtime per workload";
        header =
          [ "workload"; "kernels"; "instrs"; "errors"; "warnings"; "hints"; "ms" ];
        rows =
          List.map
            (fun (name, ks, instrs, e, w, h, ms) ->
              [
                name;
                string_of_int ks;
                string_of_int instrs;
                string_of_int e;
                string_of_int w;
                string_of_int h;
                Printf.sprintf "%.1f" ms;
              ])
            per
          @ [
              [
                "total";
                string_of_int (tot (fun (_, k, _, _, _, _, _) -> k));
                string_of_int (tot (fun (_, _, i, _, _, _, _) -> i));
                string_of_int errors;
                string_of_int warns;
                string_of_int (tot (fun (_, _, _, _, _, h, _) -> h));
                Printf.sprintf "%.1f" total_ms;
              ];
            ];
        notes =
          [
            "errors + warnings gate kernel launch (expected 0 on golden plans)";
            "hints are advisory (dead stores)";
          ];
      };
    headline =
      [
        ("gating diagnostics", float_of_int (errors + warns));
        ("analysis ms", total_ms);
      ];
  }

let all ?(quick = false) ?(jobs = 1) () =
  let s = if quick then [ 16_384; 32_768 ] else [ 65_536; 131_072; 262_144; 524_288 ] in
  let r = if quick then 30_000 else 200_000 in
  let li1 = if quick then 30_000 else 200_000 in
  let li21 = if quick then 8_000 else 10_000 in
  [
    ("table2", fun () -> table2 ());
    ("fig4", fun () -> fig4 ~sizes:s ~jobs ());
    ("fig16", fun () -> fig16 ~rows:r ~jobs ());
    ("fig17", fun () -> fig17 ~rows:r ~jobs ());
    ("fig18", fun () -> fig18 ~rows:r ~jobs ());
    ("fig19", fun () -> fig19 ~rows:(min r 100_000) ~jobs ());
    ("fig20", fun () -> fig20 ~rows:(if quick then 50_000 else 300_000) ~jobs ());
    ("fig21", fun () -> fig21 ~rows:r ~jobs ());
    ("table3", fun () -> table3 ());
    ("q1", fun () -> q1 ~lineitems:li1 ~jobs ());
    ("q21", fun () -> q21 ~lineitems:li21 ~jobs ());
    ("analysis", fun () -> analysis ());
  ]

let select ?quick ?jobs names =
  let suite = all ?quick ?jobs () @ Ablations.all ?quick ?jobs () in
  match List.filter (fun n -> not (List.mem_assoc n suite)) names with
  | [] when names = [] -> Ok suite
  | [] -> Ok (List.map (fun n -> (n, List.assoc n suite)) names)
  | unknown ->
      Error
        (Printf.sprintf "unknown experiment %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " (List.map fst suite)))
