(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and its ablations on the simulated GPU, and times the
   simulator itself with bechamel micro-benchmarks.

   Usage:
     bench/main.exe [OPTS]                run everything (default sizes)
     bench/main.exe [OPTS] quick          run everything at reduced sizes
     bench/main.exe [OPTS] fig16 q1 ...   run selected experiments
     bench/main.exe [OPTS] bechamel       only the wall-clock micro-benchmarks

   Unknown experiment names and a malformed --jobs exit 2.

   Options:
     --json FILE    also write every result as JSON rows
                    [{"experiment":..., "metric":..., "value":...}, ...]
     --jobs N       worker domains for the simulated kernel launches
                    (default 1; 0 = one per recommended core). The
                    bechamel jobs comparison times jobs=1 against N, or
                    against 4 when N resolves to 1. *)

(* --- JSON rows ------------------------------------------------------------- *)

let json_rows : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  json_rows := (experiment, metric, value) :: !json_rows

let write_json path =
  let oc = open_out path in
  output_string oc "[\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (experiment, metric, value) ->
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"metric\": \"%s\", \"value\": %.17g}%s\n"
        (Weaver_obs.Json.escape experiment)
        (Weaver_obs.Json.escape metric)
        value
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "\nwrote %d JSON rows to %s\n" (List.length rows) path

(* --- paper experiments ------------------------------------------------------ *)

let usage_error msg =
  prerr_endline msg;
  exit 2

let run_experiments ~quick ~jobs names =
  let wanted =
    match Harness.Experiments.select ~quick ~jobs names with
    | Ok wanted -> wanted
    | Error msg -> usage_error msg
  in
  List.iter
    (fun (name, outcome) ->
      Printf.printf "[%s]\n" name;
      let o = outcome () in
      List.iter
        (fun (metric, value) -> record ~experiment:name ~metric value)
        o.Harness.Report.headline;
      Harness.Report.print o)
    wanted

(* --- bechamel micro-benchmarks: wall-clock cost of the simulator ---------- *)

let bechamel_suite ~jobs () =
  let open Bechamel in
  let pattern_test ?(config = Weaver.Config.default)
      ?(trace = fun () -> Weaver_obs.Trace.none) ?label
      (w : Tpch.Patterns.workload) ~rows =
    let bases = w.Tpch.Patterns.gen ~seed:1 ~rows in
    let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
    let label = Option.value label ~default:w.Tpch.Patterns.name in
    Test.make
      ~name:(Printf.sprintf "%s/%d" label rows)
      (Staged.stage (fun () ->
           ignore
             (Weaver.Driver.run ~trace:(trace ()) program bases
                ~mode:Weaver.Runtime.Resident)))
  in
  let compile_test =
    let w = Tpch.Patterns.pattern_b () in
    Test.make ~name:"compile/pattern-b"
      (Staged.stage (fun () ->
           ignore (Weaver.Driver.compile w.Tpch.Patterns.plan)))
  in
  let optimize_test =
    let w = Tpch.Patterns.pattern_a () in
    let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1; 2; 3 ] in
    let lay = Weaver.Layout.compute Weaver.Config.default w.Tpch.Patterns.plan ir in
    let ks = Weaver.Codegen.generate Weaver.Config.default ~name:"bench" ir lay in
    Test.make ~name:"optimize/compute-kernel"
      (Staged.stage (fun () ->
           ignore
             (Weaver.Optimizer.optimize Weaver.Optimizer.O3
                ks.Weaver.Codegen.compute)))
  in
  (* the host sort on Q1's shape (20,000 rows, 7 columns, the two
     small-range int group keys first) and on two f32 keys *)
  let lineitem =
    (Tpch.Datagen.generate ~seed:1 ~lineitems:20_000).Tpch.Datagen.lineitem
  in
  let sort_test ~name cols =
    let r = Relation_lib.Rel_ops.project cols lineitem in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Relation_lib.Relation.sort ~key_arity:2 r)))
  in
  (* one interpreted launch on its own, captured at its launch and
     replayed on a copy of device memory (the kernel never reads what it
     writes, so every replay does the same work): Q1's fused compute
     kernel over 20,000 lineitems, and Q21's over 2,000 lineitems at
     [join_expansion = 3] (perfbench's q21-repeat shape). Divide by the
     printed instruction count for ns per simulated instruction. *)
  let replay_test (q : Tpch.Queries.query) ~lineitems ~config =
    let module M = Gpu_sim.Memory in
    (* a copy of [mem] with the same handles *)
    let clone mem =
      let m = M.create Gpu_sim.Device.fermi_c2050 in
      let top =
        List.fold_left (fun acc (h, _) -> max acc h) 0 (M.live_buffers mem)
      in
      for h = 1 to top do
        let live = M.is_live mem h in
        let words = if live then M.words mem h else 0 in
        let h' = M.alloc m ~words ~bytes:(if live then M.bytes mem h else 0) in
        assert (h' = h);
        if live then Array.blit (M.data mem h) 0 (M.data m h) 0 words
        else M.free m h
      done;
      m
    in
    let db = Tpch.Datagen.generate ~seed:1 ~lineitems in
    let program = Weaver.Driver.compile ~config q.Tpch.Queries.plan in
    let captured = ref None in
    Gpu_sim.Interp.with_launch_observer
      (fun mem k ~params ~grid ~cta ->
        if k.Gpu_sim.Kir.kname = "group0_compute" && !captured = None then
          captured := Some (clone mem, k, params, grid, cta))
      (fun () ->
        ignore
          (Weaver.Runtime.run program (q.Tpch.Queries.bind db)
             ~mode:Weaver.Runtime.Resident));
    let mem, k, params, grid, cta = Option.get !captured in
    let run () = Gpu_sim.Interp.run mem k ~params ~grid ~cta in
    let name =
      Printf.sprintf "interp/%s-group0_compute"
        (String.lowercase_ascii q.Tpch.Queries.qname)
    in
    Printf.printf "%s: %d simulated instructions\n" name
      (run ()).Gpu_sim.Stats.instructions;
    Test.make ~name (Staged.stage (fun () -> ignore (run ())))
  in
  (* the jobs pair must time two distinct configurations, so a request
     that resolves to one worker compares against four *)
  let seq = Weaver.Config.with_jobs Weaver.Config.default 1 in
  let par = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let par = if par.Weaver.Config.jobs <= 1 then { par with jobs = 4 } else par in
  let tests =
    Test.make_grouped ~name:"kernel_weaver"
      [
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:20_000;
        pattern_test (Tpch.Patterns.pattern_b ()) ~rows:10_000;
        pattern_test (Tpch.Patterns.pattern_e ()) ~rows:20_000;
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:seq
          ~label:"pattern-a-jobs1";
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:par
          ~label:(Printf.sprintf "pattern-a-jobs%d" par.Weaver.Config.jobs);
        (* the pattern-a-jobs1 run under the recorder-only tracer (the
           CLI's always-on mode, budgeted at <2% over no tracer) and under
           full event retention *)
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:seq
          ~trace:(fun () -> Weaver_obs.Trace.create ~events:false ())
          ~label:"pattern-a-jobs1-recorder";
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:seq
          ~trace:(fun () -> Weaver_obs.Trace.create ())
          ~label:"pattern-a-jobs1-traced";
        (* the same run with the attribution ledger on (budgeted at <2%
           over pattern-a-jobs1) *)
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000
          ~config:{ seq with attrib = true }
          ~label:"pattern-a-jobs1-attrib";
        compile_test;
        optimize_test;
        replay_test Tpch.Queries.q1 ~lineitems:20_000 ~config:seq;
        replay_test Tpch.Queries.q21 ~lineitems:2_000
          ~config:{ seq with join_expansion = 3 };
        sort_test ~name:"sort/q1-shape-20000" [ 7; 8; 3; 4; 5; 6; 9 ];
        sort_test ~name:"sort/f32-keys-20000" [ 3; 4; 7; 8; 5; 6; 9 ];
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  Printf.printf "\n== bechamel: simulator wall-clock (ns per run) ==\n";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ t ] ->
             record ~experiment:"bechamel" ~metric:(name ^ " (ns)") t;
             Printf.printf "%-48s %14.0f ns\n" name t
         | _ -> Printf.printf "%-48s (no estimate)\n" name)

(* --- entry point ------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None in
  let jobs = ref 1 in
  let rec parse_opts acc = function
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_opts acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> jobs := n
        | None -> usage_error ("--jobs: not an integer: " ^ n));
        parse_opts acc rest
    | arg :: rest -> parse_opts (arg :: acc) rest
    | [] -> List.rev acc
  in
  let words = parse_opts [] args in
  let quick = List.mem "quick" words in
  let words = List.filter (fun w -> w <> "quick") words in
  (match words with
  | [ "bechamel" ] -> bechamel_suite ~jobs:!jobs ()
  | names ->
      run_experiments ~quick ~jobs:!jobs names;
      if names = [] then bechamel_suite ~jobs:!jobs ());
  Option.iter write_json !json_file
