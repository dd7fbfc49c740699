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

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let oc = open_out path in
  output_string oc "[\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (experiment, metric, value) ->
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"metric\": \"%s\", \"value\": %.17g}%s\n"
        (json_escape experiment) (json_escape metric) value
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
        compile_test;
        optimize_test;
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
