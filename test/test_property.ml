(* The flagship property: for ANY plan the generator can produce and any
   input data, the host reference evaluator, the unfused GPU execution and
   the fused GPU execution must agree — fusion must never change answers
   (§4.1's correctness requirement). Also: Streamed and Resident modes
   agree, and -O0 and -O3 agree.

   Plans are generated from an integer seed so failures reproduce
   trivially; keys are drawn from small ranges to force duplicate runs,
   empty selections and unbalanced joins. *)

open Relation_lib
open Qplan

let i32 = Dtype.I32

type built = { plan : Plan.t; bases : Relation.t array; desc : string }

let build_random seed =
  let st = Random.State.make [| seed; 0xfab |] in
  let irand n = Random.State.int st (max n 1) in
  let key_range = 4 + irand 22 in
  let schema_of_arity ar =
    (* keys stay integral; a quarter of the value attributes are f32 so
       float promotion, f32 comparisons and f32 pipelines get exercised *)
    Schema.make
      (List.init ar (fun i ->
           ( Printf.sprintf "a%d" i,
             if i > 0 && irand 4 = 0 then Dtype.F32 else i32 )))
  in
  let n_bases = 1 + irand 2 in
  let pb = Plan.builder () in
  let bases_meta =
    List.init n_bases (fun _ ->
        let ar = 2 + irand 2 in
        let s = schema_of_arity ar in
        (Plan.base pb s, s))
  in
  let sources = ref bases_meta in
  let pick () = List.nth !sources (irand (List.length !sources)) in
  let add src schema = sources := (src, schema) :: !sources in
  let random_pred schema =
    let ar = Schema.arity schema in
    let attr () = Pred.Attr (irand ar) in
    let atom () =
      let cmp =
        List.nth [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ] (irand 6)
      in
      let rhs =
        if irand 2 = 0 then Pred.Int (irand (2 * key_range)) else attr ()
      in
      Pred.Cmp (cmp, attr (), rhs)
    in
    match irand 3 with
    | 0 -> atom ()
    | 1 -> Pred.And (atom (), atom ())
    | _ -> Pred.Or (atom (), Pred.Not (atom ()))
  in
  let descs = ref [] in
  let n_ops = 2 + irand 5 in
  (* draw on past [n_ops] until some operator was added: a plan needs
     one, and seeds that already have one keep their plan *)
  let draws = ref 0 in
  while !draws < n_ops || !descs = [] do
    incr draws;
    let src, schema = pick () in
    let ar = Schema.arity schema in
    let choice = irand 100 in
    let added =
      try
      if choice < 30 then begin
        let p = random_pred schema in
        Some (Plan.add pb (Op.Select p) [ src ], schema, "select")
      end
      else if choice < 45 then begin
        (* keep a non-empty subset; half the time keep the key prefix *)
        let keep =
          if irand 2 = 0 then List.init (1 + irand ar) Fun.id
          else
            List.sort_uniq Int.compare
              (List.init (1 + irand ar) (fun _ -> irand ar))
        in
        let node = Plan.add pb (Op.Project keep) [ src ] in
        Some (node, Schema.project schema keep, "project")
      end
      else if choice < 55 then begin
        let outs =
          ("e0", Pred.Attr 0)
          :: List.init (irand 2 + 1) (fun j ->
                 ( Printf.sprintf "e%d" (j + 1),
                   Pred.Bin (Pred.Add, Pred.Attr (irand ar), Pred.Int (irand 9))
                 ))
        in
        let node = Plan.add pb (Op.Arith outs) [ src ] in
        match Op.out_schema (Op.Arith outs) [ schema ] with
        | Ok s -> Some (node, s, "arith")
        | Error _ -> None
      end
      else if choice < 65 then begin
        let src2, schema2 = pick () in
        let node = Plan.add pb (Op.Join { key_arity = 1 }) [ src; src2 ] in
        match Op.out_schema (Op.Join { key_arity = 1 }) [ schema; schema2 ] with
        | Ok s -> Some (node, s, "join")
        | Error _ -> None
      end
      else if choice < 72 then begin
        let src2, _ = pick () in
        let kind =
          if irand 2 = 0 then Op.Semijoin { key_arity = 1 }
          else Op.Antijoin { key_arity = 1 }
        in
        Some (Plan.add pb kind [ src; src2 ], schema, Op.name kind)
      end
      else if choice < 85 then begin
        (* set op needs an equal-arity partner *)
        let partners =
          List.filter (fun (_, s2) -> Schema.arity s2 = ar) !sources
        in
        let src2, _ = List.nth partners (irand (List.length partners)) in
        let kind =
          List.nth
            [
              Op.Union { key_arity = 1 };
              Op.Intersect { key_arity = 1 };
              Op.Difference { key_arity = 1 };
            ]
            (irand 3)
        in
        Some (Plan.add pb kind [ src; src2 ], schema, Op.name kind)
      end
      else if choice < 90 then
        Some (Plan.add pb (Op.Sort { key_arity = 1 }) [ src ], schema, "sort")
      else if choice < 95 then
        Some (Plan.add pb (Op.Unique { key_arity = 1 }) [ src ], schema, "unique")
      else begin
        let aggs =
          [
            { Op.fn = Op.Sum; expr = Pred.Attr (irand ar); agg_name = "s" };
            { Op.fn = Op.Count; expr = Pred.Attr 0; agg_name = "n" };
            { Op.fn = Op.Max; expr = Pred.Attr (irand ar); agg_name = "m" };
          ]
        in
        let kind = Op.Aggregate { group_by = [ irand ar ]; aggs } in
        let node = Plan.add pb kind [ src ] in
        match Op.out_schema kind [ schema ] with
        | Ok s -> Some (node, s, "aggregate")
        | Error _ -> None
      end
      with Invalid_argument _ ->
        (* e.g. joining on mismatched key dtypes after a permuting
           project: skip the op *)
        None
    in
    match added with
    | Some (node, schema, d) ->
        add node schema;
        descs := d :: !descs
    | None -> ()
  done;
  let plan = Plan.build pb in
  let gen = Generator.make_state (seed lxor 0xdead) in
  let bases =
    Array.init (Plan.base_count plan) (fun i ->
        let rows = irand 150 in
        Generator.random_relation ~key_range ~sorted_key_arity:1 gen
          (Plan.base_schema plan i) ~count:rows)
  in
  (* keep attribute values small so predicates actually bite *)
  let bases =
    Array.map
      (fun r ->
        let s = Relation.schema r in
        Rel_ops.map s
          (Array.init (Schema.arity s) (fun j d o ->
               if Dtype.is_float (Schema.dtype s j) then d.(o + j)
               else d.(o + j) mod (2 * key_range)))
          r)
      bases
  in
  {
    plan;
    bases;
    desc =
      Printf.sprintf "seed=%d ops=[%s]" seed (String.concat "," (List.rev !descs));
  }

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let fusion_correct seed =
  let { plan; bases; desc } = build_random seed in
  let reference = Reference.eval_sinks plan bases in
  let cmp =
    Weaver.Driver.compare_fusion plan bases ~mode:Weaver.Runtime.Resident
  in
  (* compare_fusion already checks fused == unfused; check vs oracle *)
  if
    not
      (Weaver.Driver.results_agree reference
         cmp.Weaver.Driver.fused.Weaver.Runtime.sinks)
  then QCheck.Test.fail_reportf "mismatch vs reference: %s" desc
  else true

let prop_fusion_correct =
  QCheck.Test.make ~name:"fused == unfused == reference" ~count:120 arb_seed
    fusion_correct

(* seed 82309 once drew no operator at all *)
let test_seed_82309 () =
  Alcotest.(check bool) "fused == unfused == reference" true
    (fusion_correct 82309)

let prop_streamed_matches_resident =
  QCheck.Test.make ~name:"streamed == resident" ~count:60 arb_seed (fun seed ->
      let { plan; bases; desc } = build_random (seed + 7_000_000) in
      let program = Weaver.Driver.compile plan in
      let a = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
      let b = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Streamed in
      if not (Weaver.Driver.results_agree a.Weaver.Runtime.sinks b.Weaver.Runtime.sinks)
      then QCheck.Test.fail_reportf "mode mismatch: %s" desc
      else true)

let prop_opt_levels_agree =
  QCheck.Test.make ~name:"O0 == O3" ~count:60 arb_seed (fun seed ->
      let { plan; bases; desc } = build_random (seed + 3_000_000) in
      let p0 = Weaver.Driver.compile ~opt:Weaver.Optimizer.O0 plan in
      let p3 = Weaver.Driver.compile ~opt:Weaver.Optimizer.O3 plan in
      let a = Weaver.Driver.run p0 bases ~mode:Weaver.Runtime.Resident in
      let b = Weaver.Driver.run p3 bases ~mode:Weaver.Runtime.Resident in
      if not (Weaver.Driver.results_agree a.Weaver.Runtime.sinks b.Weaver.Runtime.sinks)
      then QCheck.Test.fail_reportf "opt mismatch: %s" desc
      else true)

let prop_tiny_device =
  (* a deliberately starved device forces aggressive splitting and small
     capacities; correctness must survive *)
  QCheck.Test.make ~name:"correct on a tiny device" ~count:40 arb_seed
    (fun seed ->
      let { plan; bases; desc } = build_random (seed + 11_000_000) in
      let config =
        {
          Weaver.Config.default with
          Weaver.Config.device = Gpu_sim.Device.tiny;
          cta_threads = 16;
          cap = 32;
          min_cap = 8;
          broadcast_cap = 256;
          max_groups = 64;
        }
      in
      let reference = Reference.eval_sinks plan bases in
      match Weaver.Driver.compare_fusion ~config plan bases ~mode:Weaver.Runtime.Resident with
      | cmp ->
          if
            not
              (Weaver.Driver.results_agree reference
                 cmp.Weaver.Driver.fused.Weaver.Runtime.sinks)
          then QCheck.Test.fail_reportf "tiny-device mismatch: %s" desc
          else true
      | exception Weaver.Runtime.Execution_error _ ->
          (* a starved device may legitimately refuse (e.g. a broadcast too
             large for its shared memory) — that is not a soundness bug *)
          true)

let prop_deadlines_sound =
  (* deadline soundness, both directions: a budget strictly above the
     measured solo cost must never fire (the run completes, answers
     unchanged), and a zero budget must always fire — with the typed
     deadline fault and not a single leaked device buffer *)
  QCheck.Test.make ~name:"deadline fires iff budget insufficient" ~count:40
    arb_seed (fun seed ->
      let { plan; bases; desc } = build_random (seed + 17_000_000) in
      let program = Weaver.Driver.compile plan in
      let solo = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
      let t = Weaver.Metrics.total_cycles solo.Weaver.Runtime.metrics in
      let batch deadline =
        Weaver.Service.run_batch
          [
            Weaver.Service.request ~deadline_cycles:deadline ~rid:0 program
              bases;
          ]
      in
      (match batch (t +. 1.0) with
      | [ { Weaver.Service.verdict = Weaver.Service.Completed r; _ } ], _ ->
          if
            not
              (Weaver.Driver.results_agree solo.Weaver.Runtime.sinks
                 r.Weaver.Runtime.sinks)
          then
            QCheck.Test.fail_reportf "sufficient-deadline answer changed: %s"
              desc
      | _ ->
          QCheck.Test.fail_reportf "deadline above solo cost fired: %s" desc);
      match batch 0.0 with
      | [ { Weaver.Service.verdict = Weaver.Service.Failed f; _ } ], _ -> (
          match f.Weaver.Runtime.fault with
          | Gpu_sim.Fault.Deadline_exceeded _ ->
              if f.Weaver.Runtime.partial.Weaver.Metrics.leaks <> [] then
                QCheck.Test.fail_reportf "zero-deadline run leaked: %s" desc
              else true
          | other ->
              QCheck.Test.fail_reportf "zero deadline raised %s: %s"
                (Gpu_sim.Fault.render other) desc)
      | _ -> QCheck.Test.fail_reportf "zero deadline did not fail: %s" desc)

let prop_budget_bounded =
  (* the retry-budget invariant: whatever a fault storm does to a run,
     recovery spends at most [budget] tokens (retries + fissions +
     demotions), and no outcome leaks a device buffer *)
  QCheck.Test.make ~name:"recovery tokens never exceed the budget" ~count:40
    arb_seed (fun seed ->
      let { plan; bases; desc } = build_random (seed + 23_000_000) in
      let budget = seed mod 6 in
      let config =
        {
          Weaver.Config.default with
          Weaver.Config.faults =
            Some
              (Printf.sprintf "rseed@%d,alloc%%0.1,launch%%0.1,transfer%%0.1"
                 (1 + (seed mod 97)));
          retry_budget = Some budget;
        }
      in
      let program = Weaver.Driver.compile ~config plan in
      let tokens (m : Weaver.Metrics.t) =
        m.Weaver.Metrics.retries + m.Weaver.Metrics.fissions
        + m.Weaver.Metrics.demotions
      in
      match
        Weaver.Runtime.run_result program bases ~mode:Weaver.Runtime.Resident
      with
      | Ok r ->
          if tokens r.Weaver.Runtime.metrics > budget then
            QCheck.Test.fail_reportf "budget %d exceeded on success: %s" budget
              desc
          else if r.Weaver.Runtime.metrics.Weaver.Metrics.leaks <> [] then
            QCheck.Test.fail_reportf "storm survivor leaked: %s" desc
          else true
      | Error f ->
          if tokens f.Weaver.Runtime.partial > budget then
            QCheck.Test.fail_reportf "budget %d exceeded on failure: %s" budget
              desc
          else if f.Weaver.Runtime.partial.Weaver.Metrics.leaks <> [] then
            QCheck.Test.fail_reportf "storm failure leaked: %s" desc
          else true)

let prop_deadline_veto_sound =
  (* the deadline-cost veto: recovery must never start an attempt whose
     estimate exceeds the remaining deadline budget. Evidence: every
     Deadline_too_close veto carries estimate > remaining, and the run's
     spent cycles at veto time are still within the deadline — the fast
     failure fired INSTEAD of the doomed attempt, not after it *)
  QCheck.Test.make ~name:"vetoed attempts never start past the deadline"
    ~count:40 arb_seed (fun seed ->
      let { plan; bases; desc } = build_random (seed + 29_000_000) in
      let program0 = Weaver.Driver.compile plan in
      let solo = Weaver.Driver.run program0 bases ~mode:Weaver.Runtime.Resident in
      let t = Weaver.Metrics.total_cycles solo.Weaver.Runtime.metrics in
      let deadline = (0.5 *. t) +. 1.0 in
      let config =
        {
          Weaver.Config.default with
          Weaver.Config.faults =
            Some
              (Printf.sprintf "rseed@%d,alloc%%0.15,launch%%0.15,transfer%%0.15"
                 (1 + (seed mod 89)));
          retry_budget = Some 4;
          deadline_cycles = Some deadline;
        }
      in
      let program = Weaver.Driver.compile ~config plan in
      match
        Weaver.Runtime.run_result program bases ~mode:Weaver.Runtime.Resident
      with
      | Ok r ->
          if r.Weaver.Runtime.metrics.Weaver.Metrics.leaks <> [] then
            QCheck.Test.fail_reportf "survivor leaked: %s" desc
          else true
      | Error f -> (
          if f.Weaver.Runtime.partial.Weaver.Metrics.leaks <> [] then
            QCheck.Test.fail_reportf "failure leaked: %s" desc
          else
            match f.Weaver.Runtime.fault with
            | Gpu_sim.Fault.Budget_vetoed
                {
                  reason =
                    Gpu_sim.Fault.Deadline_too_close { estimated; remaining };
                  _;
                } ->
                if estimated <= remaining then
                  QCheck.Test.fail_reportf
                    "veto with estimate %.0f <= remaining %.0f: %s" estimated
                    remaining desc
                else if
                  Weaver.Metrics.total_cycles f.Weaver.Runtime.partial
                  > deadline
                then
                  QCheck.Test.fail_reportf
                    "veto fired after overshooting the deadline: %s" desc
                else true
            | _ -> true))

let prop_storm_spec_roundtrip =
  (* the canonical printer is total over the storm grammar: for ANY
     schedule — one-shot events, windows, rate rules, decorrelation
     seeds, every kind including :flip — [of_spec (to_spec t)] preserves
     the events and rules exactly. Rates are drawn from k/64 so the
     decimal rendering is exact and equality is not a float accident. *)
  let open Gpu_sim in
  let gen_storm =
    QCheck.Gen.(
      let site =
        oneofl
          [ Fault_inject.Alloc; Fault_inject.Launch; Fault_inject.Transfer ]
      in
      let kind =
        oneofl
          [
            Fault_inject.Trap Fault.Cap_staging;
            Fault_inject.Trap Fault.Cap_input_tile;
            Fault_inject.Trap Fault.Cap_groups;
            Fault_inject.Flip;
          ]
      in
      let event =
        map2
          (fun (s, k) (at, count) ->
            { Fault_inject.site = s; at; count; kind = k })
          (pair site kind)
          (pair (int_range 1 50) (int_range 1 4))
      in
      let rule =
        map2
          (fun (s, k) ((num, rseed), (first, len)) ->
            {
              Fault_inject.rsite = s;
              rate = float_of_int num /. 64.0;
              rseed;
              first;
              last = (if len = 0 then None else Some (first + len - 1));
              rkind = k;
            })
          (pair site kind)
          (pair
             (pair (int_range 1 64) (int_range 1 99))
             (pair (int_range 1 30) (int_range 0 10)))
      in
      pair (list_size (int_range 0 5) event) (list_size (int_range 0 5) rule))
  in
  let arb =
    QCheck.make gen_storm ~print:(fun (events, rules) ->
        if events = [] && rules = [] then "<empty>"
        else Fault_inject.to_spec (Fault_inject.create ~rules events))
  in
  QCheck.Test.make ~name:"storm spec printer round-trips" ~count:300 arb
    (fun (events, rules) ->
      if events = [] && rules = [] then true
      else
        let t = Fault_inject.create ~rules events in
        let spec = Fault_inject.to_spec t in
        let t' = Fault_inject.of_spec spec in
        if not (List.equal Fault_inject.equal_event events (Fault_inject.events t'))
        then QCheck.Test.fail_reportf "events mangled via %S" spec
        else if
          not (List.equal Fault_inject.equal_rule rules (Fault_inject.rules t'))
        then QCheck.Test.fail_reportf "rules mangled via %S" spec
        else true)

let suite =
  ("random plan seed 82309", `Quick, test_seed_82309)
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_fusion_correct;
      prop_streamed_matches_resident;
      prop_opt_levels_agree;
      prop_tiny_device;
      prop_deadlines_sound;
      prop_budget_bounded;
      prop_deadline_veto_sound;
      prop_storm_spec_roundtrip;
    ]
