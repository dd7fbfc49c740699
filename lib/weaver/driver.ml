open Qplan
open Relation_lib

let barrier_unit plan id =
  let n = Plan.node plan id in
  let source = match n.Plan.inputs with [ s ] -> s | _ -> assert false in
  match n.Plan.kind with
  | Op.Sort { key_arity } -> Runtime.U_sort { op_id = id; key_arity; source }
  | Op.Unique { key_arity } -> Runtime.U_unique { op_id = id; key_arity; source }
  | Op.Aggregate { group_by; aggs } ->
      let in_schema = Plan.schema_of plan source in
      Runtime.U_aggregate
        {
          op_id = id;
          source;
          lay = Ra_lib.Aggregate_emit.layout in_schema ~group_by:group_by ~aggs;
        }
  | _ -> assert false

let unit_produces = function
  | Runtime.U_fused { ir; _ } -> ir.Fusion.op_ids
  | Runtime.U_sort { op_id; _ }
  | Runtime.U_unique { op_id; _ }
  | Runtime.U_aggregate { op_id; _ } ->
      [ op_id ]

(* Kahn topological sort of units, preferring lower producing op ids so the
   order is deterministic. *)
let topo_units units =
  let n = List.length units in
  let arr = Array.of_list units in
  let producer = Hashtbl.create 16 in
  Array.iteri
    (fun ui u -> List.iter (fun id -> Hashtbl.replace producer id ui) (unit_produces u))
    arr;
  let deps =
    Array.map
      (fun u ->
        List.filter_map
          (function
            | Plan.Node j -> Hashtbl.find_opt producer j
            | Plan.Base _ -> None)
          (Runtime.unit_inputs u)
        |> List.sort_uniq Int.compare)
      arr
  in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun ui ds ->
      List.iter
        (fun d ->
          if d <> ui then begin
            indeg.(ui) <- indeg.(ui) + 1;
            succs.(d) <- ui :: succs.(d)
          end)
        ds)
    deps;
  let key ui = List.fold_left min max_int (unit_produces arr.(ui)) in
  let ready = ref (List.filter (fun ui -> indeg.(ui) = 0) (List.init n Fun.id)) in
  let order = ref [] in
  while !ready <> [] do
    let best =
      List.fold_left
        (fun acc ui -> match acc with
           | Some b when key b <= key ui -> acc
           | _ -> Some ui)
        None !ready
    in
    let ui = Option.get best in
    ready := List.filter (fun x -> x <> ui) !ready;
    order := ui :: !order;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      succs.(ui)
  done;
  if List.length !order <> n then
    raise
      (Runtime.Execution_error
         (Gpu_sim.Fault.Host_error "cyclic unit dependence (non-convex group)"));
  List.rev_map (fun ui -> arr.(ui)) !order

let compile ?(config = Config.default) ?(fuse = true) ?(opt = Optimizer.O3)
    ?(trace = Weaver_obs.Trace.none) plan =
  Weaver_obs.Trace.with_span trace ~lane:Weaver_obs.Trace.Driver "compile"
  @@ fun () ->
  let groups =
    if fuse then
      Candidates.groups ~input_sharing:config.Config.input_sharing plan
      |> List.concat_map
           (Selection.select ~plan
              ~estimate:(Layout.estimate config plan)
              ~budget:(Config.budget config))
    else
      Candidates.groups ~input_sharing:false plan
      |> List.concat_map (List.map (fun id -> [ id ]))
  in
  let fused_units =
    List.map
      (fun g ->
        let name = Printf.sprintf "group%d" (List.fold_left min max_int g) in
        match Fusion.build plan g with
        | ir -> Runtime.U_fused { name; ir }
        | exception Fusion.Infeasible msg ->
            raise
              (Runtime.Execution_error
                 (Gpu_sim.Fault.Host_error
                    (Printf.sprintf "group %s cannot be woven: %s" name msg))))
      groups
  in
  let barrier_units = List.map (barrier_unit plan) (Candidates.barriers plan) in
  let units = topo_units (fused_units @ barrier_units) in
  { Runtime.plan; config; opt; units; groups; memo = Runtime.memo () }

let run = Runtime.run

type comparison = {
  fused : Runtime.result;
  unfused : Runtime.result;
  fused_program : Runtime.program;
  unfused_program : Runtime.program;
}

let results_agree a b =
  List.for_all2
    (fun (ida, ra) (idb, rb) ->
      ida = idb
      &&
      let has_float =
        let s = Relation.schema ra in
        List.exists
          (fun j -> Dtype.is_float (Schema.dtype s j))
          (List.init (Schema.arity s) Fun.id)
      in
      if has_float then Relation.approx_equal ra rb
      else Relation.equal_multiset ra rb)
    a b

let compare_fusion ?config ?opt plan bases ~mode =
  let fused_program = compile ?config ?opt ~fuse:true plan in
  let unfused_program = compile ?config ?opt ~fuse:false plan in
  let fused = Runtime.run fused_program bases ~mode in
  let unfused = Runtime.run unfused_program bases ~mode in
  if not (results_agree fused.Runtime.sinks unfused.Runtime.sinks) then
    raise
      (Runtime.Execution_error
         (Gpu_sim.Fault.Host_error
            "fusion changed query results (fused and unfused sinks differ)"));
  { fused; unfused; fused_program; unfused_program }

let speedup ~baseline ~improved =
  Metrics.total_cycles baseline /. Metrics.total_cycles improved

let group_summary (p : Runtime.program) =
  let b = Buffer.create 256 in
  List.iter
    (fun u ->
      match u with
      | Runtime.U_fused { name; ir } ->
          Buffer.add_string b
            (Printf.sprintf "%s: fused [%s] (%d inputs, %d outputs, key=%d)\n"
               name
               (String.concat ", "
                  (List.map
                     (fun id ->
                       Op.name (Plan.node p.Runtime.plan id).Plan.kind)
                     ir.Fusion.op_ids))
               (Array.length ir.Fusion.inputs)
               (Array.length ir.Fusion.outputs)
               ir.Fusion.key_arity)
      | Runtime.U_sort { op_id; _ } ->
          Buffer.add_string b (Printf.sprintf "sort%d: modelled SORT\n" op_id)
      | Runtime.U_unique { op_id; _ } ->
          Buffer.add_string b (Printf.sprintf "unique%d: UNIQUE\n" op_id)
      | Runtime.U_aggregate { op_id; _ } ->
          Buffer.add_string b (Printf.sprintf "aggregate%d: AGGREGATE\n" op_id))
    p.Runtime.units;
  Buffer.contents b
