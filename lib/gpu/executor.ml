type launch_report = {
  kernel_name : string;
  grid : int;
  cta : int;
  occupancy : float;
  limiting_resource : string;
  stats : Stats.t;
  time : Timing.kernel_time;
  attrib : Weaver_obs.Attrib.sample option;
}

module T = Weaver_obs.Trace
module A = Weaver_obs.Attrib

(* Mutable accumulator behind [attrib_sample]; flattened into the
   immutable [Attrib.contrib] at the end. *)
type acc = {
  mutable a_instructions : int;
  mutable a_weight : float;
  mutable a_bytes : int;
  mutable a_shared : int;
  mutable a_atomics : int;
  mutable a_barriers : int;
}

(* Reduce a launch's per-pc execution counts to a per-operator sample.
   Every count lands on the instruction's provenance set: integer event
   totals split evenly across the set (remainders to the lowest op ids,
   the sets are sorted), the modelled thread-cycle weight splits exactly.
   Untagged instructions accrue to the overhead pseudo-operator. The
   reduction is a pure function of the merged counts, which are
   bit-identical across worker counts, so samples are too. *)
let attrib_sample ?(timing = Timing.default_params) (k : Kir.kernel) counts =
  let tbl = Hashtbl.create 16 in
  let acc op =
    match Hashtbl.find_opt tbl op with
    | Some a -> a
    | None ->
        let a =
          {
            a_instructions = 0;
            a_weight = 0.;
            a_bytes = 0;
            a_shared = 0;
            a_atomics = 0;
            a_barriers = 0;
          }
        in
        Hashtbl.replace tbl op a;
        a
  in
  let last = min (Array.length counts) (Array.length k.Kir.body) - 1 in
  for pc = 0 to last do
    let c = counts.(pc) in
    if c > 0 then begin
      let ops =
        match Kir.prov_at k pc with [] -> [ A.overhead_op ] | l -> l
      in
      let bytes, shared, atomics, barriers, extra =
        match k.Kir.body.(pc) with
        | Kir.Ld { space = Kir.Global; width; _ }
        | Kir.St { space = Kir.Global; width; _ } ->
            (c * width, 0, 0, 0, timing.Timing.global_latency_cycles)
        | Kir.Ld { space = Kir.Shared; _ } | Kir.St { space = Kir.Shared; _ }
          ->
            (0, c, 0, 0, timing.Timing.shared_access_cycles)
        | Kir.Atom _ -> (0, 0, c, 0, timing.Timing.atomic_cycles)
        | Kir.Bar -> (0, 0, 0, c, timing.Timing.barrier_cycles)
        | _ -> (0, 0, 0, 0, 0.)
      in
      let w = float_of_int c *. (timing.Timing.alu_cycles +. extra) in
      match ops with
      | [ op ] ->
          let a = acc op in
          a.a_instructions <- a.a_instructions + c;
          a.a_weight <- a.a_weight +. w;
          a.a_bytes <- a.a_bytes + bytes;
          a.a_shared <- a.a_shared + shared;
          a.a_atomics <- a.a_atomics + atomics;
          a.a_barriers <- a.a_barriers + barriers
      | ops ->
          let nops = List.length ops in
          let wf = w /. float_of_int nops in
          let split = A.even_share ~parts:nops in
          List.iteri
            (fun i op ->
              let a = acc op in
              a.a_instructions <- a.a_instructions + split c i;
              a.a_weight <- a.a_weight +. wf;
              a.a_bytes <- a.a_bytes + split bytes i;
              a.a_shared <- a.a_shared + split shared i;
              a.a_atomics <- a.a_atomics + split atomics i;
              a.a_barriers <- a.a_barriers + split barriers i)
            ops
    end
  done;
  Hashtbl.fold
    (fun op a l ->
      ( op,
        {
          A.c_instructions = a.a_instructions;
          c_weight = a.a_weight;
          c_global_bytes = a.a_bytes;
          c_shared = a.a_shared;
          c_atomics = a.a_atomics;
          c_barriers = a.a_barriers;
        } )
      :: l)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Top instruction counts folded into the launch span, so a trace subsumes
   the standalone profiler view. Counts are bit-identical across worker
   counts (the per-worker profiles merge deterministically), so these args
   never break trace determinism. *)
let hot_args (k : Kir.kernel) counts =
  let indexed = Array.to_list (Array.mapi (fun i c -> (i, c)) counts) in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) indexed in
  let rec take n = function
    | (i, c) :: rest when n > 0 && c > 0 ->
        (i, c) :: take (n - 1) rest
    | _ -> []
  in
  List.mapi
    (fun rank (i, c) ->
      ( Printf.sprintf "hot%d" rank,
        T.Str (Format.asprintf "%dx pc%d %a" c i Kir.pp_instr k.Kir.body.(i)) ))
    (take 3 sorted)

let launch ?timing ?jobs ?(faults = Fault_inject.none)
    ?(cancel = Cancel.none) ?(trace = T.none) ?(attrib = false) device mem
    (k : Kir.kernel) ~params ~grid ~cta =
  (match
     Device.validate_launch device ~cta_threads:cta
       ~shared_bytes:k.shared_bytes ~regs_per_thread:k.regs_per_thread
   with
  | Ok () -> ()
  | Error msg ->
      invalid_arg (Printf.sprintf "launch of %s rejected: %s" k.kname msg));
  Cancel.check cancel;
  let sp =
    if T.active trace then
      T.span trace ~lane:T.Kernel k.kname
        ~args:
          (if T.recording trace then [ ("grid", T.Int grid); ("cta", T.Int cta) ]
           else [])
    else T.no_span
  in
  (try Fault_inject.on_launch faults ~kernel:k.kname
   with e ->
     if T.active trace then begin
       T.instant trace ~lane:T.Kernel "launch_fault";
       T.close trace sp
     end;
     raise e);
  match
    let profile =
      if T.recording trace || attrib then
        Some (Array.make (max 1 (Kir.instr_count k)) 0)
      else None
    in
    let stats =
      Interp.run ?jobs ?profile ~cancel ~trace mem k ~params
        ~grid ~cta
    in
    let occupancy =
      Occupancy.occupancy device ~cta_threads:cta ~shared_bytes:k.shared_bytes
        ~regs_per_thread:k.regs_per_thread
    in
    let limiting_resource =
      Occupancy.limiting_resource device ~cta_threads:cta
        ~shared_bytes:k.shared_bytes ~regs_per_thread:k.regs_per_thread
    in
    let time = Timing.kernel_time ?params:timing device ~occupancy stats in
    let sample =
      if attrib then Option.map (attrib_sample ?timing k) profile else None
    in
    ( profile,
      {
        kernel_name = k.kname;
        grid;
        cta;
        occupancy;
        limiting_resource;
        stats;
        time;
        attrib = sample;
      } )
  with
  | exception e ->
      if T.active trace then begin
        (match e with
        | Fault.Error f ->
            T.instant trace ~lane:T.Kernel "trap"
              ~args:
                (if T.recording trace then [ ("detail", T.Str (Fault.render f)) ]
                 else [])
        | _ -> ());
        T.close trace sp
      end;
      raise e
  | profile, report ->
      if T.active trace then begin
        T.advance trace report.time.Timing.total_cycles;
        let args =
          if T.recording trace then
            ("occupancy", T.Float report.occupancy)
            :: ("instructions", T.Int report.stats.Stats.instructions)
            :: (match profile with Some c -> hot_args k c | None -> [])
          else []
        in
        T.close trace sp ~args
      end;
      report

let total_cycles reports =
  List.fold_left (fun acc r -> acc +. r.time.Timing.total_cycles) 0.0 reports

let sum_stats reports =
  let acc = Stats.create () in
  List.iter (fun r -> Stats.add acc r.stats) reports;
  acc

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s <<<%d, %d>>> occupancy %.2f (limited by %s)@ cycles: %.0f \
     (compute %.0f, memory %.0f, launch %.0f)@ %a@]"
    r.kernel_name r.grid r.cta r.occupancy r.limiting_resource
    r.time.Timing.total_cycles r.time.Timing.compute_cycles
    r.time.Timing.memory_cycles r.time.Timing.launch_cycles Stats.pp r.stats
