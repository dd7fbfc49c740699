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

(* Reduce a launch's per-pc execution counts to a per-operator sample.
   Every count lands on the instruction's provenance set: integer event
   totals split evenly across the set (remainders to the lowest op ids,
   the sets are sorted), the modelled thread-cycle weight splits exactly.
   Untagged instructions accrue to the overhead pseudo-operator. Operator
   ids are small, so the totals accumulate in arrays indexed by id, in pc
   order. The reduction is a pure function of the merged counts, which
   are bit-identical across worker counts, so samples are too. *)
let attrib_sample (k : Kir.kernel) counts =
  let timing = Timing.default_params in
  let last = min (Array.length counts) (Array.length k.Kir.body) - 1 in
  let lo = ref A.overhead_op and hi = ref A.overhead_op in
  for pc = 0 to last do
    List.iter
      (fun op ->
        if op < !lo then lo := op;
        if op > !hi then hi := op)
      (Kir.prov_at k pc)
  done;
  let lo = !lo and m = !hi - !lo + 1 in
  let seen = Array.make m false and instructions = Array.make m 0 in
  let weight = Array.make m 0. and bytes = Array.make m 0 in
  let shared = Array.make m 0 and atomics = Array.make m 0 in
  let barriers = Array.make m 0 in
  let add op c w b s a r =
    let i = op - lo in
    seen.(i) <- true;
    instructions.(i) <- instructions.(i) + c;
    weight.(i) <- weight.(i) +. w;
    bytes.(i) <- bytes.(i) + b;
    shared.(i) <- shared.(i) + s;
    atomics.(i) <- atomics.(i) + a;
    barriers.(i) <- barriers.(i) + r
  in
  for pc = 0 to last do
    let c = counts.(pc) in
    if c > 0 then begin
      let b, s, a, r, extra =
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
      match Kir.prov_at k pc with
      | [] -> add A.overhead_op c w b s a r
      | [ op ] -> add op c w b s a r
      | ops ->
          let nops = List.length ops in
          let wf = w /. float_of_int nops in
          let split = A.even_share ~parts:nops in
          List.iteri
            (fun i op ->
              add op (split c i) wf (split b i) (split s i) (split a i)
                (split r i))
            ops
    end
  done;
  let out = ref [] in
  for i = m - 1 downto 0 do
    if seen.(i) then
      out :=
        ( i + lo,
          {
            A.c_instructions = instructions.(i);
            c_weight = weight.(i);
            c_global_bytes = bytes.(i);
            c_shared = shared.(i);
            c_atomics = atomics.(i);
            c_barriers = barriers.(i);
          } )
        :: !out
  done;
  !out

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

let launch ?jobs ?(faults = Fault_inject.none)
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
    let time = Timing.kernel_time device ~occupancy stats in
    let sample =
      if attrib then Option.map (attrib_sample k) profile else None
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
