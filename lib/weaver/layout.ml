open Relation_lib
open Qplan

type seg_scratch =
  | S_none
  | S_pipe of { flags : int; scratch : Ra_lib.Tile.t; total : int }
  | S_counts of { counts : int; curs : int; total : int }
  | S_union of { counts_l : int; counts_r : int; total_l : int; total_r : int }

type t = {
  cap : int;
  input_caps : int array;
  tiles : Ra_lib.Tile.t array;
  tile_caps : int array;
  seg_scratch : seg_scratch array;
  out_caps : int array;
  shared_words : int;
  shared_bytes : int;
  regs_per_thread : int;
}

let op_regs (k : Op.kind) =
  match k with
  | Op.Select _ -> 17
  | Op.Project _ -> 11
  | Op.Arith _ -> 14
  | Op.Join _ -> 47
  | Op.Semijoin _ -> 36
  | Op.Antijoin _ -> 36
  | Op.Product -> 30
  | Op.Union _ -> 34
  | Op.Intersect _ -> 33
  | Op.Difference _ -> 33
  | Op.Sort _ -> 36
  | Op.Unique _ -> 20
  | Op.Aggregate _ -> 28

(* §4.3.3: stages execute sequentially, so registers are the maximum over
   the fused operators' own needs plus what passes between stages — here
   the per-input range registers (tile counts live in shared memory). *)
let estimate_regs (config : Config.t) plan group =
  let in_group id = List.exists (Int.equal id) group in
  let kinds = List.map (fun id -> (Plan.node plan id).Plan.kind) group in
  let base = List.fold_left (fun m k -> max m (op_regs k)) 8 kinds in
  let external_inputs =
    List.concat_map
      (fun id ->
        List.filter
          (function Plan.Node j -> not (in_group j) | Plan.Base _ -> true)
          (Plan.node plan id).Plan.inputs)
      group
    |> List.sort_uniq Plan.compare_source
  in
  (* past the device's hard limit a real compiler spills to local
     memory; we clamp (the spill traffic is not modelled) *)
  min config.device.Gpu_sim.Device.max_registers_per_thread
    (base + 2 + List.length external_inputs)

(* Try to lay the group out with driving capacity [cap].
   [seg_expansion si] gives the join-output expansion factor for segment
   [si] (runtime retries scale only the segment that overflowed). *)
let attempt ?seg_expansion (config : Config.t) plan (ir : Fusion.t) cap =
  let seg_expansion =
    match seg_expansion with
    | Some f -> f
    | None -> fun _ -> config.join_expansion
  in
  let input_caps =
    Array.map
      (fun (info : Fusion.input_info) ->
        match info.spec with
        | Ra_lib.Partition_emit.Even -> cap
        | Ra_lib.Partition_emit.Keyed -> cap * config.aux_factor
        | Ra_lib.Partition_emit.Full -> config.broadcast_cap)
      ir.inputs
  in
  let n_tiles = Array.length ir.tiles in
  let tile_caps = Array.make n_tiles 0 in
  let place_cap = function
    | Fusion.From_input i -> input_caps.(i)
    | Fusion.From_tile t -> tile_caps.(t)
  in
  let n_outputs = Array.length ir.outputs in
  let out_caps = Array.make n_outputs 0 in
  (* first pass: tile and output capacities, in segment order *)
  List.iteri
    (fun si seg ->
      match seg with
      | Fusion.Load { input; tile } -> tile_caps.(tile) <- input_caps.(input)
      | Fusion.Pipe { input; dest; _ } ->
          let c = place_cap input in
          (match dest.Fusion.to_tile with
          | Some t -> tile_caps.(t) <- c
          | None -> ());
          (match dest.Fusion.to_output with
          | Some o -> out_caps.(o) <- c
          | None -> ())
      | Fusion.Bin { kind; left; right; dest; _ } ->
          let cl = place_cap left and cr = place_cap right in
          let out =
            match kind with
            | Fusion.B_join _ ->
                (* optimistic: joins are expected to stay near their
                   driving slice size (FK joins), so chains don't compound;
                   the runtime retries the overflowing segment with a
                   doubled expansion on trap *)
                seg_expansion si * cap * config.aux_factor
            | Fusion.B_product -> cl * cr
            | Fusion.B_union _ -> cl + cr
            | Fusion.B_semijoin _ | Fusion.B_antijoin _ | Fusion.B_intersect _
            | Fusion.B_difference _ ->
                cl
          in
          (match dest.Fusion.to_tile with
          | Some t -> tile_caps.(t) <- out
          | None -> ());
          (match dest.Fusion.to_output with
          | Some o -> out_caps.(o) <- out
          | None -> ()))
    ir.segments;
  (* second pass: assign word offsets; persistent tiles first *)
  let next_word = ref 0 in
  let bytes = ref 0 in
  let alloc words bs =
    let base = !next_word in
    next_word := !next_word + words;
    bytes := !bytes + bs;
    base
  in
  let tiles =
    Array.init n_tiles (fun i ->
        let schema = ir.tiles.(i) in
        let c = tile_caps.(i) in
        let base = alloc (c * Schema.arity schema) (c * Schema.tuple_bytes schema) in
        let cnt = alloc 1 4 in
        { Ra_lib.Tile.base; cap = c; schema; cnt })
  in
  (* scratch arena: overlaid per-segment regions, sized by the largest *)
  let arena_base = !next_word in
  let arena_words = ref 0 in
  let arena_bytes = ref 0 in
  let seg_scratch =
    List.map
      (fun seg ->
        let local = ref 0 and local_bytes = ref 0 in
        let salloc words bs =
          let b = arena_base + !local in
          local := !local + words;
          local_bytes := !local_bytes + bs;
          b
        in
        let s =
          match seg with
          | Fusion.Load _ -> S_none
          | Fusion.Pipe { input; out_schema; _ } ->
              let c = place_cap input in
              let flags = salloc c (4 * c) in
              let sbase =
                salloc (c * Schema.arity out_schema)
                  (c * Schema.tuple_bytes out_schema)
              in
              let total = salloc 1 4 in
              S_pipe
                {
                  flags;
                  scratch =
                    {
                      Ra_lib.Tile.base = sbase;
                      cap = c;
                      schema = out_schema;
                      cnt = total;
                    };
                  total;
                }
          | Fusion.Bin { kind; left; right; _ } -> (
              let cl = place_cap left and cr = place_cap right in
              match kind with
              | Fusion.B_product -> S_none
              | Fusion.B_join _ | Fusion.B_semijoin _ | Fusion.B_antijoin _
              | Fusion.B_intersect _ | Fusion.B_difference _ ->
                  let counts = salloc cl (4 * cl) in
                  let curs = salloc cl (4 * cl) in
                  let total = salloc 1 4 in
                  S_counts { counts; curs; total }
              | Fusion.B_union _ ->
                  let counts_l = salloc cl (4 * cl) in
                  let counts_r = salloc cr (4 * cr) in
                  let total_l = salloc 1 4 in
                  let total_r = salloc 1 4 in
                  S_union { counts_l; counts_r; total_l; total_r })
        in
        arena_words := max !arena_words !local;
        arena_bytes := max !arena_bytes !local_bytes;
        s)
      ir.segments
  in
  let shared_words = !next_word + !arena_words in
  let shared_bytes = !bytes + !arena_bytes in
  {
    cap;
    input_caps;
    tiles;
    tile_caps;
    seg_scratch = Array.of_list seg_scratch;
    out_caps;
    shared_words;
    shared_bytes;
    regs_per_thread = estimate_regs config plan ir.op_ids;
  }

let compute ?fixed_cap ?seg_expansion (config : Config.t) plan ir =
  let device = config.device in
  let budget = device.Gpu_sim.Device.max_shared_mem_per_cta in
  match fixed_cap with
  | Some cap ->
      let l = attempt ?seg_expansion config plan ir cap in
      if l.shared_bytes <= budget then l
      else
        raise
          (Fusion.Infeasible
             (Printf.sprintf
                "group needs %d B of shared memory at pinned capacity %d \
                 (budget %d)"
                l.shared_bytes cap budget))
  | None ->
  (* Among fitting capacities prefer the largest that still keeps the SM
     busy: a maximal tile that leaves one resident CTA starves the
     latency-hiding the cost model (and a real GPU) depends on.  The
     paper observes exactly this trade-off in Table 3. *)
  let occupancy_of l =
    Gpu_sim.Occupancy.occupancy device ~cta_threads:config.cta_threads
      ~shared_bytes:l.shared_bytes ~regs_per_thread:l.regs_per_thread
  in
  let target = Gpu_sim.Timing.default_params.compute_saturation_occupancy in
  let rec candidates cap acc =
    let l = attempt ?seg_expansion config plan ir cap in
    let acc = if l.shared_bytes <= budget then l :: acc else acc in
    if cap / 2 >= config.min_cap then candidates (cap / 2) acc else acc
  in
  match candidates config.cap [] with
  | [] ->
      let l = attempt ?seg_expansion config plan ir config.min_cap in
      raise
        (Fusion.Infeasible
           (Printf.sprintf
              "group needs %d B of shared memory even at capacity %d (budget %d)"
              l.shared_bytes config.min_cap budget))
  | fitting ->
      let saturated = List.filter (fun l -> occupancy_of l >= target) fitting in
      let largest = function
        | [] -> None
        | l ->
            Some
              (List.fold_left
                 (fun a b -> if b.cap >= a.cap then b else a)
                 (List.hd l) l)
      in
      (match largest saturated with
      | Some l -> l
      | None ->
          (* nothing reaches the target: among the near-best-occupancy
             candidates take the largest capacity (bigger slices amortize
             per-CTA overheads and tolerate key-run fluctuations) *)
          let best =
            List.fold_left (fun a l -> Float.max a (occupancy_of l)) 0.0 fitting
          in
          let near =
            List.filter (fun l -> occupancy_of l >= 0.95 *. best) fitting
          in
          Option.get (largest near))

let estimate config plan group =
  match
    let ir = Fusion.build plan group in
    compute config plan ir
  with
  | l ->
      {
        Selection.regs_per_thread = l.regs_per_thread;
        shared_bytes = l.shared_bytes;
      }
  | exception Fusion.Infeasible _ ->
      { Selection.regs_per_thread = max_int; shared_bytes = max_int }
