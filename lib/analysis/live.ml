open Gpu_sim

type t = { cfg_ : Cfg.t; in_ : Dataflow.Bits.t array; out : Dataflow.Bits.t array }

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let boundary = Dataflow.Bits.create (max nregs 1) in
  let transfer b facts =
    let cur = Dataflow.Bits.copy facts in
    let blk = Cfg.block cfg_ b in
    let use r = if r >= 0 && r < nregs then Dataflow.Bits.set cur r in
    for i = blk.Cfg.last downto blk.Cfg.first do
      let ins = k.Kir.body.(i) in
      (match Kir.defined_reg ins with
      | Some d when d >= 0 && d < nregs -> Dataflow.Bits.clear cur d
      | _ -> ());
      Kir.iter_used_regs use ins
    done;
    cur
  in
  let in_, out =
    Dataflow.solve ~nblocks:(Cfg.nblocks cfg_) ~direction:`Backward
      ~succs:(fun b -> (Cfg.block cfg_ b).Cfg.succs)
      ~preds:(fun b -> (Cfg.block cfg_ b).Cfg.preds)
      ~boundary ~transfer ()
  in
  { cfg_; in_; out }

let live_in t b = t.in_.(b)
let live_out t b = t.out.(b)

let max_live t ~counted =
  let cfg_ = t.cfg_ in
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let mask = Dataflow.Bits.create (max nregs 1) in
  Dataflow.Bits.fill mask;
  for r = 0 to Dataflow.Bits.length mask - 1 do
    if not (counted r) then Dataflow.Bits.clear mask r
  done;
  let best = ref 0 and best_at = ref 0 in
  let weigh at live =
    let c = Dataflow.Bits.count_inter live mask in
    if c > !best then begin
      best := c;
      best_at := at
    end
  in
  for b = 0 to Cfg.nblocks cfg_ - 1 do
    if Cfg.reachable cfg_ b then begin
      let blk = Cfg.block cfg_ b in
      let cur = Dataflow.Bits.copy t.out.(b) in
      let use r = if r >= 0 && r < nregs then Dataflow.Bits.set cur r in
      weigh blk.Cfg.last cur;
      for i = blk.Cfg.last downto blk.Cfg.first do
        let ins = k.Kir.body.(i) in
        (match Kir.defined_reg ins with
        | Some d when d >= 0 && d < nregs -> Dataflow.Bits.clear cur d
        | _ -> ());
        Kir.iter_used_regs use ins;
        weigh i cur
      done
    end
  done;
  (!best, !best_at)

let dead_defs t defs =
  let cfg_ = t.cfg_ in
  let k = Cfg.kernel cfg_ in
  let n = Array.length k.Kir.body in
  let used_def = Array.make (max n 1) false in
  Cfg.iter_instrs cfg_ (fun i ins ->
      Kir.iter_used_regs
        (fun r ->
          let sites, _entry = Defs.reaching defs ~at:i r in
          List.iter (fun s -> used_def.(s) <- true) sites)
        ins);
  let out = ref [] in
  Cfg.iter_instrs cfg_ (fun i ins ->
      match (ins, Kir.defined_reg ins) with
      | Kir.Atom _, _ -> ()
      | _, Some _ when not used_def.(i) -> out := i :: !out
      | _ -> ());
  List.rev !out
