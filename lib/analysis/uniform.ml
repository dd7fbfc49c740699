open Gpu_sim

type t = {
  cfg_ : Cfg.t;
  in_ : Dataflow.Bits.t array;  (* per block: varying registers on entry *)
  divergent_ : bool array;
  tainted_ : bool array;
}

let divergent t b = t.divergent_.(b)
let tainted_block t b = t.tainted_.(b)

let step_instr nregs tainted ins cur =
  match Kir.defined_reg ins with
  | Some d when d >= 0 && d < nregs ->
      let op_varying =
        List.exists
          (function
            | Kir.Reg r -> r >= 0 && r < nregs && Dataflow.Bits.get cur r
            | Kir.Imm _ -> false)
          (Kir.used_operands ins)
      in
      let atom = match ins with Kir.Atom _ -> true | _ -> false in
      if op_varying || tainted || atom then Dataflow.Bits.set cur d
      else Dataflow.Bits.clear cur d
  | _ -> ()

let varying_at t ~at r =
  let k = Cfg.kernel t.cfg_ in
  let nregs = k.Kir.reg_count in
  let b = Cfg.block_of t.cfg_ at in
  let cur = Dataflow.Bits.copy t.in_.(b) in
  let blk = Cfg.block t.cfg_ b in
  for i = blk.Cfg.first to at - 1 do
    step_instr nregs t.tainted_.(b) k.Kir.body.(i) cur
  done;
  r >= 0 && r < nregs && Dataflow.Bits.get cur r

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let nb = Cfg.nblocks cfg_ in
  let tainted_ = Array.make (max nb 1) false in
  let boundary = Dataflow.Bits.create (max nregs 1) in
  if nregs > 0 then Dataflow.Bits.set boundary 0;
  let transfer b facts =
    let cur = Dataflow.Bits.copy facts in
    let blk = Cfg.block cfg_ b in
    for i = blk.Cfg.first to blk.Cfg.last do
      step_instr nregs tainted_.(b) k.Kir.body.(i) cur
    done;
    cur
  in
  (* Taint only grows between solves, so each transfer grows pointwise
     and the previous fixpoint lies below the next one: every re-solve
     starts from it. *)
  let solve start =
    Dataflow.solve ?start ~nblocks:nb ~direction:`Forward
      ~succs:(fun b -> (Cfg.block cfg_ b).Cfg.succs)
      ~preds:(fun b -> (Cfg.block cfg_ b).Cfg.preds)
      ~boundary ~transfer ()
  in
  let t = { cfg_; in_ = [||]; divergent_ = Array.make (max nb 1) false; tainted_ } in
  let rec fix t start =
    let ((in_, _) as fixpoint) = solve start in
    let t = { t with in_ } in
    let progress = ref false in
    for b = 0 to nb - 1 do
      if (not t.divergent_.(b)) && Cfg.preachable cfg_ b then begin
        let blk = Cfg.block cfg_ b in
        let two_way = match Cfg.psuccs cfg_ b with _ :: _ :: _ -> true | _ -> false in
        let cond_varying =
          match k.Kir.body.(blk.Cfg.last) with
          | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) -> varying_at t ~at:blk.Cfg.last c
          | _ -> false
        in
        if two_way && cond_varying then begin
          t.divergent_.(b) <- true;
          List.iter (fun r -> tainted_.(r) <- true) (Cfg.influence cfg_ b);
          progress := true
        end
      end
    done;
    if !progress then fix t (Some fixpoint) else t
  in
  fix t None
