open Gpu_sim

type t = {
  cfg_ : Cfg.t;
  n : int;
  in_ : Dataflow.Bits.t array;
  def_sites_ : int list array;
  initialized_ : bool array;
}

let cfg t = t.cfg_
let def_sites t r = t.def_sites_.(r)
let initialized t r = t.initialized_.(r)

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let n = Array.length k.Kir.body in
  let nregs = k.Kir.reg_count in
  let def_sites_ = Array.make (max nregs 1) [] in
  for i = n - 1 downto 0 do
    match Kir.defined_reg k.Kir.body.(i) with
    | Some d when d >= 0 && d < nregs -> def_sites_.(d) <- i :: def_sites_.(d)
    | _ -> ()
  done;
  let initialized_ =
    Array.init (max nregs 1) (fun r ->
        r < Kir.special_regs + k.Kir.params)
  in
  let nbits = n + nregs in
  let boundary = Dataflow.Bits.create nbits in
  for r = 0 to nregs - 1 do
    Dataflow.Bits.set boundary (n + r)
  done;
  let nb = Cfg.nblocks cfg_ in
  let transfer b facts =
    let cur = Dataflow.Bits.copy facts in
    let blk = Cfg.block cfg_ b in
    for i = blk.Cfg.first to blk.Cfg.last do
      match Kir.defined_reg k.Kir.body.(i) with
      | Some d when d >= 0 && d < nregs ->
          List.iter (fun s -> Dataflow.Bits.clear cur s) def_sites_.(d);
          Dataflow.Bits.clear cur (n + d);
          Dataflow.Bits.set cur i
      | _ -> ()
    done;
    cur
  in
  let in_, _out =
    Dataflow.solve ~nblocks:nb ~direction:`Forward
      ~succs:(fun b -> (Cfg.block cfg_ b).Cfg.succs)
      ~preds:(fun b -> (Cfg.block cfg_ b).Cfg.preds)
      ~boundary ~transfer ()
  in
  { cfg_; n; in_; def_sites_; initialized_ }

let reaching t ~at r =
  let k = Cfg.kernel t.cfg_ in
  let b = Cfg.block_of t.cfg_ at in
  let blk = Cfg.block t.cfg_ b in
  (* a definition of [r] earlier in the same block kills everything *)
  let local = ref None in
  for i = blk.Cfg.first to at - 1 do
    match Kir.defined_reg k.Kir.body.(i) with
    | Some d when d = r -> local := Some i
    | _ -> ()
  done;
  match !local with
  | Some i -> ([ i ], false)
  | None ->
      let facts = t.in_.(b) in
      let sites = List.filter (fun s -> Dataflow.Bits.get facts s) t.def_sites_.(r) in
      (sites, r < Dataflow.Bits.length facts - t.n && Dataflow.Bits.get facts (t.n + r))
