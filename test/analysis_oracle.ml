(* The reference static analysis: the dense, straightforward algorithms
   the analyzer's framework passes started from. It is the differential
   oracle for [Weaver_analysis] and exists only here:

   - [Bits] works one byte at a time and counts by iterating;
   - [solve] sweeps blocks round-robin in index order from empty facts;
   - post-dominators are (nb+1)-bit sets iterated to a fixpoint from
     full sets, and the immediate post-dominator is the strict
     post-dominator with the largest own set;
   - bar-free reachability is one eager DFS per block;
   - uniformity re-solves from empty facts after every taint round;
   - the race detector classifies address cores once per pair;
   - peak liveness counts registers one [iter] per program point.

   Reports are assembled as [Analysis.analyze] assembles them. Symbolic
   expressions come from the library's [Sym], which this change leaves
   alone; its only framework input is reaching definitions, which the
   differential test checks block by block before comparing reports. *)

open Gpu_sim
module A = Weaver_analysis

module Bits = struct
  type t = { words : Bytes.t; n : int }

  let create n = { words = Bytes.make ((n + 7) / 8) '\000'; n }
  let length t = t.n

  let set t i =
    Bytes.set t.words (i lsr 3)
      (Char.chr (Char.code (Bytes.get t.words (i lsr 3)) lor (1 lsl (i land 7))))

  let clear t i =
    Bytes.set t.words (i lsr 3)
      (Char.chr
         (Char.code (Bytes.get t.words (i lsr 3)) land lnot (1 lsl (i land 7)) land 0xff))

  let get t i = Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0
  let copy t = { words = Bytes.copy t.words; n = t.n }
  let equal a b = Bytes.equal a.words b.words

  let merge_into op ~dst src =
    let changed = ref false in
    for w = 0 to Bytes.length dst.words - 1 do
      let d = Char.code (Bytes.get dst.words w) in
      let u = op d (Char.code (Bytes.get src.words w)) in
      if u <> d then begin
        changed := true;
        Bytes.set dst.words w (Char.chr u)
      end
    done;
    !changed

  let union_into = merge_into ( lor )
  let inter_into = merge_into ( land )

  let iter f t =
    for i = 0 to t.n - 1 do
      if get t i then f i
    done

  let count t =
    let c = ref 0 in
    iter (fun _ -> incr c) t;
    !c

  let to_list t =
    let l = ref [] in
    iter (fun i -> l := i :: !l) t;
    List.rev !l
end

let solve ~nblocks ~direction ~succs ~preds ~boundary ~transfer =
  let nbits = Bits.length boundary in
  let in_ = Array.init nblocks (fun _ -> Bits.create nbits) in
  let out = Array.init nblocks (fun _ -> Bits.create nbits) in
  let join_edges, prop_from, prop_to =
    match direction with
    | `Forward -> (preds, out, in_)
    | `Backward -> (succs, in_, out)
  in
  let is_boundary b =
    match direction with `Forward -> b = 0 | `Backward -> succs b = []
  in
  let step b =
    let acc = Bits.create nbits in
    if is_boundary b then ignore (Bits.union_into ~dst:acc boundary);
    List.iter (fun p -> ignore (Bits.union_into ~dst:acc prop_from.(p))) (join_edges b);
    prop_to.(b) <- acc;
    let res = transfer b acc in
    if Bits.equal res prop_from.(b) then false
    else begin
      prop_from.(b) <- res;
      true
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nblocks - 1 do
      if step b then changed := true
    done
  done;
  (in_, out)

(* The library's block structure is not under test: only its derived
   views are. *)
module Cfg = struct
  type t = {
    g : A.Cfg.t;
    k : Kir.kernel;
    preach : bool array;
    psuccs : int list array;
    ipd : int array;
    barfree : Bits.t array;
  }

  let nblocks t = A.Cfg.nblocks t.g
  let block t b = A.Cfg.block t.g b
  let kernel t = t.k

  let dfs nb start_ok succs =
    let seen = Array.make (max nb 1) false in
    let rec go b =
      if b < nb && not seen.(b) then begin
        seen.(b) <- true;
        List.iter go (succs b)
      end
    in
    if nb > 0 && start_ok then go 0;
    seen

  let build (k : Kir.kernel) =
    let g = A.Cfg.build k in
    let nb = A.Cfg.nblocks g in
    let blocks = Array.init nb (A.Cfg.block g) in
    let psuccs =
      Array.map
        (fun (b : A.Cfg.block) ->
          if b.traps then [] else List.filter (fun s -> not blocks.(s).A.Cfg.traps) b.succs)
        blocks
    in
    let preach = dfs nb (nb > 0 && not blocks.(0).A.Cfg.traps) (fun b -> psuccs.(b)) in
    let full () =
      let s = Bits.create (nb + 1) in
      for i = 0 to nb do
        Bits.set s i
      done;
      s
    in
    let pdom = Array.init (nb + 1) (fun _ -> full ()) in
    let vexit = Bits.create (nb + 1) in
    Bits.set vexit nb;
    pdom.(nb) <- vexit;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb - 1 downto 0 do
        if preach.(b) then begin
          let ss = match psuccs.(b) with [] -> [ nb ] | ss -> ss in
          let acc = full () in
          List.iter (fun s -> ignore (Bits.inter_into ~dst:acc pdom.(s))) ss;
          Bits.set acc b;
          if not (Bits.equal acc pdom.(b)) then begin
            pdom.(b) <- acc;
            changed := true
          end
        end
      done
    done;
    let ipd =
      Array.init nb (fun b ->
          if not preach.(b) then -1
          else begin
            let best = ref nb and best_sz = ref (-1) in
            Bits.iter
              (fun p ->
                if p <> b then begin
                  let sz = Bits.count pdom.(p) in
                  if sz > !best_sz then begin
                    best := p;
                    best_sz := sz
                  end
                end)
              pdom.(b);
            !best
          end)
    in
    let bar_term b =
      match k.Kir.body.(blocks.(b).A.Cfg.last) with Kir.Bar -> true | _ -> false
    in
    let barfree =
      Array.init nb (fun b0 ->
          let s = Bits.create nb in
          let rec go b =
            if not (Bits.get s b) then begin
              Bits.set s b;
              if not (bar_term b) then List.iter go blocks.(b).A.Cfg.succs
            end
          in
          go b0;
          s)
    in
    { g; k; preach; psuccs; ipd; barfree }

  let preachable t b = t.preach.(b)
  let psuccs t b = t.psuccs.(b)
  let ipd t b = t.ipd.(b)

  let region t ~stop s =
    let nb = nblocks t in
    let seen = Array.make (max nb 1) false in
    let rec go b =
      if b <> stop && not seen.(b) then begin
        seen.(b) <- true;
        List.iter go t.psuccs.(b)
      end
    in
    if s <> stop then go s;
    seen

  let influence t b =
    if not t.preach.(b) then []
    else
      match t.psuccs.(b) with
      | _ :: _ :: _ as ss ->
          let stop = t.ipd.(b) in
          let acc = Array.make (nblocks t) false in
          List.iter
            (fun s ->
              let r = region t ~stop s in
              Array.iteri (fun i v -> if v then acc.(i) <- true) r)
            ss;
          let out = ref [] in
          Array.iteri (fun i v -> if v then out := i :: !out) acc;
          List.rev !out
      | _ -> []

  let one_sided t b =
    if not t.preach.(b) then None
    else
      let blk = block t b in
      match (t.k.Kir.body.(blk.A.Cfg.last), t.psuccs.(b), A.Cfg.cond_target t.g b) with
      | (Kir.Brz _ | Kir.Brnz _), [ s1; s2 ], Some tgt when s1 <> s2 ->
          let fall = if s1 = tgt then s2 else s1 in
          let stop = t.ipd.(b) in
          let rt = region t ~stop tgt and rf = region t ~stop fall in
          let diff a bo =
            let out = ref [] in
            Array.iteri (fun i v -> if v && not bo.(i) then out := i :: !out) a;
            List.rev !out
          in
          let tgt_only = diff rt rf and fall_only = diff rf rt in
          let nonzero, zero =
            match t.k.Kir.body.(blk.A.Cfg.last) with
            | Kir.Brz _ -> (fall_only, tgt_only)
            | _ -> (tgt_only, fall_only)
          in
          Some (nonzero, zero)
      | _ -> None

  let may_concurrent t a b = Bits.get t.barfree.(a) b || Bits.get t.barfree.(b) a
  let iter_instrs t f = A.Cfg.iter_instrs t.g f
end

let used_regs ins =
  List.filter_map (function Kir.Reg r -> Some r | Kir.Imm _ -> None) (Kir.used_operands ins)

let succs cfg b = (Cfg.block cfg b).A.Cfg.succs
let preds cfg b = (Cfg.block cfg b).A.Cfg.preds

module Defs = struct
  type t = { cfg : Cfg.t; n : int; in_ : Bits.t array; def_sites : int list array }

  let compute cfg =
    let k = Cfg.kernel cfg in
    let n = Array.length k.Kir.body in
    let nregs = k.Kir.reg_count in
    let def_sites = Array.make (max nregs 1) [] in
    for i = n - 1 downto 0 do
      match Kir.defined_reg k.Kir.body.(i) with
      | Some d when d >= 0 && d < nregs -> def_sites.(d) <- i :: def_sites.(d)
      | _ -> ()
    done;
    let boundary = Bits.create (n + nregs) in
    for r = 0 to nregs - 1 do
      Bits.set boundary (n + r)
    done;
    let transfer b facts =
      let cur = Bits.copy facts in
      let blk = Cfg.block cfg b in
      for i = blk.A.Cfg.first to blk.A.Cfg.last do
        match Kir.defined_reg k.Kir.body.(i) with
        | Some d when d >= 0 && d < nregs ->
            List.iter (fun s -> Bits.clear cur s) def_sites.(d);
            Bits.clear cur (n + d);
            Bits.set cur i
        | _ -> ()
      done;
      cur
    in
    let in_, _out =
      solve ~nblocks:(Cfg.nblocks cfg) ~direction:`Forward ~succs:(succs cfg)
        ~preds:(preds cfg) ~boundary ~transfer
    in
    { cfg; n; in_; def_sites }

  let initialized cfg r = r < Kir.special_regs + (Cfg.kernel cfg).Kir.params

  let reaching t ~at r =
    let k = Cfg.kernel t.cfg in
    let b = A.Cfg.block_of t.cfg.Cfg.g at in
    let blk = Cfg.block t.cfg b in
    let local = ref None in
    for i = blk.A.Cfg.first to at - 1 do
      match Kir.defined_reg k.Kir.body.(i) with
      | Some d when d = r -> local := Some i
      | _ -> ()
    done;
    match !local with
    | Some i -> ([ i ], false)
    | None ->
        let facts = t.in_.(b) in
        let sites = List.filter (fun s -> Bits.get facts s) t.def_sites.(r) in
        (sites, r < Bits.length facts - t.n && Bits.get facts (t.n + r))
end

module Live = struct
  type t = { cfg : Cfg.t; in_ : Bits.t array; out : Bits.t array }

  let compute cfg =
    let k = Cfg.kernel cfg in
    let nregs = k.Kir.reg_count in
    let transfer b facts =
      let cur = Bits.copy facts in
      let blk = Cfg.block cfg b in
      for i = blk.A.Cfg.last downto blk.A.Cfg.first do
        let ins = k.Kir.body.(i) in
        (match Kir.defined_reg ins with
        | Some d when d >= 0 && d < nregs -> Bits.clear cur d
        | _ -> ());
        List.iter (fun r -> if r >= 0 && r < nregs then Bits.set cur r) (used_regs ins)
      done;
      cur
    in
    let in_, out =
      solve ~nblocks:(Cfg.nblocks cfg) ~direction:`Backward ~succs:(succs cfg)
        ~preds:(preds cfg) ~boundary:(Bits.create (max nregs 1)) ~transfer
    in
    { cfg; in_; out }

  let max_live t ~counted =
    let cfg = t.cfg in
    let k = Cfg.kernel cfg in
    let nregs = k.Kir.reg_count in
    let best = ref 0 and best_at = ref 0 in
    let weigh at live =
      let c = ref 0 in
      Bits.iter (fun r -> if counted r then incr c) live;
      if !c > !best then begin
        best := !c;
        best_at := at
      end
    in
    for b = 0 to Cfg.nblocks cfg - 1 do
      if A.Cfg.reachable cfg.Cfg.g b then begin
        let blk = Cfg.block cfg b in
        let cur = Bits.copy t.out.(b) in
        weigh blk.A.Cfg.last cur;
        for i = blk.A.Cfg.last downto blk.A.Cfg.first do
          let ins = k.Kir.body.(i) in
          (match Kir.defined_reg ins with
          | Some d when d >= 0 && d < nregs -> Bits.clear cur d
          | _ -> ());
          List.iter (fun r -> if r >= 0 && r < nregs then Bits.set cur r) (used_regs ins);
          weigh i cur
        done
      end
    done;
    (!best, !best_at)

  let dead_defs t defs =
    let k = Cfg.kernel t.cfg in
    let used_def = Array.make (max (Array.length k.Kir.body) 1) false in
    Cfg.iter_instrs t.cfg (fun i ins ->
        List.iter
          (fun r ->
            let sites, _entry = Defs.reaching defs ~at:i r in
            List.iter (fun s -> used_def.(s) <- true) sites)
          (used_regs ins));
    let out = ref [] in
    Cfg.iter_instrs t.cfg (fun i ins ->
        match (ins, Kir.defined_reg ins) with
        | Kir.Atom _, _ -> ()
        | _, Some _ when not used_def.(i) -> out := i :: !out
        | _ -> ());
    List.rev !out
end

module Uniform = struct
  type t = { in_ : Bits.t array; divergent : bool array; tainted : bool array }

  let step_instr nregs tainted ins cur =
    match Kir.defined_reg ins with
    | Some d when d >= 0 && d < nregs ->
        let op_varying =
          List.exists
            (function
              | Kir.Reg r -> r >= 0 && r < nregs && Bits.get cur r
              | Kir.Imm _ -> false)
            (Kir.used_operands ins)
        in
        let atom = match ins with Kir.Atom _ -> true | _ -> false in
        if op_varying || tainted || atom then Bits.set cur d else Bits.clear cur d
    | _ -> ()

  let compute cfg =
    let k = Cfg.kernel cfg in
    let nregs = k.Kir.reg_count in
    let nb = Cfg.nblocks cfg in
    let divergent = Array.make (max nb 1) false in
    let tainted = Array.make (max nb 1) false in
    let boundary = Bits.create (max nregs 1) in
    if nregs > 0 then Bits.set boundary 0;
    let in_ = ref [||] in
    let solve () =
      let transfer b facts =
        let cur = Bits.copy facts in
        let blk = Cfg.block cfg b in
        for i = blk.A.Cfg.first to blk.A.Cfg.last do
          step_instr nregs tainted.(b) k.Kir.body.(i) cur
        done;
        cur
      in
      in_ :=
        fst
          (solve ~nblocks:nb ~direction:`Forward ~succs:(succs cfg) ~preds:(preds cfg)
             ~boundary ~transfer)
    in
    let varying_at at r =
      let b = A.Cfg.block_of cfg.Cfg.g at in
      let cur = Bits.copy !in_.(b) in
      let blk = Cfg.block cfg b in
      for i = blk.A.Cfg.first to at - 1 do
        step_instr nregs tainted.(b) k.Kir.body.(i) cur
      done;
      r >= 0 && r < nregs && Bits.get cur r
    in
    let progress = ref true in
    while !progress do
      progress := false;
      solve ();
      for b = 0 to nb - 1 do
        if (not divergent.(b)) && Cfg.preachable cfg b then begin
          let blk = Cfg.block cfg b in
          let two_way = match Cfg.psuccs cfg b with _ :: _ :: _ -> true | _ -> false in
          let cond_varying =
            match k.Kir.body.(blk.A.Cfg.last) with
            | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) -> varying_at blk.A.Cfg.last c
            | _ -> false
          in
          if two_way && cond_varying then begin
            divergent.(b) <- true;
            List.iter (fun r -> tainted.(r) <- true) (Cfg.influence cfg b);
            progress := true
          end
        end
      done
    done;
    { in_ = !in_; divergent; tainted }
end

module Races = struct
  module Sym = A.Sym

  type access = {
    at : int;
    block : int;
    write : bool;
    atomic : bool;
    base : int option;
    lin : Sym.lin;
    cls : Sym.core_class option;  (* set for global stores: after peeling *)
    unif : (int * Sym.node) list;
    guards : Sym.node list;
  }

  let singleton_guards cfg sym =
    let k = Cfg.kernel cfg in
    let nb = Cfg.nblocks cfg in
    let guards = Array.make (max nb 1) [] in
    for b = 0 to nb - 1 do
      if Cfg.preachable cfg b then begin
        let blk = Cfg.block cfg b in
        match k.Kir.body.(blk.A.Cfg.last) with
        | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) -> (
            let tree = Sym.operand sym ~at:blk.A.Cfg.last (Kir.Reg c) in
            let guard =
              match tree.Sym.sh with
              | Sym.Cmp (Kir.Eq, { Sym.sh = Sym.Tid; _ }, u) when Sym.uniform sym u -> Some u
              | Sym.Cmp (Kir.Eq, u, { Sym.sh = Sym.Tid; _ }) when Sym.uniform sym u -> Some u
              | _ -> None
            in
            match (guard, Cfg.one_sided cfg b) with
            | Some u, Some (nonzero, _zero) ->
                List.iter (fun r -> guards.(r) <- u :: guards.(r)) nonzero
            | _ -> ())
        | _ -> ()
      end
    done;
    guards

  let collect cfg sym =
    let k = Cfg.kernel cfg in
    let guards = singleton_guards cfg sym in
    let out = ref [] in
    for b = 0 to Cfg.nblocks cfg - 1 do
      if Cfg.preachable cfg b then begin
        let blk = Cfg.block cfg b in
        for i = blk.A.Cfg.first to blk.A.Cfg.last do
          let add ~write ~atomic base_op idx_op =
            let bn = Sym.operand sym ~at:i base_op in
            let base = match bn.Sym.sh with Sym.Const c -> Some c | _ -> None in
            let idx = Sym.operand sym ~at:i idx_op in
            out :=
              { at = i; block = b; write; atomic; base; lin = Sym.norm idx; cls = None;
                unif = []; guards = guards.(b) }
              :: !out
          in
          match k.Kir.body.(i) with
          | Kir.Ld { space = Kir.Shared; base; idx; _ } -> add ~write:false ~atomic:false base idx
          | Kir.St { space = Kir.Shared; base; idx; _ } -> add ~write:true ~atomic:false base idx
          | Kir.Atom { space = Kir.Shared; base; idx; _ } -> add ~write:true ~atomic:true base idx
          | _ -> ()
        done
      end
    done;
    List.rev !out

  (* The global-store fact: a uniform term free of loop variables, added
     to a core the rules above cannot place, is set aside; the stores are
     then judged on the remaining core, provided their set-aside terms
     agree. *)
  let rec fixed (n : Sym.node) =
    match n.Sym.sh with
    | Sym.Tid | Sym.LoopVar _ | Sym.Ind _ | Sym.Opaque _ | Sym.AtomR _ -> false
    | Sym.Const _ | Sym.Ctaid | Sym.Ntid | Sym.Nctaid | Sym.Param _ -> true
    | Sym.Un (_, a) -> fixed a
    | Sym.Bin (_, a, b) | Sym.Cmp (_, a, b) -> fixed a && fixed b
    | Sym.Sel (c, a, b) -> List.for_all fixed [ c; a; b ]
    | Sym.SLd { idx; _ } -> fixed idx
    | Sym.GLd { base; idx; _ } -> fixed base && fixed idx

  let rec set_aside sym (l : Sym.lin) terms =
    let cls = Sym.classify sym l.Sym.core in
    let term u = Sym.uniform sym u && fixed u in
    match (cls, l.Sym.core) with
    | Sym.CVar, Some { Sym.sh = Sym.Bin (Kir.Add, x, u); _ } when term u ->
        rest sym l x u terms
    | Sym.CVar, Some { Sym.sh = Sym.Bin (Kir.Add, u, x); _ } when term u ->
        rest sym l x u terms
    | _ -> (l, cls, List.rev terms)

  and rest sym l x u terms =
    let m = Sym.norm x in
    set_aside sym
      { Sym.scale = l.Sym.scale * m.Sym.scale; core = m.Sym.core;
        off = l.Sym.off + (l.Sym.scale * m.Sym.off) }
      ((l.Sym.scale, u) :: terms)

  let global_stores cfg sym =
    let k = Cfg.kernel cfg in
    let guards = singleton_guards cfg sym in
    List.concat_map
      (fun b ->
        if not (Cfg.preachable cfg b) then []
        else
          let blk = Cfg.block cfg b in
          List.filter_map
            (fun i ->
              match k.Kir.body.(i) with
              | Kir.St { space = Kir.Global; base; idx; _ } ->
                  let base =
                    match (Sym.operand sym ~at:i base).Sym.sh with
                    | Sym.Const c -> Some c
                    | Sym.Param p -> Some (-1 - p)
                    | _ -> None
                  in
                  let lin, cls, unif = set_aside sym (Sym.norm (Sym.operand sym ~at:i idx)) [] in
                  Some
                    { at = i; block = b; write = true; atomic = false; base; lin;
                      cls = Some cls; unif; guards = List.filter fixed guards.(b) }
              | _ -> None)
            (List.init (blk.A.Cfg.last - blk.A.Cfg.first + 1) (fun j -> blk.A.Cfg.first + j)))
      (List.init (Cfg.nblocks cfg) Fun.id)

  let scan_certified accesses sym p =
    List.for_all
      (fun a ->
        (not a.write) || a.base <> Some p || a.guards <> []
        ||
        match (a.lin.Sym.scale, Sym.classify sym a.lin.Sym.core, a.lin.Sym.off) with
        | s, Sym.COwn _, o when s >= 1 && o >= 0 && o < s -> true
        | _ -> false)
      accesses

  let own_compatible sym l1 l2 =
    l1 = l2
    ||
    match (Sym.own_range sym l1, Sym.own_range sym l2) with
    | Some (s1, e1), Some (s2, e2) -> Sym.same s1 s2 && Sym.same e1 e2
    | _ -> false

  let check cfg sym =
    let accesses = collect cfg sym in
    let certified = Hashtbl.create 8 in
    let is_certified p =
      match Hashtbl.find_opt certified p with
      | Some v -> v
      | None ->
          let v = scan_certified accesses sym p in
          Hashtbl.replace certified p v;
          v
    in
    let diags = ref [] in
    let report_diag severity a b what =
      let d =
        A.Diag.make ~severity ~pass:"race" ~at:a.at
          "%s between shared accesses at %d and %d (base %s)" what a.at b.at
          (match a.base with
          | Some p -> string_of_int p
          | None -> ( match b.base with Some p -> string_of_int p | None -> "?"))
      in
      diags := d :: !diags
    in
    let same_singleton a b =
      List.exists (fun g1 -> List.exists (fun g2 -> Sym.same g1 g2) b.guards) a.guards
    in
    let aligned a b = a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.scale > 0 in
    let stride_disjoint a b = aligned a b && abs (a.lin.Sym.off - b.lin.Sym.off) < a.lin.Sym.scale in
    let same_terms a b =
      List.length a.unif = List.length b.unif
      && List.for_all2 (fun (s1, u1) (s2, u2) -> s1 = s2 && Sym.same u1 u2) a.unif b.unif
    in
    let pair report a b =
      if not (a.write || b.write) then ()
      else if a.atomic && b.atomic then ()
      else if same_singleton a b then ()
      else if not (Cfg.may_concurrent cfg a.block b.block) then ()
      else if a.base <> None && b.base <> None && a.base <> b.base then ()
      else if a.base = None || b.base = None then
        report A.Diag.Warn a b "possible race (unresolved base address)"
      else if not (same_terms a b) then report A.Diag.Warn a b "uniform terms differ"
      else
        let cls a = match a.cls with Some c -> c | None -> Sym.classify sym a.lin.Sym.core in
        let ca = cls a and cb = cls b in
        match (ca, cb) with
        | Sym.CTid, Sym.CTid ->
            if not (stride_disjoint a b) then
              report A.Diag.Warn a b "possible race (tid slices overlap)"
        | Sym.CConst, Sym.CConst ->
            if a.lin.Sym.off = b.lin.Sym.off then
              report A.Diag.Error a b "race: multiple threads hit the same word"
        | Sym.COwn l1, Sym.COwn l2 ->
            if not (own_compatible sym l1 l2 && stride_disjoint a b) then
              report A.Diag.Warn a b "possible race (own-range slices do not line up)"
        | Sym.CScanPos p1, Sym.CScanPos p2 ->
            if not (p1 = p2 && is_certified p1 && stride_disjoint a b) then
              report A.Diag.Warn a b "possible race (scan positions not certified)"
        | Sym.CPosRank (p1, r1), Sym.CPosRank (p2, r2) ->
            let matched = (p1 = p2 && r1 = r2) || (p1 = r2 && r1 = p2) in
            if not (matched && is_certified p1 && is_certified r1 && stride_disjoint a b) then
              report A.Diag.Warn a b "possible race (merge position+rank not certified)"
        | Sym.CProd (o1, u1), Sym.CProd (o2, u2) ->
            if not (own_compatible sym o1 o2 && Sym.same u1 u2 && stride_disjoint a b) then
              report A.Diag.Warn a b "possible race (product index spaces differ)"
        | Sym.CUnif n1, Sym.CUnif n2 when Sym.same n1 n2 ->
            if a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.off = b.lin.Sym.off then
              report A.Diag.Error a b "race: multiple threads hit the same word"
        | _ -> report A.Diag.Warn a b "possible race (unrecognized address shapes)"
    in
    let rec pairs report = function
      | [] -> ()
      | a :: rest as l ->
          List.iter (pair report a) l;
          pairs report rest
    in
    pairs report_diag accesses;
    let disjoint = ref true in
    pairs (fun _ _ _ _ -> disjoint := false) (global_stores cfg sym);
    (List.rev !diags, !disjoint)
end

let divergence cfg (uni : Uniform.t) =
  let k = Cfg.kernel cfg in
  let diags = ref [] in
  for b = 0 to Cfg.nblocks cfg - 1 do
    if uni.Uniform.divergent.(b) then
      List.iter
        (fun r ->
          let blk = Cfg.block cfg r in
          for i = blk.A.Cfg.first to blk.A.Cfg.last do
            match k.Kir.body.(i) with
            | Kir.Bar ->
                diags :=
                  A.Diag.make ~severity:A.Diag.Error ~pass:"divergence" ~at:i
                    "barrier at %d is control-dependent on a thread-varying branch at %d" i
                    (Cfg.block cfg b).A.Cfg.last
                  :: !diags
            | _ -> ()
          done)
        (Cfg.influence cfg b)
  done;
  List.rev !diags

let hygiene cfg defs live =
  let diags = ref [] in
  Cfg.iter_instrs cfg (fun i ins ->
      List.iter
        (function
          | Kir.Imm _ -> ()
          | Kir.Reg r ->
              if not (Defs.initialized cfg r) then begin
                let sites, entry = Defs.reaching defs ~at:i r in
                if entry then
                  if sites = [] then
                    diags :=
                      A.Diag.make ~severity:A.Diag.Error ~pass:"hygiene" ~at:i
                        "register r%d read at %d but never written" r i
                      :: !diags
                  else
                    diags :=
                      A.Diag.make ~severity:A.Diag.Warn ~pass:"hygiene" ~at:i
                        "register r%d may be read uninitialized at %d" r i
                      :: !diags
              end)
        (Kir.used_operands ins));
  List.iter
    (fun i ->
      diags :=
        A.Diag.make ~severity:A.Diag.Hint ~pass:"hygiene" ~at:i
          "definition at %d is never used (dead store)" i
        :: !diags)
    (Live.dead_defs live defs);
  List.rev !diags

let resources cfg sym live ~(regions : A.Analysis.region list) ~expected_regs =
  let module Sym = A.Sym in
  let k = Cfg.kernel cfg in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let max_addr = ref (-1) in
  Cfg.iter_instrs cfg (fun i ins ->
      match ins with
      | Kir.Ld { space = Kir.Shared; base; idx; _ }
      | Kir.St { space = Kir.Shared; base; idx; _ }
      | Kir.Atom { space = Kir.Shared; base; idx; _ } -> (
          match (Sym.operand sym ~at:i base).Sym.sh with
          | Sym.Const b -> (
              let lin = Sym.norm (Sym.operand sym ~at:i idx) in
              match lin.Sym.core with
              | None ->
                  let addr = b + lin.Sym.off in
                  if addr > !max_addr then max_addr := addr;
                  if addr < 0 || addr >= k.Kir.shared_words then
                    push
                      (A.Diag.make ~severity:A.Diag.Error ~pass:"resource" ~at:i
                         "shared access at constant word %d outside declared shared_words %d"
                         addr k.Kir.shared_words)
              | Some _ -> if b > !max_addr then max_addr := b)
          | _ -> ())
      | _ -> ());
  List.iter
    (fun (r : A.Analysis.region) ->
      let hi = r.base + r.words - 1 in
      if r.words > 0 && hi > !max_addr then max_addr := hi;
      if r.base < 0 || r.base + r.words > k.Kir.shared_words then
        push
          (A.Diag.make ~severity:A.Diag.Error ~pass:"resource" ~at:(-1)
             "layout region [%d, %d) exceeds declared shared_words %d" r.base (r.base + r.words)
             k.Kir.shared_words))
    regions;
  let width, at =
    Live.max_live live ~counted:(fun r -> r >= Kir.special_regs + k.Kir.params)
  in
  (match expected_regs with
  | Some budget when width > budget ->
      push
        (A.Diag.make ~severity:A.Diag.Error ~pass:"resource" ~at
           "%d registers live at %d but the fusion budget assumed %d" width at budget)
  | _ -> ());
  ( List.rev !diags,
    { A.Resources.max_live_regs = width; max_live_at = at; max_shared_addr = !max_addr } )

type t = { cfg : Cfg.t; defs : Defs.t; live : Live.t; uni : Uniform.t }

let compute k =
  let cfg = Cfg.build k in
  { cfg; defs = Defs.compute cfg; live = Live.compute cfg; uni = Uniform.compute cfg }

(* [Analysis.analyze ~regions ?expected_regs k] under the oracle's
   framework. *)
let analyze ?(regions = []) ?expected_regs (k : Kir.kernel) =
  let o = compute k in
  let g = A.Cfg.build k in
  let sym = A.Sym.create g (A.Defs.compute g) (A.Uniform.compute g) in
  let races, stores_disjoint = Races.check o.cfg sym in
  let diags = divergence o.cfg o.uni @ races @ hygiene o.cfg o.defs o.live in
  let rdiags, certificate = resources o.cfg sym o.live ~regions ~expected_regs in
  {
    A.Analysis.kname = k.Kir.kname;
    diags = List.sort A.Diag.compare (diags @ rdiags);
    certificate;
    stores_disjoint;
    instrs = Array.length k.Kir.body;
  }
