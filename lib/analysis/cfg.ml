open Gpu_sim

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
  traps : bool;
}

(* The trap-pruned view, which only the divergence and race analyses
   read: a liveness-only caller never builds it. *)
type pruned = {
  preach : bool array;
  psuccs_ : int list array;
  ipd : int array;  (* pruned immediate post-dominator; nblocks = virtual exit *)
}

type t = {
  k : Kir.kernel;
  blocks : block array;
  blk_of : int array;
  reach : bool array;
  pruned : pruned Lazy.t;
  bar_term : bool array;  (* block ends in [Bar] *)
  barfree : Dataflow.Bits.t option array;
      (* per block, once queried: blocks reachable bar-free *)
}

let kernel t = t.k
let nblocks t = Array.length t.blocks
let block t b = t.blocks.(b)
let block_of t i = t.blk_of.(i)
let reachable t b = t.reach.(b)
let pruned t = Lazy.force t.pruned
let preachable t b = (pruned t).preach.(b)
let psuccs t b = (pruned t).psuccs_.(b)
let ipd t b = (pruned t).ipd.(b)

(* Branch target as a body position; None when the label or its position
   is out of range (the analyzer must not crash on invalid kernels). *)
let target_pos (k : Kir.kernel) l =
  if l < 0 || l >= Array.length k.labels then None
  else
    let p = k.labels.(l) in
    if p < 0 || p >= Array.length k.body then None else Some p

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

(* Immediate post-dominators on the pruned graph, whose pruned-exit
   blocks all flow to a virtual exit [nb]; -1 for blocks off the pruned
   graph. Blocks that reach the exit get their parent in the
   post-dominator tree (Cooper, Harvey & Kennedy, "A Simple, Fast
   Dominance Algorithm", run on the reversed graph from the exit).

   A pre-reachable block that cannot reach the exit has no tree parent.
   Its answer reproduces the dense set formulation, where such a block's
   post-dominator set stays the full node set and its immediate
   post-dominator is the other node whose own set is largest, the
   lowest index on ties. Set sizes are nb+1 off the tree and tree depth
   (counting the exit) on it. *)
let postdominators nb psuccs preach =
  let exit_succs b = match psuccs.(b) with [] -> [ nb ] | ss -> ss in
  let ppreds = Array.make (nb + 1) [] in
  for b = nb - 1 downto 0 do
    if preach.(b) then List.iter (fun s -> ppreds.(s) <- b :: ppreds.(s)) (exit_succs b)
  done;
  (* postorder number of each node in a DFS of the reversed graph from
     the exit; -1 = cannot reach the exit *)
  let po = Array.make (nb + 1) (-1) and visited = Array.make (nb + 1) false in
  let rpo = ref [] and next = ref 0 in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs ppreds.(v);
      po.(v) <- !next;
      incr next;
      rpo := v :: !rpo
    end
  in
  dfs nb;
  let idom = Array.make (nb + 1) (-1) in
  idom.(nb) <- nb;
  let rec intersect a b =
    if a = b then a
    else if po.(a) < po.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> nb then begin
          let nd =
            List.fold_left
              (fun acc s ->
                if idom.(s) < 0 then acc else if acc < 0 then s else intersect s acc)
              (-1) (exit_succs b)
          in
          if nd <> idom.(b) then begin
            idom.(b) <- nd;
            changed := true
          end
        end)
      !rpo
  done;
  let size = Array.make (nb + 1) (nb + 1) in
  List.iter (fun v -> size.(v) <- (if v = nb then 1 else size.(idom.(v)) + 1)) !rpo;
  (* the two lowest-index largest sets, for blocks off the tree *)
  let best ~except =
    let r = ref (-1) in
    for v = 0 to nb do
      if v <> except && (!r < 0 || size.(v) > size.(!r)) then r := v
    done;
    !r
  in
  let first = best ~except:(-1) in
  let second = best ~except:first in
  Array.init nb (fun b ->
      if not preach.(b) then -1
      else if po.(b) >= 0 then idom.(b)
      else if b = first then second
      else first)

let build (k : Kir.kernel) =
  let n = Array.length k.body in
  let leaders = Array.make (max n 1) false in
  if n > 0 then leaders.(0) <- true;
  Array.iteri
    (fun i (ins : Kir.instr) ->
      let fall () = if i + 1 < n then leaders.(i + 1) <- true in
      match ins with
      | Br l | Brz (_, l) | Brnz (_, l) ->
          (match target_pos k l with Some p -> leaders.(p) <- true | None -> ());
          fall ()
      | Bar | Ret | Trap _ -> fall ()
      | _ -> ())
    k.body;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leaders.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let blk_of = Array.make (max n 1) 0 in
  let bounds =
    Array.mapi
      (fun bi first ->
        let last = if bi + 1 < nb then starts.(bi + 1) - 1 else n - 1 in
        for i = first to last do
          blk_of.(i) <- bi
        done;
        (first, last))
      starts
  in
  let succs_of (_, last) =
    let fall () = if last + 1 < n then [ blk_of.(last + 1) ] else [] in
    let tgt l = match target_pos k l with Some p -> [ blk_of.(p) ] | None -> [] in
    match k.body.(last) with
    | Kir.Br l -> tgt l
    | Kir.Brz (_, l) | Kir.Brnz (_, l) ->
        let t = tgt l and f = fall () in
        t @ List.filter (fun b -> not (List.mem b t)) f
    | Kir.Ret | Kir.Trap _ -> []
    | _ -> fall ()
  in
  let succs = Array.map succs_of bounds in
  let preds = Array.make nb [] in
  Array.iteri (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss) succs;
  let blocks =
    Array.mapi
      (fun bi (first, last) ->
        {
          id = bi;
          first;
          last;
          succs = succs.(bi);
          preds = List.rev preds.(bi);
          traps = (match k.body.(last) with Kir.Trap _ -> true | _ -> false);
        })
      bounds
  in
  let reach = dfs nb (nb > 0) (fun b -> blocks.(b).succs) in
  let pruned =
    lazy
      (let psuccs_ =
         Array.map
           (fun b ->
             if b.traps then []
             else List.filter (fun s -> not (blocks.(s).traps)) b.succs)
           blocks
       in
       let preach = dfs nb (nb > 0 && not blocks.(0).traps) (fun b -> psuccs_.(b)) in
       { preach; psuccs_; ipd = postdominators nb psuccs_ preach })
  in
  let bar_term =
    Array.map (fun b -> match k.Kir.body.(b.last) with Kir.Bar -> true | _ -> false) blocks
  in
  { k; blocks; blk_of; reach; pruned; bar_term; barfree = Array.make nb None }

let cond_target t b =
  let blk = t.blocks.(b) in
  match t.k.body.(blk.last) with
  | Kir.Brz (_, l) | Kir.Brnz (_, l) -> (
      match target_pos t.k l with Some p -> Some t.blk_of.(p) | None -> None)
  | _ -> None

(* Blocks reachable from [s] along pruned edges without entering [stop]. *)
let region t ~stop s =
  let nb = nblocks t and psuccs_ = (pruned t).psuccs_ in
  let seen = Array.make (max nb 1) false in
  let rec go b =
    if b <> stop && not seen.(b) then begin
      seen.(b) <- true;
      List.iter go psuccs_.(b)
    end
  in
  if s <> stop then go s;
  seen

let influence t b =
  if not (preachable t b) then []
  else
    match psuccs t b with
    | _ :: _ :: _ as ss ->
        let stop = ipd t b in
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
  if not (preachable t b) then None
  else
    let blk = t.blocks.(b) in
    match (t.k.body.(blk.last), psuccs t b, cond_target t b) with
    | ((Kir.Brz _ | Kir.Brnz _), [ s1; s2 ], Some tgt) when s1 <> s2 ->
        let fall = if s1 = tgt then s2 else s1 in
        let stop = ipd t b in
        let rt = region t ~stop tgt and rf = region t ~stop fall in
        let diff a bo =
          let out = ref [] in
          Array.iteri (fun i v -> if v && not bo.(i) then out := i :: !out) a;
          List.rev !out
        in
        let tgt_only = diff rt rf and fall_only = diff rf rt in
        let nonzero, zero =
          match t.k.body.(blk.last) with
          | Kir.Brz _ -> (fall_only, tgt_only)
          | _ -> (tgt_only, fall_only)
        in
        Some (nonzero, zero)
    | _ -> None

(* Bar-free reachability on the full graph: edges out of a
   Bar-terminated block cross the barrier and are dropped. Computed per
   block on first use. *)
let barfree t b0 =
  match t.barfree.(b0) with
  | Some s -> s
  | None ->
      let s = Dataflow.Bits.create (nblocks t) in
      let rec go b =
        if not (Dataflow.Bits.get s b) then begin
          Dataflow.Bits.set s b;
          if not t.bar_term.(b) then List.iter go t.blocks.(b).succs
        end
      in
      go b0;
      t.barfree.(b0) <- Some s;
      s

let may_concurrent t a b =
  Dataflow.Bits.get (barfree t a) b || Dataflow.Bits.get (barfree t b) a

let iter_instrs t f =
  Array.iter
    (fun blk ->
      if t.reach.(blk.id) then
        for i = blk.first to blk.last do
          f i t.k.body.(i)
        done)
    t.blocks
