open Gpu_sim

type access = {
  at : int;
  block : int;
  write : bool;
  atomic : bool;
  base : int option;
      (* static base: a shared address, or for a global access a handle
         constant or [-1 - i] for parameter [i]; None = may-alias wildcard *)
  lin : Sym.lin;
  cls : Sym.core_class;  (* class of [lin.core] *)
  unif : (int * Sym.node) list;
      (* scaled uniform terms peeled off the address (global stores only) *)
  guards : Sym.node list;  (* singleton contexts enclosing the access *)
}

(* Singleton contexts: blocks executed only when [tid == u] for a
   uniform [u]; the guard node is [u]. *)
let singleton_guards cfg sym =
  let k = Cfg.kernel cfg in
  let nb = Cfg.nblocks cfg in
  let guards = Array.make (max nb 1) [] in
  for b = 0 to nb - 1 do
    if Cfg.preachable cfg b then begin
      let blk = Cfg.block cfg b in
      match k.Kir.body.(blk.Cfg.last) with
      | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) -> (
          let tree = Sym.operand sym ~at:blk.Cfg.last (Kir.Reg c) in
          let guard =
            match tree.Sym.sh with
            | Sym.Cmp (Kir.Eq, { Sym.sh = Sym.Tid; _ }, u) when Sym.uniform sym u ->
                Some u
            | Sym.Cmp (Kir.Eq, u, { Sym.sh = Sym.Tid; _ }) when Sym.uniform sym u ->
                Some u
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

(* A term whose value no thread changes while the CTA runs between two
   barriers: built from launch values and loads of such addresses (a store
   racing with such a load is itself a race). A loop variable, even a
   uniform one, may differ between two threads that are in different
   iterations of a barrier-free loop. *)
let rec invariant (n : Sym.node) =
  match n.Sym.sh with
  | Sym.Const _ | Sym.Ctaid | Sym.Ntid | Sym.Nctaid | Sym.Param _ -> true
  | Sym.Tid | Sym.LoopVar _ | Sym.Ind _ | Sym.Opaque _ | Sym.AtomR _ -> false
  | Sym.Bin (_, a, b) | Sym.Cmp (_, a, b) -> invariant a && invariant b
  | Sym.Un (_, a) -> invariant a
  | Sym.Sel (c, a, b) -> invariant c && invariant a && invariant b
  | Sym.SLd { idx; _ } -> invariant idx
  | Sym.GLd { base; idx; _ } -> invariant base && invariant idx

(* Global stores only: an invariant uniform additive term does not change
   which thread a thread-distinct core belongs to, so [core + u] keeps the
   class of [core], with [u] recorded in [unif]; two such stores are
   disjoint across threads when their uniform terms are the same and the
   core rule holds. *)
let rec peel sym (l : Sym.lin) unif =
  let split keep u =
    let k = Sym.norm keep in
    peel sym
      {
        Sym.scale = l.Sym.scale * k.Sym.scale;
        core = k.Sym.core;
        off = l.Sym.off + (l.Sym.scale * k.Sym.off);
      }
      ((l.Sym.scale, u) :: unif)
  in
  match (Sym.classify sym l.Sym.core, l.Sym.core) with
  | Sym.CVar, Some { Sym.sh = Sym.Bin (Kir.Add, a, b); _ } ->
      let peelable u = Sym.uniform sym u && invariant u in
      if peelable b then split a b
      else if peelable a then split b a
      else (l, Sym.CVar, List.rev unif)
  | cls, _ -> (l, cls, List.rev unif)

(* The shared-memory accesses, or with [global] the global stores. *)
let collect ?(global = false) cfg sym guards =
  let k = Cfg.kernel cfg in
  let out = ref [] in
  for b = 0 to Cfg.nblocks cfg - 1 do
    if Cfg.preachable cfg b then begin
      let blk = Cfg.block cfg b in
      for i = blk.Cfg.first to blk.Cfg.last do
        let add ~write ~atomic base_op idx_op =
          let bn = Sym.operand sym ~at:i base_op in
          let base =
            match bn.Sym.sh with
            | Sym.Const c -> Some c
            | Sym.Param p when global -> Some (-1 - p)
            | _ -> None
          in
          let lin = Sym.norm (Sym.operand sym ~at:i idx_op) in
          let lin, cls, unif =
            if global then peel sym lin []
            else (lin, Sym.classify sym lin.Sym.core, [])
          in
          out :=
            {
              at = i;
              block = b;
              write;
              atomic;
              base;
              lin;
              cls;
              unif;
              guards =
                (if global then List.filter invariant guards.(b) else guards.(b));
            }
            :: !out
        in
        match (global, k.Kir.body.(i)) with
        | false, Kir.Ld { space = Kir.Shared; base; idx; _ } ->
            add ~write:false ~atomic:false base idx
        | false, Kir.St { space = Kir.Shared; base; idx; _ } ->
            add ~write:true ~atomic:false base idx
        | false, Kir.Atom { space = Kir.Shared; base; idx; _ } ->
            add ~write:true ~atomic:true base idx
        | true, Kir.St { space = Kir.Global; base; idx; _ } ->
            add ~write:true ~atomic:false base idx
        | _ -> ()
      done
    end
  done;
  List.rev !out

(* Exclusive-scan certificate for the array at base [p]: every write to
   it is either issued from a singleton context or is an own-affine
   slot write (scale >= 1, field offset within the stride), so its
   contents partition positions disjointly across threads. The shared
   arena is reused across fused segments, so the same base may also
   carry an earlier segment's own-range tile writes — those are
   per-thread disjoint too and must not void the certificate. *)
let scan_certified accesses p =
  List.for_all
    (fun a ->
      (not a.write) || a.base <> Some p || a.guards <> []
      ||
      match (a.lin.Sym.scale, a.cls, a.lin.Sym.off) with
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
  let guards = singleton_guards cfg sym in
  let accesses = collect cfg sym guards in
  let certified = Hashtbl.create 8 in
  let is_certified p =
    match Hashtbl.find_opt certified p with
    | Some v -> v
    | None ->
        let v = scan_certified accesses p in
        Hashtbl.replace certified p v;
        v
  in
  let diags = ref [] in
  let report_diag severity a b what =
    let d =
      Diag.make ~severity ~pass:"race" ~at:a.at
        "%s between shared accesses at %d and %d (base %s)" what a.at b.at
        (match a.base with
        | Some p -> string_of_int p
        | None -> (match b.base with Some p -> string_of_int p | None -> "?"))
    in
    diags := d :: !diags
  in
  let same_singleton a b =
    List.exists (fun g1 -> List.exists (fun g2 -> Sym.same g1 g2) b.guards) a.guards
  in
  let aligned a b = a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.scale > 0 in
  let stride_disjoint a b =
    aligned a b && abs (a.lin.Sym.off - b.lin.Sym.off) < a.lin.Sym.scale
  in
  let same_unif a b =
    List.equal (fun (s1, u1) (s2, u2) -> s1 = s2 && Sym.same u1 u2) a.unif b.unif
  in
  let pair ~report a b =
    if not (a.write || b.write) then ()
    else if a.atomic && b.atomic then ()
    else if same_singleton a b then ()
    else if not (Cfg.may_concurrent cfg a.block b.block) then ()
    else if a.base <> None && b.base <> None && a.base <> b.base then ()
    else if a.base = None || b.base = None then
      report Diag.Warn a b "possible race (unresolved base address)"
    else if not (same_unif a b) then
      report Diag.Warn a b "possible race (uniform terms differ)"
    else
      match (a.cls, b.cls) with
      | Sym.CTid, Sym.CTid ->
          if not (stride_disjoint a b) then
            report Diag.Warn a b "possible race (tid slices overlap)"
      | Sym.CConst, Sym.CConst ->
          if a.lin.Sym.off = b.lin.Sym.off then
            report Diag.Error a b "race: multiple threads hit the same word"
      | Sym.COwn l1, Sym.COwn l2 ->
          if not (own_compatible sym l1 l2 && stride_disjoint a b) then
            report Diag.Warn a b "possible race (own-range slices do not line up)"
      | Sym.CScanPos p1, Sym.CScanPos p2 ->
          if not (p1 = p2 && is_certified p1 && stride_disjoint a b) then
            report Diag.Warn a b "possible race (scan positions not certified)"
      | Sym.CPosRank (p1, r1), Sym.CPosRank (p2, r2) ->
          let matched = (p1 = p2 && r1 = r2) || (p1 = r2 && r1 = p2) in
          if
            not
              (matched && is_certified p1 && is_certified r1 && stride_disjoint a b)
          then report Diag.Warn a b "possible race (merge position+rank not certified)"
      | Sym.CProd (o1, u1), Sym.CProd (o2, u2) ->
          if not (own_compatible sym o1 o2 && Sym.same u1 u2 && stride_disjoint a b)
          then report Diag.Warn a b "possible race (product index spaces differ)"
      | Sym.CUnif n1, Sym.CUnif n2 when Sym.same n1 n2 ->
          if a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.off = b.lin.Sym.off then
            report Diag.Error a b "race: multiple threads hit the same word"
      | _ -> report Diag.Warn a b "possible race (unrecognized address shapes)"
  in
  let all_pairs report accesses =
    let arr = Array.of_list accesses in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        pair ~report arr.(i) arr.(j)
      done
    done
  in
  all_pairs report_diag accesses;
  let disjoint = ref true in
  all_pairs
    (fun _ _ _ _ -> disjoint := false)
    (collect ~global:true cfg sym guards);
  (List.rev !diags, !disjoint)

let analyze cfg sym = fst (check cfg sym)
