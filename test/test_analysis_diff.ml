(* Differential tests of the static analyzer against the dense oracle
   (Analysis_oracle): on every kernel of the goldens (fused and unfused),
   of Q21 at the benchmark's join expansion, of random plans and of the
   hand-built kernels, the two must agree on every per-block dataflow
   fact, every post-dominator-derived region, every bar-free pair and
   the full report. Plans are compiled, never executed. Also a model
   test of the word-packed bit set. *)

open Gpu_sim
module A = Weaver_analysis
module O = Analysis_oracle
module Bits = A.Dataflow.Bits

let lib_bits b =
  let l = ref [] in
  Bits.iter (fun i -> l := i :: !l) b;
  List.rev !l

let ilist = Alcotest.(list int)

let check_kernel ?(regions = []) what (k : Kir.kernel) =
  let label s = Printf.sprintf "%s/%s: %s" what k.Kir.kname s in
  let g = A.Cfg.build k in
  let o = O.compute k in
  let nb = A.Cfg.nblocks g and nregs = k.Kir.reg_count in
  Alcotest.(check int) (label "blocks") (O.Cfg.nblocks o.O.cfg) nb;
  let live = A.Live.compute g and defs = A.Defs.compute g and uni = A.Uniform.compute g in
  for b = 0 to nb - 1 do
    let lb s = label (Printf.sprintf "block %d %s" b s) in
    Alcotest.(check int) (lb "ipd") (O.Cfg.ipd o.O.cfg b) (A.Cfg.ipd g b);
    Alcotest.(check ilist) (lb "influence") (O.Cfg.influence o.O.cfg b) (A.Cfg.influence g b);
    Alcotest.(check (option (pair ilist ilist)))
      (lb "one_sided") (O.Cfg.one_sided o.O.cfg b) (A.Cfg.one_sided g b);
    for b' = 0 to nb - 1 do
      if O.Cfg.may_concurrent o.O.cfg b b' <> A.Cfg.may_concurrent g b b' then
        Alcotest.failf "%s" (lb (Printf.sprintf "may_concurrent with %d" b'))
    done;
    Alcotest.(check ilist)
      (lb "live in") (O.Bits.to_list o.O.live.O.Live.in_.(b)) (lib_bits (A.Live.live_in live b));
    Alcotest.(check ilist)
      (lb "live out")
      (O.Bits.to_list o.O.live.O.Live.out.(b))
      (lib_bits (A.Live.live_out live b));
    Alcotest.(check bool)
      (lb "divergent") o.O.uni.O.Uniform.divergent.(b) (A.Uniform.divergent uni b);
    Alcotest.(check bool)
      (lb "tainted") o.O.uni.O.Uniform.tainted.(b) (A.Uniform.tainted_block uni b);
    (* the entry facts, one register at a time *)
    let at = (A.Cfg.block g b).A.Cfg.first in
    for r = 0 to nregs - 1 do
      if O.Defs.reaching o.O.defs ~at r <> A.Defs.reaching defs ~at r then
        Alcotest.failf "%s" (lb (Printf.sprintf "defs in r%d" r));
      if O.Bits.get o.O.uni.O.Uniform.in_.(b) r <> A.Uniform.varying_at uni ~at r then
        Alcotest.failf "%s" (lb (Printf.sprintf "uniform in r%d" r))
    done
  done;
  let expected_regs = k.Kir.regs_per_thread in
  if O.analyze ~regions ~expected_regs k <> A.Analysis.analyze ~regions ~expected_regs k then
    Alcotest.failf "%s" (label "reports differ")

(* --- the kernels a program certifies -------------------------------------- *)

(* The shared-memory regions a fused compute kernel is certified against,
   as the runtime derives them from the layout. *)
let layout_regions (lay : Weaver.Layout.t) ~n_in =
  let r base words = { A.Analysis.base; words } in
  let tile (t : Ra_lib.Tile.t) =
    [ r t.Ra_lib.Tile.base (t.Ra_lib.Tile.cap * Ra_lib.Tile.arity t); r t.Ra_lib.Tile.cnt 1 ]
  in
  let seg = function
    | Weaver.Layout.S_none -> []
    | Weaver.Layout.S_pipe { flags; scratch; total } ->
        (r flags scratch.Ra_lib.Tile.cap :: tile scratch) @ [ r total 1 ]
    | Weaver.Layout.S_counts { counts; curs; total } ->
        [ r counts (curs - counts); r curs (total - curs); r total 1 ]
    | Weaver.Layout.S_union { counts_l; counts_r; total_l; total_r } ->
        [ r counts_l (counts_r - counts_l); r counts_r (total_l - counts_r); r total_l 1;
          r total_r 1 ]
  in
  let widest = Hashtbl.create 16 in
  List.iter
    (fun (reg : A.Analysis.region) ->
      match Hashtbl.find_opt widest reg.base with
      | Some w when w >= reg.words -> ()
      | _ -> Hashtbl.replace widest reg.base reg.words)
    (List.concat_map tile (Array.to_list lay.Weaver.Layout.tiles)
    @ List.concat_map seg (Array.to_list lay.Weaver.Layout.seg_scratch)
    @ [ r lay.Weaver.Layout.shared_words (2 * n_in) ]);
  Hashtbl.fold (fun base words acc -> r base words :: acc) widest []

(* Each unit's raw kernels with their regions, in the order
   [Runtime.analyze_program] reports them. *)
let program_kernels (p : Weaver.Runtime.program) =
  let cfg = p.Weaver.Runtime.config and plan = p.Weaver.Runtime.plan in
  let plain k = (k, []) in
  let partition ~name ~schema ~key_arity ~cap =
    Ra_lib.Partition_emit.emit ~name:(name ^ "_partition")
      ~inputs:[ (Ra_lib.Partition_emit.Even, schema) ]
      ~key_arity ~pivot:None ~cap
  in
  List.concat_map
    (function
      | Weaver.Runtime.U_fused { name; ir } ->
          let lay = Weaver.Layout.compute cfg plan ir in
          let ks = Weaver.Codegen.generate cfg ~name ir lay in
          plain ks.Weaver.Codegen.partition
          :: (ks.Weaver.Codegen.compute, layout_regions lay ~n_in:(Array.length ir.Weaver.Fusion.inputs))
          :: List.map plain
               (Array.to_list ks.Weaver.Codegen.scans @ Array.to_list ks.Weaver.Codegen.gathers)
      | Weaver.Runtime.U_sort _ -> []
      | Weaver.Runtime.U_unique { op_id; key_arity; source } ->
          let name = Printf.sprintf "unique%d" op_id
          and schema = Qplan.Plan.schema_of plan source
          and cap = cfg.Weaver.Config.cap in
          List.map plain
            [
              partition ~name ~schema ~key_arity ~cap;
              Ra_lib.Unique_emit.emit_compute ~op:op_id ~name:(name ^ "_compute") ~schema
                ~key_arity ~cap ~stage_cap:cap ();
              Ra_lib.Gather_emit.emit_scan_offsets ~name:(name ^ "_scan");
              Ra_lib.Gather_emit.emit_gather ~name:(name ^ "_gather") ~schema ~stage_cap:cap;
            ]
      | Weaver.Runtime.U_aggregate { op_id; source; lay } ->
          let name = Printf.sprintf "aggregate%d" op_id
          and g = cfg.Weaver.Config.max_groups in
          List.map plain
            [
              partition ~name ~schema:(Qplan.Plan.schema_of plan source) ~key_arity:1
                ~cap:(cfg.Weaver.Config.cap * 8);
              Ra_lib.Aggregate_emit.emit_partial ~op:op_id ~name:(name ^ "_partial") lay
                ~max_groups:g ~stage_cap:g ();
              Ra_lib.Aggregate_emit.emit_final ~op:op_id ~name:(name ^ "_final") lay
                ~max_groups:g ~stage_cap:g ();
            ])
    p.Weaver.Runtime.units

(* Check every kernel of a compiled plan. The library's reports over the
   rebuilt kernels must equal [Runtime.analyze_program]'s, which pins the
   rebuild to exactly what the runtime certifies. *)
let check_program ?config ?fuse what plan =
  let p = Weaver.Driver.compile ?config ?fuse plan in
  let ks = program_kernels p in
  if
    List.map
      (fun (k, regions) ->
        A.Analysis.analyze ~regions ~expected_regs:k.Kir.regs_per_thread k)
      ks
    <> Weaver.Runtime.analyze_program p
  then Alcotest.failf "%s: rebuilt kernels differ from the runtime's" what;
  List.iter (fun (k, regions) -> check_kernel ~regions what k) ks;
  List.length ks

let goldens () =
  List.map
    (fun (w : Tpch.Patterns.workload) -> (w.Tpch.Patterns.name, w.Tpch.Patterns.plan))
    (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
  @ List.map
      (fun (q : Tpch.Queries.query) -> (q.Tpch.Queries.qname, q.Tpch.Queries.plan))
      [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let test_goldens () =
  let gs = goldens () in
  Alcotest.(check int) "8 goldens" 8 (List.length gs);
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun fuse -> ignore (check_program ~fuse (name ^ if fuse then "" else " unfused") plan))
        [ true; false ])
    gs;
  (* the largest kernel the benchmark certifies *)
  ignore
    (check_program
       ~config:{ Weaver.Config.default with Weaver.Config.join_expansion = 3 }
       "q21 join_expansion=3" Tpch.Queries.q21.Tpch.Queries.plan)

let test_random_plans () =
  let kernels =
    List.fold_left
      (fun acc seed ->
        let { Test_property.plan; desc; _ } = Test_property.build_random seed in
        acc + check_program desc plan)
      0
      (List.init 40 (fun i -> 1 + (i * 2477)))
  in
  Alcotest.(check bool) "random plans produced kernels" true (kernels >= 40)

(* [tid < 1] leaves a branch into a loop nest with no way out: its
   blocks reach no exit, and one of them ends in a thread-varying
   two-way branch guarding a barrier, so its influence region and sides
   depend on the post-dominator answer for exit-less blocks. *)
let no_exit_loop () =
  let t = Kir.reg_tid in
  {
    Kir.kname = "no_exit";
    params = 0;
    reg_count = Kir.special_regs + 3;
    regs_per_thread = 8;
    shared_words = 4;
    shared_bytes = 16;
    body =
      [|
        Kir.Cmp (Kir.Lt, Kir.special_regs, Kir.Reg t, Kir.Imm 1);
        Kir.Brz (Kir.Reg Kir.special_regs, 0);
        Kir.St { space = Kir.Shared; base = Kir.Imm 0; idx = Kir.Reg t; src = Kir.Imm 1; width = 4 };
        Kir.Ret;
        (* label 0: loop head *)
        Kir.Cmp (Kir.Lt, Kir.special_regs + 1, Kir.Reg t, Kir.Imm 2);
        Kir.Brz (Kir.Reg (Kir.special_regs + 1), 1);
        Kir.Br 0;
        (* label 1 *)
        Kir.St { space = Kir.Shared; base = Kir.Imm 0; idx = Kir.Imm 1; src = Kir.Reg t; width = 4 };
        Kir.Bar;
        Kir.Br 0;
      |];
    labels = [| 4; 7 |];
    prov = Kir.no_prov;
    stores_disjoint = false;
  }

let test_hand_built () =
  List.iter
    (fun (what, k) -> check_kernel what k)
    (("no exit", no_exit_loop ()) :: Test_analysis.hand_built ());
  (* the exit-less loop head's sides really do hinge on that answer *)
  let g = A.Cfg.build (no_exit_loop ()) in
  let head = A.Cfg.block_of g 4 in
  Alcotest.(check int) "loop head post-dominated by its fall-through" (head + 1) (A.Cfg.ipd g head);
  Alcotest.(check bool) "loop head's influence is non-empty" true (A.Cfg.influence g head <> [])

(* --- the bit set against a bool array ------------------------------------- *)

type op = Set of int | Clear of int | Union of bool list | Inter of bool list | Fill

let prop_bits =
  let sizes = [ 0; 1; 61; 62; 63; 64; 125; 1448 ] in
  let gen =
    QCheck.Gen.(
      oneofl sizes >>= fun n ->
      let bits = list_repeat n bool in
      let op =
        if n = 0 then oneof [ return Fill; map (fun l -> Union l) bits; map (fun l -> Inter l) bits ]
        else
          frequency
            [
              (4, map (fun i -> Set i) (int_bound (n - 1)));
              (3, map (fun i -> Clear i) (int_bound (n - 1)));
              (2, map (fun l -> Union l) bits);
              (2, map (fun l -> Inter l) bits);
              (1, return Fill);
            ]
      in
      pair (return n) (list_size (int_range 0 30) op))
  in
  let print (n, ops) = Printf.sprintf "n=%d, %d ops" n (List.length ops) in
  QCheck.Test.make ~name:"word-packed Bits matches a bool array" ~count:300
    (QCheck.make ~print gen)
    (fun (n, ops) ->
      let model = Array.make n false and b = Bits.create n in
      let of_list l =
        let s = Bits.create n in
        List.iteri (fun i v -> if v then Bits.set s i) l;
        s
      in
      let agree what =
        let got = lib_bits b in
        let want = List.filter (fun i -> model.(i)) (List.init n Fun.id) in
        if got <> want then QCheck.Test.fail_reportf "%s: iter disagrees" what;
        if Bits.count b <> List.length want then QCheck.Test.fail_reportf "%s: count" what;
        Array.iteri
          (fun i v -> if Bits.get b i <> v then QCheck.Test.fail_reportf "%s: get %d" what i)
          model;
        let c = Bits.copy b in
        if not (Bits.equal c b) then QCheck.Test.fail_reportf "%s: copy not equal" what;
        if n > 0 then begin
          Bits.set c 0;
          Bits.clear c 0;
          if Bits.equal c b <> not model.(0) then
            QCheck.Test.fail_reportf "%s: equal after clearing bit 0" what
        end
      in
      let merge what op f l =
        let before = Array.copy model in
        List.iteri (fun i v -> model.(i) <- f model.(i) v) l;
        let changed = op ~dst:b (of_list l) in
        if changed <> (before <> model) then QCheck.Test.fail_reportf "%s: changed flag" what
      in
      Alcotest.(check int) "length" n (Bits.length b);
      List.iter
        (fun op ->
          (match op with
          | Set i ->
              model.(i) <- true;
              Bits.set b i
          | Clear i ->
              model.(i) <- false;
              Bits.clear b i
          | Union l -> merge "union" Bits.union_into ( || ) l
          | Inter l -> merge "inter" Bits.inter_into ( && ) l
          | Fill ->
              Array.fill model 0 n true;
              Bits.fill b);
          agree "after op")
        ops;
      let mask = of_list (List.init n (fun i -> i mod 3 = 0)) in
      Bits.count_inter b mask
      = List.length (List.filter (fun i -> model.(i) && i mod 3 = 0) (List.init n Fun.id)))

let suite =
  [
    Alcotest.test_case "goldens match the oracle" `Slow test_goldens;
    Alcotest.test_case "random plans match the oracle" `Slow test_random_plans;
    Alcotest.test_case "hand-built kernels match the oracle" `Quick test_hand_built;
    QCheck_alcotest.to_alcotest prop_bits;
  ]
