(* Host/device expression equivalence: for random predicate-language
   expressions over random tuples, the value computed by the KIR code that
   Expr_emit generates must equal the host evaluator's bit for bit —
   including the int-to-f32 promotion points. *)

open Gpu_sim
open Relation_lib
open Qplan

let schema =
  Schema.make
    [ ("i", Dtype.I32); ("j", Dtype.I32); ("f", Dtype.F32); ("g", Dtype.F32) ]

let gen_expr seed =
  let st = Random.State.make [| seed |] in
  let irand n = Random.State.int st n in
  let rec go depth =
    if depth = 0 || irand 3 = 0 then
      match irand 3 with
      | 0 -> Pred.Attr (irand 4)
      | 1 -> Pred.Int (irand 100 - 50)
      | _ -> Pred.F32 (float_of_int (irand 100) /. 8.0)
    else
      let op =
        (* division avoided: the host traps on a zero integer divisor and
           the device does too, but generating guaranteed-nonzero divisors
           is noise; Add/Sub/Mul cover the promotion machinery *)
        List.nth [ Pred.Add; Pred.Sub; Pred.Mul ] (irand 3)
      in
      Pred.Bin (op, go (depth - 1), go (depth - 1))
  in
  go (2 + irand 3)

let gen_tuple seed =
  let st = Random.State.make [| seed; 77 |] in
  [|
    Random.State.int st 1000 - 500;
    Random.State.int st 1000 - 500;
    Value.of_f32 (Random.State.float st 16.0 -. 8.0);
    Value.of_f32 (Random.State.float st 16.0 -. 8.0);
  |]

let device_eval expr tup =
  let b = Kir_builder.create ~name:"expr" ~params:2 () in
  let open Kir_builder in
  let inp = param b 0 and out = param b 1 in
  let attrs =
    Array.init 4 (fun j ->
        Kir.Reg (ld b Kir.Global ~base:inp ~idx:(Imm j) ~width:4))
  in
  let v = Ra_lib.Expr_emit.expr b schema ~env:(fun i -> attrs.(i)) expr in
  st b Kir.Global ~base:out ~idx:(Imm 0) ~src:v ~width:4;
  let k = finish b in
  let mem = Memory.create Device.fermi_c2050 in
  let inp_b = Memory.alloc mem ~words:4 ~bytes:16 in
  let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
  Array.blit tup 0 (Memory.data mem inp_b) 0 4;
  ignore (Interp.run mem k ~params:[| inp_b; out_b |] ~grid:1 ~cta:1);
  (Memory.data mem out_b).(0)

let device_eval_pred p tup =
  let b = Kir_builder.create ~name:"pred" ~params:2 () in
  let open Kir_builder in
  let inp = param b 0 and out = param b 1 in
  let attrs =
    Array.init 4 (fun j ->
        Kir.Reg (ld b Kir.Global ~base:inp ~idx:(Imm j) ~width:4))
  in
  let v = Ra_lib.Expr_emit.pred b schema ~env:(fun i -> attrs.(i)) p in
  st b Kir.Global ~base:out ~idx:(Imm 0) ~src:v ~width:4;
  let k = finish b in
  let mem = Memory.create Device.fermi_c2050 in
  let inp_b = Memory.alloc mem ~words:4 ~bytes:16 in
  let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
  Array.blit tup 0 (Memory.data mem inp_b) 0 4;
  ignore (Interp.run mem k ~params:[| inp_b; out_b |] ~grid:1 ~cta:1);
  (Memory.data mem out_b).(0)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_expr_bit_identical =
  QCheck.Test.make ~name:"Expr_emit matches Pred.eval_expr bit for bit"
    ~count:400 arb_seed (fun seed ->
      let e = gen_expr seed in
      let tup = gen_tuple seed in
      let host = Pred.eval_expr schema tup e in
      let dev = device_eval e tup in
      if host <> dev then
        QCheck.Test.fail_reportf "expr %s: host %d, device %d"
          (Pred.show_expr e) host dev
      else true)

let prop_pred_agrees =
  QCheck.Test.make ~name:"Expr_emit predicates match Pred.eval" ~count:400
    arb_seed (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      let cmp =
        List.nth
          [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ]
          (Random.State.int st 6)
      in
      let p0 = Pred.Cmp (cmp, gen_expr seed, gen_expr (seed + 1)) in
      let p =
        match Random.State.int st 3 with
        | 0 -> p0
        | 1 -> Pred.And (p0, Pred.Not p0)
        | _ -> Pred.Or (Pred.Not p0, p0)
      in
      let tup = gen_tuple seed in
      let host = if Pred.eval schema tup p then 1 else 0 in
      let dev = if device_eval_pred p tup <> 0 then 1 else 0 in
      host = dev)

(* the O3 optimizer must not change expression results either *)
let prop_expr_o3_identical =
  QCheck.Test.make ~name:"optimized expressions bit-identical" ~count:200
    arb_seed (fun seed ->
      let e = gen_expr (seed + 500_000) in
      let tup = gen_tuple (seed + 500_000) in
      let b = Kir_builder.create ~name:"expr" ~params:2 () in
      let open Kir_builder in
      let inp = param b 0 and out = param b 1 in
      let attrs =
        Array.init 4 (fun j ->
            Kir.Reg (ld b Kir.Global ~base:inp ~idx:(Imm j) ~width:4))
      in
      let v = Ra_lib.Expr_emit.expr b schema ~env:(fun i -> attrs.(i)) e in
      st b Kir.Global ~base:out ~idx:(Imm 0) ~src:v ~width:4;
      let k = finish b in
      let k3 = Weaver.Optimizer.optimize Weaver.Optimizer.O3 k in
      let run k =
        let mem = Memory.create Device.fermi_c2050 in
        let inp_b = Memory.alloc mem ~words:4 ~bytes:16 in
        let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
        Array.blit tup 0 (Memory.data mem inp_b) 0 4;
        ignore (Interp.run mem k ~params:[| inp_b; out_b |] ~grid:1 ~cta:1);
        (Memory.data mem out_b).(0)
      in
      run k = run k3)

(* Seed 488041 builds an int subexpression too large for binary32 that
   is then widened into float arithmetic: the host must round it through
   f32 as the device's I2f does (it once differed by one ulp). *)
let test_int_widening_rounds_through_f32 () =
  let e = gen_expr 488041 and tup = gen_tuple 488041 in
  Alcotest.(check int) "host = device" (device_eval e tup)
    (Pred.eval_expr schema tup e)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_expr_bit_identical; prop_pred_agrees; prop_expr_o3_identical ]
  @ [
      Alcotest.test_case "int widening rounds through f32 (seed 488041)"
        `Quick test_int_widening_rounds_through_f32;
    ]
